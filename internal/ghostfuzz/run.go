package ghostfuzz

import (
	"fmt"
	"regexp"
	"time"
)

// DefaultRows selects the clean host rows: the paper's differential
// oracle over generated adversaries.
const DefaultRows = "^(inside|crashdump|winpe)-"

// Options configures a run of the matrix.
type Options struct {
	// Seed is the base seed; case i uses CaseSeed(Seed, i), and so does
	// fleet i.
	Seed int64
	// N is how many cases to generate per selected spec class, and how
	// many fleets to sweep when fleet rows are selected.
	N int
	// Specs, when non-nil, are judged instead of generated cases (corpus
	// replay); fleet rows take no spec and are skipped.
	Specs []CaseSpec
	// Rows selects matrix rows by name (a regexp over both tables). A
	// generated case is drawn for each spec class a selected host row
	// applies to: clean by Generate, faulted by GenerateFaulted. Empty
	// means DefaultRows when generating, and every row when replaying.
	Rows string
	// Budget bounds wall-clock time; zero means unlimited. A run that
	// hits the budget stops early and marks the summary Truncated — it
	// never affects per-case results, so an un-truncated run's JSON is
	// identical whatever the budget.
	Budget time.Duration
	// Breaker, when set, sabotages every row's reports before judging
	// (tests only).
	Breaker *Breaker
	// CorpusDir, when non-empty, receives a shrunk spec file for every
	// failing case.
	CorpusDir string
	// NoShrink skips minimization (failures report the raw spec as
	// shrunk).
	NoShrink bool
}

// Failure is one case or fleet that violated an invariant; a case
// carries its minimized reproduction.
type Failure struct {
	Spec       string      `json:"spec,omitempty"`
	Shrunk     string      `json:"shrunk,omitempty"`
	Fleet      int64       `json:"fleet,omitempty"`
	Violations []Violation `json:"violations"`
	CorpusFile string      `json:"corpusFile,omitempty"`
}

// Summary is a run's deterministic result: no wall-clock times, so the
// same options marshal byte-identically run after run.
type Summary struct {
	Seed   int64 `json:"seed"`
	Cases  int   `json:"cases"`
	Fleets int   `json:"fleets,omitempty"`
	// Rows counts how often each matrix row ran.
	Rows      map[string]int `json:"rows,omitempty"`
	Failures  []Failure      `json:"failures,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
}

// Run judges cases and fleets through every selected matrix row. The
// error return covers harness problems (a bad selection, corpus or
// journal I/O); detector failures land in Summary.Failures.
func Run(opts Options) (*Summary, error) {
	pattern := opts.Rows
	if pattern == "" && opts.Specs == nil {
		pattern = DefaultRows
	}
	sel, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("ghostfuzz: rows: %w", err)
	}
	s := &Summary{Seed: opts.Seed, Rows: map[string]int{}}
	start := time.Now()
	over := func() bool {
		s.Truncated = s.Truncated || opts.Budget > 0 && time.Since(start) > opts.Budget
		return s.Truncated
	}
	judgeCase := func(spec CaseSpec) error {
		s.Cases++
		vs := judgeSpec(spec, sel, opts.Breaker, s.Rows)
		if len(vs) == 0 {
			return nil
		}
		f := Failure{Spec: spec.String(), Violations: vs}
		shrunk := spec
		if !opts.NoShrink {
			shrunk = shrink(spec, vs[0], func(c CaseSpec) []Violation { return judgeSpec(c, sel, opts.Breaker, map[string]int{}) })
		}
		f.Shrunk = shrunk.String()
		if opts.CorpusDir != "" {
			path, err := WriteSpec(opts.CorpusDir, shrunk, vs[0])
			if err != nil {
				return err
			}
			f.CorpusFile = path
		}
		s.Failures = append(s.Failures, f)
		return nil
	}

	if opts.Specs != nil {
		for _, spec := range opts.Specs {
			if over() {
				break
			}
			if !selects(sel, classOf(spec)) {
				return nil, fmt.Errorf("ghostfuzz: rows %q select no row for %s", pattern, spec)
			}
			if err := judgeCase(spec); err != nil {
				return s, err
			}
		}
		return s, nil
	}
	var draws []func(int64) CaseSpec
	if selects(sel, clean) {
		draws = append(draws, Generate)
	}
	if selects(sel, faulted) {
		draws = append(draws, GenerateFaulted)
	}
	fleets := false
	for _, row := range fleetRows {
		fleets = fleets || sel.MatchString(row.name)
	}
	if len(draws) == 0 && !fleets {
		return nil, fmt.Errorf("ghostfuzz: rows %q select no matrix row", pattern)
	}
	for i := 0; i < opts.N && !over(); i++ {
		for _, draw := range draws {
			if err := judgeCase(draw(CaseSeed(opts.Seed, i))); err != nil {
				return s, err
			}
		}
	}
	for i := 0; fleets && i < opts.N && !over(); i++ {
		seed := CaseSeed(opts.Seed, i)
		vs, err := judgeFleet(seed, sel, opts.Breaker, s.Rows)
		if err != nil {
			return s, err
		}
		s.Fleets++
		if len(vs) > 0 {
			s.Failures = append(s.Failures, Failure{Fleet: seed, Violations: vs})
		}
	}
	return s, nil
}

// selects reports whether any selected host row applies to class c.
func selects(sel *regexp.Regexp, c class) bool {
	for _, row := range hostRows {
		if row.on&c != 0 && sel.MatchString(row.name) {
			return true
		}
	}
	return false
}
