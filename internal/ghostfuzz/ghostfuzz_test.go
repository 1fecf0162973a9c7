package ghostfuzz

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/winapi"
)

// runSpec judges a spec through every host row that applies to it.
func runSpec(spec CaseSpec, b *Breaker) []Violation {
	return judgeSpec(spec, regexp.MustCompile(""), b, map[string]int{})
}

// replay parses one spec line and judges it like runSpec.
func replay(t *testing.T, line string, b *Breaker) []Violation {
	t.Helper()
	spec, err := ParseSpec(line)
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	return runSpec(spec, b)
}

func TestSpecRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		spec := Generate(CaseSeed(3, i))
		line := spec.String()
		back, err := ParseSpec(line)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", line, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v", spec, back)
		}
	}
}

func TestParseSpecRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"",
		"ghostfuzz-v0 seed=1 atoms=ads/1/all",
		"ghostfuzz-v1 atoms=ads/1/all",
		"ghostfuzz-v1 seed=x atoms=ads/1/all",
		"ghostfuzz-v1 seed=1 atoms=",
		"ghostfuzz-v1 seed=1 atoms=nosuch/1/all",
		"ghostfuzz-v1 seed=1 atoms=file/1/all",        // hooked kind without level
		"ghostfuzz-v1 seed=1 atoms=ads@ssdt/1/all",    // hookless kind with level
		"ghostfuzz-v1 seed=1 atoms=ads/0/all",         // zero count
		"ghostfuzz-v1 seed=1 atoms=ads/1001/all",      // count above MaxAtomCount
		"ghostfuzz-v1 seed=1 atoms=ads/1/utils",       // hookless kind scoped
		"ghostfuzz-v1 seed=1 atoms=file@ssdt/1/weird", // unknown scope
	} {
		if _, err := ParseSpec(line); err == nil {
			t.Errorf("ParseSpec accepted %q", line)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		seed := CaseSeed(7, i)
		if a, b := Generate(seed), Generate(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("Generate(%d) differs across calls", seed)
		}
	}
}

// TestSmallBatchClean: generated adversaries must all be caught cleanly
// — every invariant, every mode. The CI smoke run covers a larger batch
// through cmd/ghostfuzz.
func TestSmallBatchClean(t *testing.T) {
	summary, err := Run(Options{Seed: 1, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if summary.Cases != 8 {
		t.Errorf("cases = %d, want 8", summary.Cases)
	}
	for _, f := range summary.Failures {
		t.Errorf("spec %s: %v", f.Spec, f.Violations)
	}
}

// TestSummaryJSONDeterministic: same seed, same N, byte-identical JSON.
func TestSummaryJSONDeterministic(t *testing.T) {
	marshal := func() []byte {
		s, err := Run(Options{Seed: 2, N: 4})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := marshal(), string(marshal())
	if string(a) != b {
		t.Errorf("summary JSON differs across runs:\n%s\n%s", a, b)
	}
}

// The technique-lattice pillars, replayed directly: one spec per hiding
// family, all caught.
func TestLatticePillars(t *testing.T) {
	for _, line := range []string{
		"ghostfuzz-v1 seed=21 atoms=file@iat/1/all",
		"ghostfuzz-v1 seed=22 atoms=file@ssdt/1/all",
		"ghostfuzz-v1 seed=23 atoms=file@filter/1/utils",
		"ghostfuzz-v1 seed=24 atoms=win32/2/all",
		"ghostfuzz-v1 seed=25 atoms=ads/2/all",
		"ghostfuzz-v1 seed=26 atoms=reg@ntdll/2/all",
		"ghostfuzz-v1 seed=27 atoms=regnul/2/all",
		"ghostfuzz-v1 seed=28 atoms=proc@user/1/all",
		"ghostfuzz-v1 seed=29 atoms=dkom/1/all",
		"ghostfuzz-v1 seed=30 atoms=mod@ssdt/1/all",
		"ghostfuzz-v1 seed=31 atoms=decoy@ssdt/110/all",
	} {
		for _, v := range replay(t, line, nil) {
			t.Errorf("%s: %s", line, v)
		}
	}
}

// TestBrokenDetectorShrinksToMinimalSpec is the acceptance path: a
// deliberately broken detector (drops every ADS finding in every mode)
// must fail, shrink to a spec of at most 3 techniques, write a corpus
// entry, and replay to the same failure.
func TestBrokenDetectorShrinksToMinimalSpec(t *testing.T) {
	broken := &Breaker{DropHidden: func(mode string, f core.Finding) bool {
		// An ADS finding ID is PATH:STREAM — a colon beyond the drive's.
		return f.Kind == core.KindFiles && strings.Contains(f.ID[2:], ":")
	}}
	spec := CaseSpec{Seed: 41, Atoms: []ghostware.Atom{
		{Kind: ghostware.AtomFileHide, Level: winapi.LevelSSDT, Count: 2},
		{Kind: ghostware.AtomADS, Count: 2},
		{Kind: ghostware.AtomRegNul, Count: 1},
		{Kind: ghostware.AtomProcHide, Level: winapi.LevelIAT, Count: 1},
	}}
	violations := runSpec(spec, broken)
	if len(violations) == 0 {
		t.Fatal("broken detector produced no violations")
	}
	target := violations[0]
	if target.Invariant != InvCoverage {
		t.Fatalf("first violation = %s, want coverage", target)
	}

	shrunk := shrink(spec, target, func(s CaseSpec) []Violation { return runSpec(s, broken) })
	if len(shrunk.Atoms) > 3 {
		t.Errorf("shrunk to %d techniques, want <= 3: %s", len(shrunk.Atoms), shrunk)
	}
	if len(shrunk.Atoms) != 1 || shrunk.Atoms[0].Kind != ghostware.AtomADS || shrunk.Atoms[0].Count != 1 {
		t.Errorf("expected minimal spec of one 1-artifact ads atom, got %s", shrunk)
	}

	// The shrunk spec must replay to the same invariant+mode failure.
	replayed := replay(t, shrunk.String(), broken)
	found := false
	for _, v := range replayed {
		if sameFailure(v, target) {
			found = true
		}
	}
	if !found {
		t.Errorf("shrunk spec %s does not reproduce %s (got %v)", shrunk, target, replayed)
	}

	// And the run harness records it in the corpus.
	dir := t.TempDir()
	path, err := WriteSpec(dir, shrunk, target)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || !reflect.DeepEqual(specs[0], shrunk) {
		t.Errorf("corpus round trip: wrote %s to %s, loaded %v", shrunk, path, specs)
	}

	// Without the breaker the same spec passes: the corpus entry guards
	// the fix, it does not encode a permanent failure.
	if clean := replay(t, shrunk.String(), nil); len(clean) != 0 {
		t.Errorf("shrunk spec fails even with a healthy detector: %v", clean)
	}
}

// TestBreakerConsistencySabotage: a breaker that sabotages only one
// parallel mode must trip the consistency invariant, not coverage.
func TestBreakerConsistencySabotage(t *testing.T) {
	broken := &Breaker{DropHidden: func(mode string, f core.Finding) bool {
		return mode == "inside-par8"
	}}
	violations := runSpec(CaseSpec{Seed: 42, Atoms: []ghostware.Atom{
		{Kind: ghostware.AtomFileHide, Level: winapi.LevelNtdll, Count: 1},
	}}, broken)
	found := false
	for _, v := range violations {
		if v.Invariant == InvConsistency && v.Mode == "inside-par8" {
			found = true
		} else {
			t.Errorf("unexpected violation %s", v)
		}
	}
	if !found {
		t.Error("single-mode sabotage did not trip the consistency invariant")
	}
}

// TestCorpusReplay replays the repository's permanent regression
// corpus; every shrunk repro ever recorded must stay green.
func TestCorpusReplay(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "ghostfuzz", "corpus")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("corpus dir missing: %v", err)
	}
	specs, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("corpus is empty; expected the seeded specs")
	}
	s, err := Run(Options{Specs: specs, NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cases != len(specs) {
		t.Errorf("replayed %d of %d corpus specs", s.Cases, len(specs))
	}
	for _, f := range s.Failures {
		t.Errorf("corpus spec %s regressed: %v", f.Spec, f.Violations)
	}
}

// TestBudgetTruncates: an absurdly small budget stops the run early and
// marks it truncated rather than failing.
func TestBudgetTruncates(t *testing.T) {
	s, err := Run(Options{Seed: 1, N: 1 << 20, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Truncated {
		t.Error("1ns budget did not truncate the run")
	}
	if s.Cases >= 1<<20 {
		t.Error("budget did not bound the case count")
	}
}
