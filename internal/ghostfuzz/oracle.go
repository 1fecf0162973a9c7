package ghostfuzz

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ghostbuster/internal/core"
)

// The oracle's invariant names, stable so shrinking can match on them.
const (
	// InvCoverage: a planted artifact is missing from the report of a
	// row the paper claims catches it.
	InvCoverage = "coverage"
	// InvConsistency: a row's reports or per-host verdicts diverge from
	// its reference.
	InvConsistency = "consistency"
	// InvInnocent: a finding survived noise filtering that matches no
	// planted artifact — a false positive.
	InvInnocent = "innocent"
	// InvMassHiding: the §5 anomaly flag disagrees with the planted
	// hidden-file count.
	InvMassHiding = "mass-hiding"
	// InvError: a row failed outright (error or captured panic).
	InvError = "error"
	// InvDurability: a fleet row diverged from the uninterrupted run,
	// lost work it had committed, accepted a damaged journal silently,
	// or did not heal the way the row declares.
	InvDurability = "durability"
)

// Violation is one invariant breach in one matrix row (its mode).
type Violation struct {
	Invariant string `json:"invariant"`
	Mode      string `json:"mode"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s[%s]: %s", v.Invariant, v.Mode, v.Detail)
}

// sameFailure reports whether two violations are the same invariant in
// the same mode — the shrinker's notion of "still the same bug".
func sameFailure(a, b Violation) bool {
	return a.Invariant == b.Invariant && a.Mode == b.Mode
}

// Breaker is the test-only detector saboteur: it drops hidden findings
// from a row's reports after scanning and before judging, simulating a
// detector that silently misses a class of artifacts. The acceptance
// path proves a broken detector produces a shrunk, replayable spec.
type Breaker struct {
	// DropHidden returns true to delete a hidden finding from the named
	// mode's report.
	DropHidden func(mode string, f core.Finding) bool
}

// apply returns reports with the breaker's drops applied (deep enough a
// copy that the originals stay intact). A nil breaker is the identity.
func (b *Breaker) apply(mode string, reports []*core.Report) []*core.Report {
	if b == nil || b.DropHidden == nil {
		return reports
	}
	out := make([]*core.Report, len(reports))
	for i, r := range reports {
		cp := *r
		cp.Hidden = nil
		for _, f := range r.Hidden {
			if !b.DropHidden(mode, f) {
				cp.Hidden = append(cp.Hidden, f)
			}
		}
		out[i] = &cp
	}
	return out
}

// unit is one report of a full sweep, in sweep order (the four paper
// pairs, then the kmem carve, boot chain and removable volume): the
// artifacts planted for it and how a hidden finding's ID names one.
type unit struct {
	what    string
	planted func(Expectation) []string
	matches func(id, want string) bool
	// massHiding: the report must also carry the §5 anomaly flag exactly
	// when the planted file count crosses the threshold.
	massHiding bool
}

// Report indices of the units the outside-the-box rows judge.
const (
	unitFiles = 0
	unitASEPs = 1
	unitProcs = 2
	unitMods  = 3
)

// units is the whole ground-truth model of the host judge: coverage,
// innocence, mass-hiding and fault-induced false positives all derive
// from it.
var units = [...]unit{
	{"file", func(e Expectation) []string { return e.Files }, sameID, true},
	{"ASEP", func(e Expectation) []string { return e.ASEPs }, hookMatches, false},
	{"process", func(e Expectation) []string { return e.Procs }, procMatches, false},
	{"module", func(e Expectation) []string { return e.Mods }, strings.Contains, false},
	{"memory-only process", func(e Expectation) []string { return e.MemOnly }, procMatches, false},
	{"boot region", func(e Expectation) []string { return e.Boot }, regionMatches, false},
	{"removable file", func(e Expectation) []string { return e.USB }, sameID, false},
}

func sameID(id, want string) bool { return id == want }

// procMatches: process finding IDs end with ": NAME" uppercased.
func procMatches(id, name string) bool { return strings.HasSuffix(id, ": "+strings.ToUpper(name)) }

// regionMatches: boot-chain finding IDs are "NAME:STATUS"; the raw view
// of a tampered region surfaces as hidden ("CODE:tampered@...").
func regionMatches(id, region string) bool { return strings.HasPrefix(id, region+":") }

// hookMatches matches a ground-truth spec ("KEY" or "KEY|VALUE")
// against a finding ID ("KEY -> VALUE", upper-cased), the same way the
// ghostware table tests do.
func hookMatches(id, spec string) bool {
	keyPart, valPart, _ := strings.Cut(spec, "|")
	if !strings.HasPrefix(id, strings.ToUpper(keyPart)) {
		return false
	}
	return valPart == "" || strings.HasSuffix(id, strings.ToUpper(valPart))
}

// pair matches planted artifacts to the report's hidden finding IDs one
// to one, maximally (augmenting paths over IDs in sorted order), and
// returns the planted artifacts left unreported and the IDs that match
// none. A maximum matching is order-free, so nested hook specs or a
// prefix-sharing name can never make a reported artifact look missing.
func (u unit) pair(e Expectation, r *core.Report) (missing, extra []string) {
	planted := u.planted(e)
	ids := make([]string, len(r.Hidden))
	for i, f := range r.Hidden {
		ids[i] = f.ID
	}
	sort.Strings(ids)
	owner := make([]int, len(ids)) // planted index holding ids[j], or -1
	for j := range owner {
		owner[j] = -1
	}
	var claim func(i int, seen []bool) bool
	claim = func(i int, seen []bool) bool {
		for j, id := range ids {
			if seen[j] || !u.matches(id, planted[i]) {
				continue
			}
			seen[j] = true
			if owner[j] < 0 || claim(owner[j], seen) {
				owner[j] = i
				return true
			}
		}
		return false
	}
	for i, want := range planted {
		if !claim(i, make([]bool, len(ids))) {
			missing = append(missing, want)
		}
	}
	for j, id := range ids {
		if owner[j] < 0 {
			extra = append(extra, id)
		}
	}
	return missing, extra
}

// damaged reports whether any unit feeding r was lost or partial: a
// degraded unit, or skipped targets on either side. Claims of absence
// ("artifact X was not reported") are not trustworthy for such a report.
func damaged(r *core.Report) bool {
	return r.Degraded() || r.HighSkipped > 0 || r.LowSkipped > 0
}

// judgeUnit checks report r as unit i against the planted truth. Under
// fire (a contained fault plan armed), a damaged report is held only to
// innocence: a fault may hide an artifact, never invent one.
func judgeUnit(e Expectation, mode string, i int, r *core.Report, underFire bool) []Violation {
	u := units[i]
	missing, extra := u.pair(e, r)
	var out []Violation
	if underFire && damaged(r) {
		for _, id := range extra {
			out = append(out, Violation{InvInnocent, mode, "fault-induced false positive: " + printable(id)})
		}
		return out
	}
	for _, want := range missing {
		out = append(out, Violation{InvCoverage, mode, "hidden " + u.what + " not reported: " + printable(want)})
	}
	for _, id := range extra {
		out = append(out, Violation{InvInnocent, mode, "innocent " + u.what + " flagged: " + printable(id)})
	}
	if flagged := r.MassHiding != nil; u.massHiding && flagged != e.MassHiding {
		out = append(out, Violation{InvMassHiding, mode,
			fmt.Sprintf("anomaly flagged=%v with %d planted hidden files (threshold %d)",
				flagged, len(e.Files), core.DefaultMassHidingThreshold)})
	}
	return out
}

// judge checks a full seven-report sweep unit by unit.
func judge(e Expectation, mode string, reports []*core.Report, underFire bool) []Violation {
	if len(reports) != len(units) {
		return []Violation{{InvError, mode, fmt.Sprintf("%d reports, want %d", len(reports), len(units))}}
	}
	var out []Violation
	for i, r := range reports {
		out = append(out, judgeUnit(e, mode, i, r, underFire)...)
	}
	return out
}

// canonicalJSON renders reports for byte comparison; zeroElapsed strips
// the virtual scan times (cached runs are cheaper by design).
func canonicalJSON(reports []*core.Report, zeroElapsed bool) string {
	if zeroElapsed {
		stripped := make([]*core.Report, len(reports))
		for i, r := range reports {
			cp := *r
			cp.Elapsed = 0
			stripped[i] = &cp
		}
		reports = stripped
	}
	data, err := json.Marshal(reports)
	if err != nil {
		return "marshal error: " + err.Error()
	}
	return string(data)
}

// firstDiff summarizes where two canonical JSON strings diverge.
func firstDiff(want, got string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(i-30, 0)
	return fmt.Sprintf("at byte %d: want ...%s..., got ...%s...",
		i, want[lo:min(i+30, len(want))], got[lo:min(i+30, len(got))])
}

func printable(s string) string { return strings.ReplaceAll(s, "\x00", `\0`) }
