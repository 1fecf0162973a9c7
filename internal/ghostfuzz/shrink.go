package ghostfuzz

import "ghostbuster/internal/ghostware"

// shrink greedily minimizes a failing spec while the same failure (same
// invariant, same mode) persists: first drop whole atoms, then reduce
// surviving atoms' artifact counts to 1. Every candidate is rebuilt and
// re-judged from scratch, so the result is a spec that still reproduces
// the target violation on replay. Build errors during shrinking count
// as "not failing" — the shrinker never trades the target failure for a
// different one. A chaos spec's fault plan is the failure's environment,
// not its payload, so it is carried into every candidate unshrunk.
func shrink(spec CaseSpec, target Violation, judge func(CaseSpec) []Violation) CaseSpec {
	fails := func(s CaseSpec) bool {
		for _, v := range judge(s) {
			if sameFailure(v, target) {
				return true
			}
		}
		return false
	}

	cur := spec
	// Pass 1: remove atoms. Removing atom i renumbers later atoms'
	// artifact names, so each candidate is judged by a full re-run.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Atoms) && len(cur.Atoms) > 1; i++ {
			cand := CaseSpec{Seed: cur.Seed, Faults: cur.Faults}
			cand.Atoms = append(cand.Atoms, cur.Atoms[:i]...)
			cand.Atoms = append(cand.Atoms, cur.Atoms[i+1:]...)
			if fails(cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	// Pass 2: minimize artifact counts.
	for i := range cur.Atoms {
		if cur.Atoms[i].Count <= 1 {
			continue
		}
		cand := CaseSpec{Seed: cur.Seed, Faults: cur.Faults, Atoms: append([]ghostware.Atom(nil), cur.Atoms...)}
		cand.Atoms[i].Count = 1
		if fails(cand) {
			cur = cand
		}
	}
	return cur
}
