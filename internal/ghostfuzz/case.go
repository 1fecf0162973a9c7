package ghostfuzz

import (
	"fmt"
	"slices"
	"strings"

	"ghostbuster/internal/core"
	"ghostbuster/internal/crosstime"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/workload"
)

// Expectation is the ground truth the oracle checks reports against:
// exactly these artifacts, and nothing else, must surface as hidden.
type Expectation struct {
	// Files holds exact uppercase finding IDs (full paths; ADS entries
	// as PATH:STREAM).
	Files []string
	// ASEPs holds ground-truth hook specs, "KEY" or "KEY|VALUE",
	// matched the way the ghostware table tests match them.
	ASEPs []string
	// Procs holds hidden process image names (finding IDs end with
	// ": NAME" uppercased).
	Procs []string
	// Mods holds uppercase DLL base names (finding IDs contain them).
	Mods []string
	// MassHiding is whether file reports must flag the §5 anomaly.
	MassHiding bool
	// Evasive holds adaptive-evasion process image names. They stay
	// hidden only until the ghostware's scan watcher trips, so every
	// fixed-order row must miss them while the ordered and cross-time
	// rows must catch them.
	Evasive []string
	// MemOnly holds memory-only process image names, visible only to
	// the kernel-vs-pool-carve cross-view unit (report index 4).
	MemOnly []string
	// Boot holds tampered boot-sector region names ("CODE"), sorted and
	// deduplicated — several bootkit atoms patch the same region, which
	// surfaces once; boot-chain finding IDs are "NAME:STATUS" (report
	// index 5).
	Boot []string
	// USB holds exact uppercase finding IDs of hidden removable-volume
	// payloads — full E:\ paths (report index 6).
	USB []string
}

// Case is one built fuzz case: a populated machine infected with the
// spec's composite ghostware, plus what the detectors must find.
type Case struct {
	Spec   CaseSpec
	M      *machine.Machine
	G      *ghostware.Composite
	Expect Expectation
	// Baseline is a pre-infection cross-time checkpoint, taken only for
	// specs with evasive atoms: the cross-time counter needs a before
	// image that predates the payload drop.
	Baseline *crosstime.Checkpoint
}

// Build realizes a spec: derive the machine profile from the seed,
// populate it, install the composed ghostware, run a little live churn,
// and precompute the expectation. Deterministic for a given spec.
func Build(spec CaseSpec) (*Case, error) {
	m, err := workload.NewPaperMachine(workload.FuzzProfile(spec.Seed))
	if err != nil {
		return nil, fmt.Errorf("ghostfuzz: building machine: %w", err)
	}
	var baseline *crosstime.Checkpoint
	if hasEvasive(spec.Atoms) {
		baseline, err = crosstime.TakeCheckpoint(m)
		if err != nil {
			return nil, fmt.Errorf("ghostfuzz: baseline checkpoint: %w", err)
		}
	}
	g := composite(spec)
	if err := g.Install(m); err != nil {
		return nil, fmt.Errorf("ghostfuzz: installing %s: %w", spec, err)
	}
	// A few minutes of live service churn between infection and scan,
	// as on a real in-service host.
	if err := m.RunChurn(5); err != nil {
		return nil, fmt.Errorf("ghostfuzz: churn: %w", err)
	}
	return &Case{Spec: spec, M: m, G: g, Expect: expectationFor(g), Baseline: baseline}, nil
}

// composite assembles the spec's ghostware. Its ground truth is fixed
// here, before any machine exists.
func composite(spec CaseSpec) *ghostware.Composite {
	return ghostware.NewComposite(fmt.Sprintf("s%d", uint64(spec.Seed)%100000), spec.Atoms)
}

func expectationFor(g *ghostware.Composite) Expectation {
	var e Expectation
	for _, f := range g.HiddenFiles() {
		e.Files = append(e.Files, strings.ToUpper(f))
	}
	e.ASEPs = g.HiddenASEPs()
	e.Procs = g.HiddenProcs()
	e.Mods = g.HiddenModules()
	e.MassHiding = len(e.Files) > core.DefaultMassHidingThreshold
	e.Evasive = g.EvasiveProcs()
	e.MemOnly = g.MemOnlyProcs()
	e.Boot = g.BootRegions()
	slices.Sort(e.Boot)
	e.Boot = slices.Compact(e.Boot)
	for _, f := range g.RemovableFiles() {
		e.USB = append(e.USB, strings.ToUpper(f))
	}
	return e
}

// HiddenTotal is the non-noise hidden finding count a paper-order
// (four-report) inside sweep must report: one finding per planted
// artifact on the four paper surfaces. Next-gen artifacts (memory-only,
// boot, removable) are excluded by construction — they produce zero
// findings without their dedicated scan units, which is exactly what
// fleet sweeps run.
func (e Expectation) HiddenTotal() int {
	return len(e.Files) + len(e.ASEPs) + len(e.Procs) + len(e.Mods)
}
