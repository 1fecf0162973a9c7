package ghostfuzz

import (
	"math/rand"

	"ghostbuster/internal/faultinject"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/winapi"
)

// CaseSeed derives the seed for case index i of a run from the run's
// base seed (splitmix64-style mixing, so adjacent indices land far
// apart in seed space).
func CaseSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

var hookLevels = []winapi.Level{
	winapi.LevelIAT, winapi.LevelUserCode, winapi.LevelNtdll,
	winapi.LevelSSDT, winapi.LevelFilter,
}

// atomKinds is the random-composition lattice. AtomEvasive is
// deliberately absent: evasive specs need the order-sensitive
// sequential rows and enter only via the corpus.
var atomKinds = []ghostware.AtomKind{
	ghostware.AtomFileHide, ghostware.AtomWin32Name, ghostware.AtomADS,
	ghostware.AtomRegHide, ghostware.AtomRegNul, ghostware.AtomProcHide,
	ghostware.AtomProcDKOM, ghostware.AtomModHide, ghostware.AtomDecoy,
	ghostware.AtomMemOnly, ghostware.AtomBootkit, ghostware.AtomUSBHide,
}

// Generate composes a random adversary for the given case seed: 1–4
// atoms drawn from the full technique lattice, hooked atoms at a random
// interception level and occasionally §5-scoped, the decoy atom with a
// count that sometimes crosses the mass-hiding threshold. The result is
// a pure function of seed.
func Generate(seed int64) CaseSpec {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(4)
	spec := CaseSpec{Seed: seed}
	for i := 0; i < n; i++ {
		kind := atomKinds[rng.Intn(len(atomKinds))]
		a := ghostware.Atom{Kind: kind}
		switch kind {
		case ghostware.AtomFileHide, ghostware.AtomWin32Name:
			a.Count = 1 + rng.Intn(3)
		case ghostware.AtomADS, ghostware.AtomRegNul, ghostware.AtomModHide:
			a.Count = 1 + rng.Intn(2)
		case ghostware.AtomRegHide:
			a.Count = 1 + rng.Intn(4)
		case ghostware.AtomProcHide:
			a.Count = 1 + rng.Intn(2)
		case ghostware.AtomProcDKOM:
			a.Count = 1
		case ghostware.AtomMemOnly:
			a.Count = 1 + rng.Intn(2)
		case ghostware.AtomBootkit:
			a.Count = 1
		case ghostware.AtomUSBHide:
			a.Count = 1 + rng.Intn(3)
		case ghostware.AtomDecoy:
			// 5–124 innocents: above ~95 the atom alone (innocents + dir
			// + payload) crosses the default mass-hiding threshold, so
			// both sides of that anomaly check get exercised.
			a.Count = 5 + rng.Intn(120)
		}
		if kind.Hooked() {
			a.Level = hookLevels[rng.Intn(len(hookLevels))]
			switch rng.Intn(10) {
			case 0:
				a.Scope = ghostware.ScopeUtilities
			case 1:
				a.Scope = ghostware.ScopeExcept
				a.ExemptName = "inocit.exe"
			}
		}
		spec.Atoms = append(spec.Atoms, a)
	}
	return spec
}

// faultMenu spans the allowed source/kind matrix. maxAfter scales the
// access offset to each source's traffic in one inside sweep: the raw
// disk is read once, hives a few times, kernel memory and the API chain
// hundreds of times.
var faultMenu = []struct {
	src      faultinject.Source
	kind     faultinject.Kind
	maxAfter int
}{
	{faultinject.SourceDisk, faultinject.KindErr, 2},
	{faultinject.SourceDisk, faultinject.KindTorn, 2},
	{faultinject.SourceDisk, faultinject.KindFlip, 2},
	{faultinject.SourceDisk, faultinject.KindMut, 2},
	{faultinject.SourceHive, faultinject.KindErr, 4},
	{faultinject.SourceHive, faultinject.KindTorn, 4},
	{faultinject.SourceHive, faultinject.KindFlip, 4},
	{faultinject.SourceKmem, faultinject.KindErr, 300},
	{faultinject.SourceKmem, faultinject.KindTorn, 300},
	{faultinject.SourceKmem, faultinject.KindFlip, 300},
	{faultinject.SourceAPI, faultinject.KindErr, 40},
	{faultinject.SourceAPI, faultinject.KindLag, 40},
	{faultinject.SourceRemovable, faultinject.KindErr, 2},
	{faultinject.SourceRemovable, faultinject.KindTorn, 2},
	{faultinject.SourceRemovable, faultinject.KindFlip, 2},
}

// GenerateFaulted composes the same adversary Generate would for this
// seed and layers a seeded fault plan (1–3 faults across the allowed
// matrix) on top, so a chaos case differs from its clean twin only by
// the plan. Pure function of seed.
func GenerateFaulted(seed int64) CaseSpec {
	spec := Generate(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5fa17))
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		pick := faultMenu[rng.Intn(len(faultMenu))]
		spec.Faults = append(spec.Faults, faultinject.Fault{
			Source: pick.src,
			Kind:   pick.kind,
			After:  1 + rng.Intn(pick.maxAfter),
			Count:  1 + rng.Intn(2),
		})
	}
	return spec
}
