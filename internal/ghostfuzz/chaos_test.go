package ghostfuzz

import (
	"reflect"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/faultinject"
)

// TestChaosSuite is the headline property suite: seeded fault scenarios
// across every contained host row (lanes 1/2/8 and the warm-cache path)
// must (a) never panic or error out of a contained scan, (b) never
// induce a false positive, and (c) keep detecting every planted ghost
// whose scan units survived undamaged. 70 seeds × 4 rows = 280
// scenarios.
func TestChaosSuite(t *testing.T) {
	t.Parallel()
	seeds := 70
	if testing.Short() {
		seeds = 3
	}
	s, err := Run(Options{Seed: 99, N: seeds, Rows: "^faulted-", NoShrink: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Failures {
		t.Errorf("%s: %v", f.Spec, f.Violations)
	}
	scenarios := 0
	for _, row := range hostRows {
		if row.expect == contained {
			scenarios += s.Rows[row.name]
		}
	}
	if !testing.Short() && scenarios < 200 {
		t.Errorf("chaos suite ran %d scenarios, want >= 200", scenarios)
	}
}

// TestFaultedSpecRoundTrip: chaos specs round-trip through the one-line
// corpus form, fault plan included.
func TestFaultedSpecRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		spec := GenerateFaulted(CaseSeed(31, i))
		if len(spec.Faults) == 0 {
			t.Fatalf("GenerateFaulted(%d) produced no faults", CaseSeed(31, i))
		}
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

func TestGenerateFaultedDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		seed := CaseSeed(57, i)
		a, b := GenerateFaulted(seed), GenerateFaulted(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("GenerateFaulted(%d) differs across calls", seed)
		}
		if clean := Generate(seed); !reflect.DeepEqual(a.Atoms, clean.Atoms) {
			t.Fatalf("GenerateFaulted(%d) changed the ghostware half", seed)
		}
	}
}

func TestParseSpecRejectsBadFaults(t *testing.T) {
	for _, line := range []string{
		"ghostfuzz-v1 seed=1 atoms=ads/1/all faults=",
		"ghostfuzz-v1 seed=1 atoms=ads/1/all faults=hive:lag@1",    // hive has no lag
		"ghostfuzz-v1 seed=1 atoms=ads/1/all faults=api:mut@1",     // api has no mut
		"ghostfuzz-v1 seed=1 atoms=ads/1/all faults=disk:torn@0",   // after < 1
		"ghostfuzz-v1 seed=1 atoms=ads/1/all faults=disk:torn@1x0", // count < 1
		"ghostfuzz-v1 seed=1 atoms=ads/1/all faults=nonsense",
		"ghostfuzz-v1 seed=1 atoms=ads/1/all bogus=disk:torn@1",
		"ghostfuzz-v1 seed=1 atoms=ads/1/all faults=disk:torn@1 extra",
	} {
		if _, err := ParseSpec(line); err == nil {
			t.Errorf("ParseSpec accepted %q", line)
		}
	}
}

// TestEmptyFaultPlanByteIdentity: arming an empty plan — and arming a
// plan whose faults never reach their trigger offsets — must not change
// a single report byte relative to an uninstrumented machine. The fault
// layer's hooks have to be invisible until they fire.
func TestEmptyFaultPlanByteIdentity(t *testing.T) {
	spec := Generate(CaseSeed(17, 0))
	runWith := func(faults []faultinject.Fault, arm bool) string {
		c, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			inj, err := faultinject.New(c.M, faultinject.Plan{Seed: spec.Seed, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			inj.Arm()
		}
		d := core.NewDetector(c.M)
		d.Advanced = true
		d.Contain = true
		reports, err := d.ScanAll()
		if err != nil {
			t.Fatal(err)
		}
		return canonicalJSON(reports, false)
	}

	base := runWith(nil, false)
	if got := runWith(nil, true); got != base {
		t.Errorf("armed empty plan changed report bytes: %s", firstDiff(base, got))
	}
	unfired := []faultinject.Fault{
		{Source: faultinject.SourceDisk, Kind: faultinject.KindTorn, After: 1 << 20, Count: 1},
		{Source: faultinject.SourceHive, Kind: faultinject.KindErr, After: 1 << 20, Count: 1},
		{Source: faultinject.SourceKmem, Kind: faultinject.KindFlip, After: 1 << 30, Count: 1},
		{Source: faultinject.SourceAPI, Kind: faultinject.KindErr, After: 1 << 30, Count: 1},
	}
	if got := runWith(unfired, true); got != base {
		t.Errorf("armed never-firing plan changed report bytes: %s", firstDiff(base, got))
	}
}
