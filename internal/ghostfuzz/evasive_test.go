package ghostfuzz

import (
	"strings"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/crosstime"
	"ghostbuster/internal/faultinject"
)

// procFindings counts how many of the names appear as hidden findings
// in the report (IDs end with ": NAME" uppercased).
func procFindings(r *core.Report, names []string) int {
	n := 0
	for _, f := range r.Hidden {
		for _, name := range names {
			if strings.HasSuffix(f.ID, ": "+strings.ToUpper(name)) {
				n++
			}
		}
	}
	return n
}

// TestEvasiveDifferentialOracle is the adaptive-evasion regression: a
// scan-detecting adversary that un-hides when it sees the fixed-order
// sweep's opening file walk must be MISSED by the paper's fixed unit
// order and CAUGHT by both of its counters — randomized scan-unit
// ordering and the cross-time diff.
func TestEvasiveDifferentialOracle(t *testing.T) {
	spec, err := ParseSpec("ghostfuzz-v1 seed=70 atoms=evasive@ssdt/2/all")
	if err != nil {
		t.Fatal(err)
	}

	// Fixed order: files walk first, the watcher trips, and by the time
	// the process pair runs both views agree — a clean miss.
	c, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Expect.Evasive) != 2 {
		t.Fatalf("expected 2 evasive processes, got %v", c.Expect.Evasive)
	}
	naive := core.NewDetector(c.M)
	naive.Advanced = true
	naive.Units = allUnits
	reports, err := naive.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if n := procFindings(reports[2], c.Expect.Evasive); n != 0 {
		t.Errorf("fixed-order sweep caught %d evasive processes; the adversary should have un-hidden in time", n)
	}

	// Counter 1, same machine: the cross-time diff against the
	// pre-infection checkpoint names the payload images no matter what
	// the hooks say at scan time.
	after, err := crosstime.TakeCheckpoint(c.M)
	if err != nil {
		t.Fatal(err)
	}
	diff := crosstime.Compare(c.Baseline, after)
	for _, name := range c.Expect.Evasive {
		if len(diff.PathsMatching(name)) == 0 {
			t.Errorf("cross-time diff missed evasive payload %s", name)
		}
	}

	// Counter 2, fresh machine (the first build's watcher stays tripped
	// for the whole evasion window): a randomized order that draws the
	// process pair before any file walk catches the still-hiding payload.
	c2, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ordered := core.NewDetector(c2.M)
	ordered.Advanced = true
	ordered.Units = allUnits
	ordered.OrderSeed = evasiveSeed(fullUnitCount)
	reports2, err := ordered.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if n := procFindings(reports2[2], c2.Expect.Evasive); n != len(c2.Expect.Evasive) {
		t.Errorf("randomized order caught %d of %d evasive processes", n, len(c2.Expect.Evasive))
	}

	// The evasive host rows agree end to end.
	for _, v := range runSpec(spec, nil) {
		t.Errorf("evasive rows: %s", v)
	}
}

// TestEvasiveSeedOrdersProcsFirst pins the seed-picker's contract.
func TestEvasiveSeedOrdersProcsFirst(t *testing.T) {
	seed := evasiveSeed(fullUnitCount)
	procAt, fileAt := -1, -1
	for at, u := range core.ScanOrder(seed, fullUnitCount) {
		switch u {
		case unitProcHigh:
			procAt = at
		case unitFileHigh:
			fileAt = at
		}
	}
	if procAt < 0 || fileAt < 0 || procAt >= fileAt {
		t.Fatalf("evasiveSeed(%d)=%d orders proc high at %d, file high at %d", fullUnitCount, seed, procAt, fileAt)
	}
}

// TestNextGenNaiveMissCounterCatch: each next-generation family must
// evade the configuration that lacks its counter and be caught by the
// sweep that has it — memory-only by the kmem carve pair, the bootkit
// by the boot-chain pair, removable hiding by the raw-stick pair.
func TestNextGenNaiveMissCounterCatch(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		without core.UnitSet // naive sweep: counter disabled
		report  int          // report index of the counter's pair
		planted func(*Case) []string
		match   func(id, want string) bool
	}{
		{
			name:    "memonly",
			spec:    "ghostfuzz-v1 seed=73 atoms=memonly/2/all",
			without: core.UnitBootChain | core.UnitRemovable,
			report:  4,
			planted: func(c *Case) []string { return c.Expect.MemOnly },
			match: func(id, want string) bool {
				return strings.HasSuffix(id, ": "+strings.ToUpper(want))
			},
		},
		{
			name:    "bootkit",
			spec:    "ghostfuzz-v1 seed=76 atoms=bootkit@filter/1/all",
			without: core.UnitCrossMem | core.UnitRemovable,
			report:  5,
			planted: func(c *Case) []string { return c.Expect.Boot },
			match: func(id, want string) bool {
				return strings.HasPrefix(id, want+":")
			},
		},
		{
			name:    "usbhide",
			spec:    "ghostfuzz-v1 seed=79 atoms=usbhide@filter/2/all",
			without: core.UnitCrossMem | core.UnitBootChain,
			report:  6,
			planted: func(c *Case) []string { return c.Expect.USB },
			match:   func(id, want string) bool { return id == want },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			planted := tc.planted(c)
			if len(planted) == 0 {
				t.Fatal("spec planted nothing for this family")
			}

			// Naive sweep: the family's counter unit disabled. Nothing in
			// any report may match the planted artifacts.
			naive := core.NewDetector(c.M)
			naive.Advanced = true
			naive.Units = tc.without
			naiveReports, err := naive.ScanAll()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range naiveReports {
				for _, f := range r.Hidden {
					for _, want := range planted {
						if tc.match(f.ID, want) {
							t.Errorf("naive sweep (units %b) caught %s in %q", tc.without, want, f.ID)
						}
					}
				}
			}

			// Counter sweep: full units. Every planted artifact surfaces in
			// the counter pair's report.
			full := core.NewDetector(c.M)
			full.Advanced = true
			full.Units = allUnits
			reports, err := full.ScanAll()
			if err != nil {
				t.Fatal(err)
			}
			r := reports[tc.report]
			for _, want := range planted {
				found := false
				for _, f := range r.Hidden {
					if tc.match(f.ID, want) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("counter sweep missed %s (report %d hidden: %v)", want, tc.report, r.Hidden)
				}
			}
		})
	}
}

// TestChaosBootRemovableLoudNeverSilent: fault plans over the
// boot-chain and removable readers must always be loud. A contained
// sweep under fire never errors, and a planted boot or removable
// artifact is either reported or its pair is visibly damaged — torn
// media and flipped bits can suppress a finding, but never silently.
func TestChaosBootRemovableLoudNeverSilent(t *testing.T) {
	spec, err := ParseSpec("ghostfuzz-v1 seed=91 atoms=bootkit@filter/1/all;usbhide@ssdt/2/all")
	if err != nil {
		t.Fatal(err)
	}
	plans := [][]faultinject.Fault{
		{{Source: faultinject.SourceDisk, Kind: faultinject.KindErr, After: 1, Count: 1}},
		{{Source: faultinject.SourceDisk, Kind: faultinject.KindErr, After: 1, Count: 4}},
		{{Source: faultinject.SourceRemovable, Kind: faultinject.KindErr, After: 1, Count: 1}},
		{{Source: faultinject.SourceRemovable, Kind: faultinject.KindTorn, After: 1, Count: 1}},
		{{Source: faultinject.SourceRemovable, Kind: faultinject.KindFlip, After: 1, Count: 1}},
		{
			{Source: faultinject.SourceDisk, Kind: faultinject.KindErr, After: 1, Count: 2},
			{Source: faultinject.SourceRemovable, Kind: faultinject.KindErr, After: 1, Count: 1},
		},
	}
	for _, faults := range plans {
		name := faultinject.FormatFaults(faults)
		c, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := faultinject.New(c.M, faultinject.Plan{Seed: spec.Seed, Faults: faults})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inj.Arm()
		d := core.NewDetector(c.M)
		d.Advanced = true
		d.Units = allUnits
		d.Contain = true
		reports, err := d.ScanAll()
		if err != nil {
			t.Fatalf("%s: contained sweep errored: %v", name, err)
		}
		if len(reports) != 7 {
			t.Fatalf("%s: %d reports, want 7", name, len(reports))
		}
		boot, rem := reports[5], reports[6]
		for _, region := range c.Expect.Boot {
			found := false
			for _, f := range boot.Hidden {
				if strings.HasPrefix(f.ID, region+":") {
					found = true
					break
				}
			}
			if !found && !damaged(boot) {
				t.Errorf("%s: boot region %s silently missed (report undamaged)", name, region)
			}
		}
		for _, want := range c.Expect.USB {
			found := false
			for _, f := range rem.Hidden {
				if f.ID == want {
					found = true
					break
				}
			}
			if !found && !damaged(rem) {
				t.Errorf("%s: removable payload %s silently missed (report undamaged)", name, want)
			}
		}
		// No fault fabricates a finding on either pair.
		for _, idx := range []int{5, 6} {
			_, extra := units[idx].pair(c.Expect, reports[idx])
			for _, id := range extra {
				t.Errorf("%s: fault-induced false positive in report %d: %s", name, idx, id)
			}
		}
	}
}
