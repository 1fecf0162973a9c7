package faultinject

import (
	"reflect"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/machine"
)

func testMachine(t *testing.T) *machine.Machine {
	t.Helper()
	p := machine.DefaultProfile()
	p.DiskUsedGB = 1
	p.Churn = nil
	m, err := machine.New(p)
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return m
}

func armed(t *testing.T, m *machine.Machine, faults ...Fault) *Injector {
	t.Helper()
	inj, err := New(m, Plan{Seed: 1, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	return inj
}

func containedScan(t *testing.T, m *machine.Machine) []*core.Report {
	t.Helper()
	d := core.NewDetector(m)
	d.Advanced = true
	d.Contain = true
	reports, err := d.ScanAll()
	if err != nil {
		t.Fatalf("contained ScanAll: %v", err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(reports))
	}
	return reports
}

func degradedUnits(reports []*core.Report) []string {
	var out []string
	for _, r := range reports {
		for _, du := range r.DegradedUnits {
			out = append(out, du.Unit)
		}
	}
	return out
}

func assertNoFindings(t *testing.T, reports []*core.Report) {
	t.Helper()
	for _, r := range reports {
		if len(r.Hidden) != 0 || len(r.Phantom) != 0 {
			t.Errorf("%s: fault induced findings: hidden=%v phantom=%v", r.Kind, r.Hidden, r.Phantom)
		}
	}
}

func TestPlanGrammarRoundTrip(t *testing.T) {
	faults := []Fault{
		{SourceDisk, KindTorn, 1, 1},
		{SourceDisk, KindMut, 2, 1},
		{SourceHive, KindFlip, 3, 2},
		{SourceKmem, KindErr, 40, 5},
		{SourceAPI, KindLag, 7, 1},
	}
	line := FormatFaults(faults)
	back, err := ParseFaults(line)
	if err != nil {
		t.Fatalf("ParseFaults(%q): %v", line, err)
	}
	if !reflect.DeepEqual(faults, back) {
		t.Fatalf("round trip changed faults:\n in: %+v\nout: %+v", faults, back)
	}
	if line != "disk:torn@1;disk:mut@2;hive:flip@3x2;kmem:err@40x5;api:lag@7" {
		t.Errorf("unexpected grammar rendering: %q", line)
	}
}

func TestValidateEnforcesMatrix(t *testing.T) {
	for src, kinds := range allowedKinds {
		for kind := range kinds {
			if err := (Fault{src, kind, 1, 1}).Validate(); err != nil {
				t.Errorf("allowed %s:%s rejected: %v", src, kind, err)
			}
		}
	}
	for _, f := range []Fault{
		{SourceRemovable, KindMut, 1, 1},
		{SourceHive, KindMut, 1, 1},
		{SourceKmem, KindLag, 1, 1},
		{SourceAPI, KindTorn, 1, 1},
		{Source("tape"), KindErr, 1, 1},
		{SourceDisk, KindErr, 0, 1},
		{SourceDisk, KindErr, 1, 0},
	} {
		if err := f.Validate(); err == nil {
			t.Errorf("invalid fault %+v accepted", f)
		}
	}
}

func TestParseFaultsRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"disk", "disk:torn", "disk@1", ":torn@1", "disk:torn@",
		"disk:torn@x2", "disk:torn@1x", "disk:torn@1;;",
	} {
		if _, err := ParseFaults(s); err == nil {
			t.Errorf("ParseFaults accepted %q", s)
		}
	}
}

// TestDiskErrDegradesFilesLow: a failed raw device read must surface as
// a degraded files/low unit — never as findings — and leave the rest of
// the sweep intact.
func TestDiskErrDegradesFilesLow(t *testing.T) {
	m := testMachine(t)
	armed(t, m, Fault{SourceDisk, KindErr, 1, 1})
	reports := containedScan(t, m)
	if got := degradedUnits(reports); len(got) != 1 || got[0] != "files/low" {
		t.Fatalf("degraded units = %v, want [files/low]", got)
	}
	assertNoFindings(t, reports)
}

// TestHiveErrDegradesASEPLow: a corrupted hive snapshot fails the raw
// ASEP parse loudly.
func TestHiveErrDegradesASEPLow(t *testing.T) {
	m := testMachine(t)
	armed(t, m, Fault{SourceHive, KindErr, 1, 1})
	reports := containedScan(t, m)
	if got := degradedUnits(reports); len(got) != 1 || got[0] != "ASEPs/low" {
		t.Fatalf("degraded units = %v, want [ASEPs/low]", got)
	}
	assertNoFindings(t, reports)
}

// TestAPIErrDegradesFilesHigh: the first API access of a sweep is the
// high-level file walk; failing it degrades files/high only.
func TestAPIErrDegradesFilesHigh(t *testing.T) {
	m := testMachine(t)
	armed(t, m, Fault{SourceAPI, KindErr, 1, 1})
	reports := containedScan(t, m)
	if got := degradedUnits(reports); len(got) != 1 || got[0] != "files/high" {
		t.Fatalf("degraded units = %v, want [files/high]", got)
	}
	assertNoFindings(t, reports)
}

// TestKmemErrDegradesProcsLow: the first scanner-facing kernel-memory
// read belongs to the low-level process walk.
func TestKmemErrDegradesProcsLow(t *testing.T) {
	m := testMachine(t)
	armed(t, m, Fault{SourceKmem, KindErr, 1, 1})
	reports := containedScan(t, m)
	if got := degradedUnits(reports); len(got) != 1 || got[0] != "processes/low" {
		t.Fatalf("degraded units = %v, want [processes/low]", got)
	}
	assertNoFindings(t, reports)
}

// TestDiskMutDemotesFilesPair: a file dropped mid-scan moves the device
// generation, so the files comparison is demoted to a degraded pair
// instead of reporting the mutation race as a hidden file.
func TestDiskMutDemotesFilesPair(t *testing.T) {
	m := testMachine(t)
	armed(t, m, Fault{SourceDisk, KindMut, 1, 1})
	reports := containedScan(t, m)
	if got := degradedUnits(reports); len(got) != 1 || got[0] != "files/pair" {
		t.Fatalf("degraded units = %v, want [files/pair]", got)
	}
	assertNoFindings(t, reports)
}

// TestAPILagChargesVirtualTime: a latency spike slows the scan by the
// spike, it does not fail anything.
func TestAPILagChargesVirtualTime(t *testing.T) {
	base := testMachine(t)
	start := base.Clock.Now()
	containedScan(t, base)
	cleanElapsed := base.Clock.Now() - start

	m := testMachine(t)
	armed(t, m, Fault{SourceAPI, KindLag, 1, 1})
	start = m.Clock.Now()
	reports := containedScan(t, m)
	laggedElapsed := m.Clock.Now() - start
	if got := degradedUnits(reports); len(got) != 0 {
		t.Fatalf("lag degraded units %v", got)
	}
	if laggedElapsed < cleanElapsed+lagSpike {
		t.Errorf("lagged sweep took %v, want >= clean %v + spike %v", laggedElapsed, cleanElapsed, lagSpike)
	}
}

// TestFireLogDeterministic: the same plan against the same machine
// build fires the same faults in the same order, and Reset replays them.
func TestFireLogDeterministic(t *testing.T) {
	run := func() ([]string, []string) {
		m := testMachine(t)
		inj := armed(t, m,
			Fault{SourceAPI, KindErr, 3, 2}, Fault{SourceKmem, KindErr, 10, 1})
		containedScan(t, m)
		first := inj.Fired()
		inj.Reset()
		containedScan(t, m)
		return first, inj.Fired()
	}
	a1, a2 := run()
	b1, b2 := run()
	if len(a1) == 0 {
		t.Fatal("plan never fired")
	}
	if !reflect.DeepEqual(a1, b1) {
		t.Errorf("fire log differs across identical runs:\n%v\n%v", a1, b1)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Errorf("fire log differs after Reset:\n%v\n%v", a1, a2)
	}
	if !reflect.DeepEqual(a2, b2) {
		t.Errorf("post-reset fire log differs across runs:\n%v\n%v", a2, b2)
	}
}

func TestExhaustedAndEpoch(t *testing.T) {
	m := testMachine(t)
	inj := armed(t, m, Fault{SourceAPI, KindErr, 1, 2})
	if inj.Exhausted() {
		t.Fatal("fresh injector reports exhausted")
	}
	if inj.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", inj.Epoch())
	}
	containedScan(t, m)
	if !inj.Exhausted() {
		t.Fatalf("plan not exhausted after scan; fired: %v", inj.Fired())
	}
	if inj.Epoch() != 2 {
		t.Errorf("epoch = %d after 2 fires", inj.Epoch())
	}
	// Exhausted layer is transparent: a further scan is clean.
	reports := containedScan(t, m)
	if got := degradedUnits(reports); len(got) != 0 {
		t.Errorf("exhausted injector still degrades: %v", got)
	}
}

func TestDisarmRestoresCleanScans(t *testing.T) {
	m := testMachine(t)
	inj := armed(t, m,
		Fault{SourceDisk, KindFlip, 1, 1}, Fault{SourceHive, KindTorn, 1, 1})
	reports := containedScan(t, m)
	if len(degradedUnits(reports)) == 0 {
		t.Fatalf("plan did not degrade anything; fired: %v", inj.Fired())
	}
	inj.Disarm()
	reports = containedScan(t, m)
	if got := degradedUnits(reports); len(got) != 0 {
		t.Errorf("disarmed machine still degraded: %v", got)
	}
	assertNoFindings(t, reports)
	// Uncontained sweeps must also pass: no permanent damage.
	d := core.NewDetector(m)
	d.Advanced = true
	if _, err := d.ScanAll(); err != nil {
		t.Errorf("strict ScanAll after disarm: %v", err)
	}
}

// TestArmWithoutFiringIsFreeOfCharge: hooks that never fire must not
// consume virtual time.
func TestArmWithoutFiringIsFreeOfCharge(t *testing.T) {
	base := testMachine(t)
	start := base.Clock.Now()
	containedScan(t, base)
	cleanElapsed := base.Clock.Now() - start

	m := testMachine(t)
	armed(t, m, Fault{SourceAPI, KindErr, 1 << 30, 1})
	start = m.Clock.Now()
	containedScan(t, m)
	if got := m.Clock.Now() - start; got != cleanElapsed {
		t.Errorf("armed-but-idle sweep charged %v, clean sweep %v", got, cleanElapsed)
	}
}

// TestKmemErrOnCidWalkIsDeterministic: a kmem error plan fails the same
// read of a CID walk, with byte-identical error text, on every run. The
// table scan (two reads per slot of the 4096-slot table, plus one owner
// read per thread) is in slot order by construction; this sweeps K over
// the tail of the walk, where the live processes' objects are read.
func TestKmemErrOnCidWalkIsDeterministic(t *testing.T) {
	m := testMachine(t)
	inj := armed(t, m, Fault{Source: SourceKmem, Kind: KindErr, After: 1 << 30, Count: 1})
	if _, err := core.TruthPids(m); err != nil {
		t.Fatal(err)
	}
	total := inj.counts[SourceKmem]
	inj.Disarm()
	if total <= 8192 {
		t.Fatalf("a CID walk made %d scan reads, want more than the table scan's 8192", total)
	}
	for k := 8190; k <= total; k++ {
		inj := armed(t, m, Fault{Source: SourceKmem, Kind: KindErr, After: k, Count: 1})
		var first string
		for run := 0; run < 20; run++ {
			inj.Reset()
			_, err := core.TruthPids(m)
			if err == nil {
				t.Fatalf("K=%d run %d: walk of %d reads did not fail", k, run, total)
			}
			if run == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("K=%d run %d: error %q, first run %q", k, run, err, first)
			}
		}
		inj.Disarm()
	}
}
