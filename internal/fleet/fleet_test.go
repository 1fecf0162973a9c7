package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/machine"
)

func buildFleet(t *testing.T, n int, infect map[int]ghostware.Ghostware) *Manager {
	t.Helper()
	mgr := NewManager()
	for i := 0; i < n; i++ {
		p := machine.DefaultProfile()
		p.DiskUsedGB = 1
		p.Churn = nil
		p.Seed = int64(i + 1)
		m, err := machine.New(p)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := infect[i]; ok {
			if err := g.Install(m); err != nil {
				t.Fatal(err)
			}
		}
		mgr.Add(hostName(i), m)
	}
	return mgr
}

func hostName(i int) string { return "host-" + string(rune('a'+i)) }

// sweep runs one plan with a Collector attached (alongside any sink the
// plan already carries) and returns the sealed report and summary.
func sweep(t testing.TB, mgr *Manager, p Plan) (*Report, *SweepSummary) {
	t.Helper()
	col := NewCollector(mgr)
	inner := p.Sink
	p.Sink = func(res HostResult) {
		col.Add(res)
		if inner != nil {
			inner(res)
		}
	}
	sum, err := mgr.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return col.Report(sum), sum
}

// insideSweep runs a one-worker unjournaled inside sweep and returns
// the results in host order.
func insideSweep(t testing.TB, mgr *Manager) []HostResult {
	t.Helper()
	rep, _ := sweep(t, mgr, Plan{Workers: 1})
	return rep.Results
}

// hostErrors lists every failed host result as "host: error".
func hostErrors(results []HostResult) []string {
	var out []string
	for _, r := range results {
		if r.Err != "" {
			out = append(out, r.Host+": "+r.Err)
		}
	}
	return out
}

func TestInsideSweepClassifiesFleet(t *testing.T) {
	mgr := buildFleet(t, 4, map[int]ghostware.Ghostware{
		1: ghostware.NewHackerDefender(),
		3: ghostware.NewUrbin(),
	})
	rep, _ := sweep(t, mgr, Plan{Workers: 1})
	results := rep.Results
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if errs := hostErrors(results); len(errs) != 0 {
		t.Fatalf("errors = %v", errs)
	}
	want := map[string]bool{hostName(1): true, hostName(3): true}
	if len(rep.Infected()) != 2 {
		t.Fatalf("infected = %v", rep.Infected())
	}
	for _, h := range rep.Infected() {
		if !want[h] {
			t.Errorf("false positive host %s", h)
		}
	}
	for _, r := range results {
		if r.Elapsed <= 0 {
			t.Errorf("host %s consumed no virtual time", r.Host)
		}
	}
}

func TestOutsideSweepRebootsHostsBack(t *testing.T) {
	mgr := buildFleet(t, 2, map[int]ghostware.Ghostware{0: ghostware.NewVanquish()})
	rep, _ := sweep(t, mgr, Plan{Kind: SweepOutside, Workers: 1})
	if got := rep.Infected(); len(got) != 1 || got[0] != hostName(0) {
		t.Fatalf("infected = %v", got)
	}
	// Every host is back in service after the netboot scan.
	for i := 0; i < 2; i++ {
		m := mgrHost(t, mgr, hostName(i))
		if _, err := m.Pid("explorer.exe"); err != nil {
			t.Errorf("%s not rebooted: %v", hostName(i), err)
		}
	}
}

func mgrHost(t *testing.T, mgr *Manager, name string) *machine.Machine {
	t.Helper()
	for _, h := range mgr.hosts {
		if h.Name == name {
			return h.M
		}
	}
	t.Fatalf("no host %s", name)
	return nil
}

// TestMarshalResultsIsValidJSON: the results the management console
// renders round-trip through JSON with their verdicts intact.
func TestMarshalResultsIsValidJSON(t *testing.T) {
	mgr := buildFleet(t, 2, map[int]ghostware.Ghostware{1: ghostware.NewBerbew()})
	data, err := json.MarshalIndent(insideSweep(t, mgr), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back []HostResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back) != 2 {
		t.Errorf("round trip lost hosts: %d", len(back))
	}
	if !strings.Contains(string(data), `"infected": true`) {
		t.Error("JSON missing infection flag")
	}
}

// TestParallelSweepMatchesSequential: the fan-out must produce exactly
// the sequential results (machines are independent; determinism holds)
// at every scheduler bound the acceptance matrix names.
func TestParallelSweepMatchesSequential(t *testing.T) {
	build := func() *Manager {
		return buildFleet(t, 5, map[int]ghostware.Ghostware{
			1: ghostware.NewHackerDefender(),
			4: ghostware.NewVanquish(),
		})
	}
	seq := insideSweep(t, build())
	for _, workers := range []int{1, 4, 64} {
		par, _ := sweep(t, build(), Plan{Workers: workers})
		if len(seq) != len(par.Results) {
			t.Fatalf("workers=%d: result counts differ: %d vs %d", workers, len(seq), len(par.Results))
		}
		for i, p := range par.Results {
			if seq[i].Host != p.Host || seq[i].Infected != p.Infected || seq[i].Hidden != p.Hidden {
				t.Errorf("workers=%d host %s: seq {inf %v hid %d} vs par {inf %v hid %d}",
					workers, seq[i].Host, seq[i].Infected, seq[i].Hidden, p.Infected, p.Hidden)
			}
		}
	}
}

// tinyFleet builds n minimal hosts cheaply (small format headroom, no
// population) for scheduler-focused tests.
func tinyFleet(t testing.TB, n int) *Manager {
	t.Helper()
	mgr := NewManager()
	for i := 0; i < n; i++ {
		p := machine.DefaultProfile()
		p.DiskUsedGB = 0.05
		p.Churn = nil
		p.Seed = int64(i + 1)
		p.MFTHeadroom = 64
		p.ClusterHeadroom = 64
		m, err := machine.New(p)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Add(fmt.Sprintf("host-%03d", i), m)
	}
	return mgr
}

// TestSchedulerBoundsConcurrency: at parallelism k, no more than k host
// scans may ever be in flight, regardless of fleet size.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	mgr := tinyFleet(t, 16)
	const workers = 3
	var inFlight, peak int32
	mgr.ScanHost = func(h *Host, kind SweepKind) HostResult {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			old := atomic.LoadInt32(&peak)
			if cur <= old || atomic.CompareAndSwapInt32(&peak, old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
		return HostResult{Host: h.Name, Kind: kind}
	}
	sweep(t, mgr, Plan{Workers: workers})
	if p := atomic.LoadInt32(&peak); p > workers {
		t.Fatalf("concurrency peaked at %d, bound is %d", p, workers)
	}
	if p := atomic.LoadInt32(&peak); p == 0 {
		t.Fatal("no scan ever ran")
	}
}

// TestSchedulerCapturesPanics: one exploding host must not take down the
// sweep; it becomes that host's error result.
func TestSchedulerCapturesPanics(t *testing.T) {
	mgr := tinyFleet(t, 4)
	n := 0
	var failed string
	mgr.ScanHost = func(h *Host, kind SweepKind) HostResult {
		if h.Name == "host-002" {
			panic("disk on fire")
		}
		return HostResult{Host: h.Name, Kind: kind}
	}
	sweep(t, mgr, Plan{Workers: 2, Sink: func(r HostResult) {
		n++
		if r.Err != "" {
			failed = r.Host + ": " + r.Err
		}
	}})
	if n != 4 {
		t.Fatalf("sweep lost results: %d of 4", n)
	}
	if !strings.Contains(failed, "host-002") || !strings.Contains(failed, "disk on fire") {
		t.Fatalf("panic not captured per-host: %q", failed)
	}
}

// TestSweepStreamDeliversAllHosts: the sink sees every host exactly
// once, as it commits.
func TestSweepStreamDeliversAllHosts(t *testing.T) {
	mgr := buildFleet(t, 3, map[int]ghostware.Ghostware{2: ghostware.NewVanquish()})
	seen := map[string]int{}
	infected := 0
	sum, err := mgr.Run(context.Background(), Plan{Workers: 4, Sink: func(r HostResult) {
		seen[r.Host]++
		if r.Infected {
			infected++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Infected != infected {
		t.Errorf("summary infected %d, sink saw %d", sum.Infected, infected)
	}
	if len(seen) != 3 {
		t.Fatalf("stream delivered %d hosts, want 3", len(seen))
	}
	for h, n := range seen {
		if n != 1 {
			t.Errorf("host %s delivered %d times", h, n)
		}
	}
	if infected != 1 {
		t.Errorf("infected = %d, want 1", infected)
	}
}

// TestWarmSweepCostsLessVirtualTime: the second inside sweep of an
// unchanged fleet replaces the MFT and hive reparses with verify
// passes. The high-level API scans still re-run at full (dominant,
// seek-bound) virtual cost — the cache must charge strictly less, never
// more, and the verdicts must not drift.
func TestWarmSweepCostsLessVirtualTime(t *testing.T) {
	mgr := buildFleet(t, 3, map[int]ghostware.Ghostware{1: ghostware.NewHackerDefender()})
	cold := insideSweep(t, mgr)
	warm := insideSweep(t, mgr)
	for i := range cold {
		if warm[i].Infected != cold[i].Infected || warm[i].Hidden != cold[i].Hidden {
			t.Errorf("host %s verdict drifted between sweeps", cold[i].Host)
		}
		if warm[i].Elapsed >= cold[i].Elapsed {
			t.Errorf("host %s: warm sweep %v vs cold %v — cache not engaged",
				cold[i].Host, warm[i].Elapsed, cold[i].Elapsed)
		}
	}
}

// TestEmptyFleetSweeps: scheduling over zero hosts terminates cleanly.
func TestEmptyFleetSweeps(t *testing.T) {
	mgr := NewManager()
	for _, kind := range []SweepKind{SweepInside, SweepOutside} {
		rep, sum := sweep(t, mgr, Plan{Kind: kind})
		if len(rep.Results) != 0 || sum.Hosts != 0 || sum.Scanned != 0 {
			t.Fatalf("%s: results = %v, summary = %+v", kind, rep.Results, sum)
		}
	}
}

// TestParallelOutsideSweepMatchesSequential: the outside flow goes
// through the same scheduler.
func TestParallelOutsideSweepMatchesSequential(t *testing.T) {
	build := func() *Manager {
		return buildFleet(t, 3, map[int]ghostware.Ghostware{0: ghostware.NewVanquish()})
	}
	seqRep, _ := sweep(t, build(), Plan{Kind: SweepOutside, Workers: 1})
	parRep, _ := sweep(t, build(), Plan{Kind: SweepOutside, Workers: 4})
	seq, par := seqRep.Results, parRep.Results
	for i := range seq {
		if seq[i].Host != par[i].Host || seq[i].Infected != par[i].Infected {
			t.Errorf("host %s: seq inf=%v vs par inf=%v", seq[i].Host, seq[i].Infected, par[i].Infected)
		}
		if par[i].Kind != SweepOutside {
			t.Errorf("host %s: kind = %q", par[i].Host, par[i].Kind)
		}
	}
}

// TestHostParallelismSweepMatchesSequential pins the intra-host fan-out
// plumbing: a sweep with HostParallelism set must classify the fleet
// exactly like the per-host sequential sweep.
func TestHostParallelismSweepMatchesSequential(t *testing.T) {
	infections := map[int]ghostware.Ghostware{1: ghostware.NewHackerDefender()}
	want, _ := sweep(t, buildFleet(t, 3, infections), Plan{Workers: 1})

	mgr := buildFleet(t, 3, infections)
	mgr.HostParallelism = 4
	got, _ := sweep(t, mgr, Plan{Workers: 2})
	if errs := hostErrors(got.Results); len(errs) != 0 {
		t.Fatalf("errors = %v", errs)
	}
	if fmt.Sprint(got.Infected()) != fmt.Sprint(want.Infected()) || got.Digest != want.Digest {
		t.Errorf("parallel-host sweep infected %v (digest %.12s) != sequential %v (digest %.12s)",
			got.Infected(), got.Digest, want.Infected(), want.Digest)
	}
	for _, r := range got.Results {
		if len(r.Reports) != 4 {
			t.Errorf("%s: reports = %d", r.Host, len(r.Reports))
		}
	}
}
