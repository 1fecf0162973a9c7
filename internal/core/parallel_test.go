package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ghostbuster/internal/faultinject"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/kernel"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/winapi"
)

// scanScenarios are the seed infection scenarios the golden comparison
// runs: clean, a hook-based rootkit, a code-patching rootkit, and a
// DKOM rootkit (which needs the advanced process scan).
func scanScenarios() []struct {
	name    string
	install func(m *machine.Machine) error
} {
	return []struct {
		name    string
		install func(m *machine.Machine) error
	}{
		{"clean", func(m *machine.Machine) error { return nil }},
		{"hacker-defender", func(m *machine.Machine) error { return ghostware.NewHackerDefender().Install(m) }},
		{"vanquish", func(m *machine.Machine) error { return ghostware.NewVanquish().Install(m) }},
		{"fu", func(m *machine.Machine) error { return ghostware.NewFU().Install(m) }},
	}
}

// scenarioMachine builds a deterministic machine (fixed seed, no churn)
// and installs the scenario's ghostware. Two calls with the same
// scenario produce byte-identical machines.
func scenarioMachine(t *testing.T, install func(m *machine.Machine) error) *machine.Machine {
	t.Helper()
	m := mustMachine(t)
	if err := install(m); err != nil {
		t.Fatalf("install: %v", err)
	}
	return m
}

func reportsJSON(t *testing.T, reports []*Report) string {
	t.Helper()
	b, err := json.MarshalIndent(reports, "", " ")
	if err != nil {
		t.Fatalf("marshal reports: %v", err)
	}
	return string(b)
}

// TestParallelScanAllMatchesSequential is the golden comparison of the
// acceptance criteria: for every seed scenario, the parallel sweep at
// every lane count must produce byte-identical Reports to the
// sequential path. Scan units are statically assigned to virtual-time
// lanes, so nothing in a Report may depend on goroutine interleaving.
func TestParallelScanAllMatchesSequential(t *testing.T) {
	for _, sc := range scanScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			seq := NewDetector(scenarioMachine(t, sc.install))
			seq.Advanced = true
			want, err := seq.ScanAll()
			if err != nil {
				t.Fatalf("sequential ScanAll: %v", err)
			}
			wantJSON := reportsJSON(t, want)
			for _, lanes := range []int{2, 3, 4, 8, 16} {
				d := NewDetector(scenarioMachine(t, sc.install))
				d.Advanced = true
				d.Parallelism = lanes
				got, err := d.ScanAll()
				if err != nil {
					t.Fatalf("parallel(%d) ScanAll: %v", lanes, err)
				}
				if gotJSON := reportsJSON(t, got); gotJSON != wantJSON {
					t.Errorf("parallel(%d) reports differ from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
						lanes, wantJSON, gotJSON)
				}
			}
		})
	}
}

// TestParallelWarmCacheMatchesSequential repeats the golden comparison
// for the cached-warm sweep: the second sweep of an unchanged machine
// serves both truth parses from cache, and its reports must still be
// byte-identical between the sequential and parallel paths.
func TestParallelWarmCacheMatchesSequential(t *testing.T) {
	warmReports := func(parallelism int) string {
		d := NewCachedDetector(scenarioMachine(t, func(m *machine.Machine) error {
			return ghostware.NewHackerDefender().Install(m)
		}))
		d.Advanced = true
		d.Parallelism = parallelism
		if _, err := d.ScanAll(); err != nil {
			t.Fatalf("priming sweep: %v", err)
		}
		reports, err := d.ScanAll()
		if err != nil {
			t.Fatalf("warm sweep: %v", err)
		}
		if s := d.Cache.Stats(); s.Hits < 2 {
			t.Fatalf("warm sweep did not hit the cache: %+v", s)
		}
		return reportsJSON(t, reports)
	}
	want := warmReports(1)
	for _, lanes := range []int{2, 4, 8} {
		if got := warmReports(lanes); got != want {
			t.Errorf("warm parallel(%d) reports differ from sequential:\n%s\nvs\n%s", lanes, got, want)
		}
	}
}

// TestPerResourceMatchesScanAll ties the per-resource methods to the
// sweep: on a fresh machine, each of ScanFiles, ScanASEPs, ScanProcesses
// and ScanModules must give JSON byte-identical to the matching ScanAll
// report at one lane and at four. Report carries no timestamp, so this
// pins Elapsed too.
func TestPerResourceMatchesScanAll(t *testing.T) {
	methods := []struct {
		name string
		scan func(*Detector) (*Report, error)
	}{
		{"files", (*Detector).ScanFiles},
		{"ASEPs", (*Detector).ScanASEPs},
		{"processes", (*Detector).ScanProcesses},
		{"modules", (*Detector).ScanModules},
	}
	for _, sc := range scanScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for _, lanes := range []int{1, 4} {
				d := NewDetector(scenarioMachine(t, sc.install))
				d.Advanced = true
				d.Parallelism = lanes
				all, err := d.ScanAll()
				if err != nil {
					t.Fatalf("ScanAll(lanes=%d): %v", lanes, err)
				}
				for i, m := range methods {
					d := NewDetector(scenarioMachine(t, sc.install))
					d.Advanced = true
					r, err := m.scan(d)
					if err != nil {
						t.Fatalf("%s: %v", m.name, err)
					}
					got, want := reportsJSON(t, []*Report{r}), reportsJSON(t, all[i:i+1])
					if got != want {
						t.Errorf("%s differs from ScanAll(lanes=%d):\n--- method ---\n%s\n--- ScanAll ---\n%s", m.name, lanes, got, want)
					}
				}
			}
		})
	}
}

// TestParallelScanAllUnderMutation exercises the concurrent sweep while
// a ghostware-style mutator commits volume and hive changes (run under
// -race via scripts/check.sh). After the mutator stops, it plants a
// hook-hidden file and asserts the next sweep still finds it — the
// generation-keyed cache must have invalidated across the mutations
// rather than serving a stale truth snapshot.
func TestParallelScanAllUnderMutation(t *testing.T) {
	m := mustMachine(t)
	d := NewCachedDetector(m)
	d.Advanced = true
	d.Parallelism = 4

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Rotate over a fixed set of paths/values so the mutator only
			// adds or overwrites (never removes — a concurrent high-level
			// walk must not trip over a vanishing directory) and the MFT
			// does not grow unboundedly.
			slot := i % 8
			path := fmt.Sprintf(`C:\WINDOWS\Temp\churn%d.tmp`, slot)
			if err := m.DropFile(path, []byte(fmt.Sprintf("gen %d", i))); err != nil {
				t.Errorf("mutator DropFile: %v", err)
				return
			}
			if err := m.Reg.SetString(`HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Run`,
				fmt.Sprintf("churn%d", slot), path); err != nil {
				t.Errorf("mutator SetString: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 8; i++ {
		if _, err := d.ScanAll(); err != nil {
			t.Fatalf("ScanAll under mutation: %v", err)
		}
	}
	close(stop)
	<-done

	// The mutator bumped generations the whole time; the cache must have
	// reparsed rather than pinning the first sweep's snapshot.
	if s := d.Cache.Stats(); s.Misses < 2 {
		t.Errorf("mutating sweeps never missed the cache: %+v", s)
	}

	// Plant a freshly hidden file and hook after the churn: a correct
	// generation key forces a reparse that exposes both.
	const hidden = `C:\WINDOWS\system32\ghost.dll`
	if err := m.DropFile(hidden, []byte("MZ evil")); err != nil {
		t.Fatal(err)
	}
	m.API.Install(winapi.NewFileHideHook("ghost", winapi.LevelIAT, "IAT", nil,
		func(call *winapi.Call, e winapi.DirEntry) bool {
			return strings.EqualFold(e.Name, "ghost.dll")
		}))
	reports, err := d.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	files := reports[0]
	foundHidden := false
	for _, f := range files.Hidden {
		if strings.Contains(f.ID, "GHOST.DLL") {
			foundHidden = true
		}
	}
	if !foundHidden {
		t.Errorf("post-mutation sweep missed the planted hidden file; hidden = %+v", files.Hidden)
	}
}

// TestModuleScanCountsSkippedPids pins the satellite fix: pids that fail
// module enumeration are counted, not silently dropped.
func TestModuleScanCountsSkippedPids(t *testing.T) {
	m := mustMachine(t)
	pids, err := TruthPids(m)
	if err != nil {
		t.Fatal(err)
	}
	// Append pids that do not exist: both scans must skip and count them.
	bogus := append(append([]uint64{}, pids...), 99991, 99993)
	tab := NewInternTable()
	high, err := ScanModsHighC(m, m.SystemCall(), bogus, tab)
	if err != nil {
		t.Fatal(err)
	}
	if high.Skipped != 2 {
		t.Errorf("high Skipped = %d, want 2", high.Skipped)
	}
	low, err := scanModsLowC(m, bogus, m.Clock, tab)
	if err != nil {
		t.Fatal(err)
	}
	if low.Skipped != 2 {
		t.Errorf("low Skipped = %d, want 2", low.Skipped)
	}
	r, err := DiffColumnar(high, low, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.HighSkipped != 2 || r.LowSkipped != 2 {
		t.Errorf("report skipped = %d/%d, want 2/2", r.HighSkipped, r.LowSkipped)
	}
	if !strings.Contains(r.Summary(), "4 targets skipped") {
		t.Errorf("summary does not surface skips: %q", r.Summary())
	}
	// A scan with no failures must not mention skips.
	cleanHigh, err := ScanModsHighC(m, m.SystemCall(), pids, tab)
	if err != nil {
		t.Fatal(err)
	}
	cleanLow, err := scanModsLowC(m, pids, m.Clock, tab)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := DiffColumnar(cleanHigh, cleanLow, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.HighSkipped != 0 || clean.LowSkipped != 0 || strings.Contains(clean.Summary(), "skipped") {
		t.Errorf("clean scan reports skips: %q", clean.Summary())
	}
}

// TestScanAllUnderKernelMutation: kernel mutators — process create,
// exit and concealment, module load — run in a tight loop against a
// four-lane ScanAll with the kmem-carve pair, once clean and once under
// a kmem fault plan re-armed for every sweep. Each kernel-memory walk
// holds one arena read lock for its whole length, and the mutators keep
// writers queued on that lock, so a nested read lock anywhere inside a
// walk would hang here: the timeout turns the hang into a failure. Run
// it under -race. Clean sweeps must not degrade at all; faulted sweeps
// may degrade only the units that read kernel memory, never by panic.
func TestScanAllUnderKernelMutation(t *testing.T) {
	kmemUnits := map[string]bool{
		"processes/low": true, "modules/high": true, "modules/low": true,
		"kmem-carve/high": true, "kmem-carve/low": true,
	}
	for _, tc := range []struct {
		name   string
		faults string
	}{
		{"clean", ""},
		{"kmem-faults", "kmem:flip@40;kmem:err@3000;kmem:torn@9000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustMachine(t)
			var inj *faultinject.Injector
			if tc.faults != "" {
				faults, err := faultinject.ParseFaults(tc.faults)
				if err != nil {
					t.Fatal(err)
				}
				if inj, err = faultinject.New(m, faultinject.Plan{Seed: 1, Faults: faults}); err != nil {
					t.Fatal(err)
				}
				inj.Arm()
			}
			d := NewDetector(m)
			d.Advanced = true
			d.Parallelism = 4
			d.Units = UnitCrossMem
			d.Contain = true

			// Sweep until the mutator has returned, after its 500 rounds
			// or at its first error, and at least six times.
			var mutDone atomic.Bool
			stop := make(chan struct{})
			mutated := make(chan error, 1)
			go func() {
				err := mutateKernel(m.Kern, 500, stop)
				mutDone.Store(true)
				mutated <- err
			}()
			swept := make(chan error, 1)
			degraded := 0
			go func() {
				for i := 0; i < 6 || !mutDone.Load(); i++ {
					if inj != nil {
						inj.Reset()
					}
					reports, err := d.ScanAll()
					if err != nil {
						swept <- fmt.Errorf("sweep %d: %w", i, err)
						return
					}
					for _, r := range reports {
						for _, du := range r.DegradedUnits {
							if inj == nil || !kmemUnits[du.Unit] || du.Fault == "" || strings.Contains(du.Fault, "panicked") {
								swept <- fmt.Errorf("sweep %d degraded %s: %q", i, du.Unit, du.Fault)
								return
							}
							degraded++
						}
					}
				}
				swept <- nil
			}()
			select {
			case err := <-swept:
				close(stop)
				if err != nil {
					t.Error(err)
				}
			case <-time.After(2 * time.Minute):
				t.Fatal("sweeps under kernel mutation did not finish in 2m: a kernel-memory walk deadlocked")
			}
			if err := <-mutated; err != nil {
				t.Errorf("mutator: %v", err)
			}
			if inj != nil && degraded == 0 {
				t.Error("the kmem fault plan degraded no unit in any sweep")
			}
		})
	}
}

// mutateKernel creates, module-loads and then exits (or, every fourth
// time, conceals) processes until stop closes or it has run n rounds.
func mutateKernel(k *kernel.Kernel, n int64, stop <-chan struct{}) error {
	for i := int64(0); i < n; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		pid, err := k.CreateProcess(fmt.Sprintf("churn%d.exe", i%8), `C:\WINDOWS\Temp\churn.exe`, kernel.SystemPid)
		if err != nil {
			return fmt.Errorf("CreateProcess: %w", err)
		}
		if _, err := k.LoadModule(pid, `C:\WINDOWS\Temp\churn.dll`); err != nil {
			return fmt.Errorf("LoadModule: %w", err)
		}
		if i%4 == 3 {
			err = k.ConcealProcess(pid)
		} else {
			err = k.ExitProcess(pid)
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
	}
	return nil
}
