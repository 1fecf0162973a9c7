package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ghostbuster/internal/ghostware"
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
