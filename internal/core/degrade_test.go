package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ghostbuster/internal/winapi"
)

// TestContainOffPreservesFailFast: without Contain, the first unit
// error aborts ScanAll with the historical error wrapping.
func TestContainOffPreservesFailFast(t *testing.T) {
	m := mustMachine(t)
	var calls atomic.Int32
	m.API.SetCallFault(func(api winapi.API, call *winapi.Call) error {
		if calls.Add(1) == 1 {
			return errors.New("injected API failure")
		}
		return nil
	})
	d := NewDetector(m)
	d.Advanced = true
	_, err := d.ScanAll()
	if err == nil {
		t.Fatal("fail-fast ScanAll returned nil error")
	}
	if !strings.Contains(err.Error(), "core: files scan:") {
		t.Errorf("error %q lacks historical wrapping", err)
	}
}

// TestContainDegradesFailedUnit: with Contain, the same failure yields
// four reports with exactly one degraded unit and zero findings.
func TestContainDegradesFailedUnit(t *testing.T) {
	m := mustMachine(t)
	var calls atomic.Int32
	m.API.SetCallFault(func(api winapi.API, call *winapi.Call) error {
		if calls.Add(1) == 1 {
			return errors.New("injected API failure")
		}
		return nil
	})
	d := NewDetector(m)
	d.Advanced = true
	d.Contain = true
	reports, err := d.ScanAll()
	if err != nil {
		t.Fatalf("contained ScanAll: %v", err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(reports))
	}
	du := reports[0].DegradedUnits
	if len(du) != 1 || du[0].Unit != "files/high" {
		t.Fatalf("files degraded units = %+v, want one files/high entry", du)
	}
	if !strings.Contains(du[0].Fault, "injected API failure") {
		t.Errorf("degraded fault %q does not carry the cause", du[0].Fault)
	}
	if len(du[0].Compared) != 1 || du[0].Compared[0] != ViewRawMFT {
		t.Errorf("compared views = %v, want the surviving raw-MFT view", du[0].Compared)
	}
	for i, r := range reports {
		if len(r.Hidden) != 0 || len(r.Phantom) != 0 {
			t.Errorf("report %d has findings under containment: %+v %+v", i, r.Hidden, r.Phantom)
		}
		if i > 0 && r.Degraded() {
			t.Errorf("report %d degraded: %+v", i, r.DegradedUnits)
		}
	}
}

// TestContainedPanicBecomesDegradedUnit: a panicking scanner is held at
// the unit boundary and recorded, not propagated.
func TestContainedPanicBecomesDegradedUnit(t *testing.T) {
	m := mustMachine(t)
	var calls atomic.Int32
	m.API.SetCallFault(func(api winapi.API, call *winapi.Call) error {
		if calls.Add(1) == 1 {
			panic("injected scanner panic")
		}
		return nil
	})
	d := NewDetector(m)
	d.Advanced = true
	d.Contain = true
	reports, err := d.ScanAll()
	if err != nil {
		t.Fatalf("contained ScanAll: %v", err)
	}
	du := reports[0].DegradedUnits
	if len(du) != 1 || du[0].Unit != "files/high" {
		t.Fatalf("degraded units = %+v, want files/high", du)
	}
	if !strings.Contains(du[0].Fault, "panicked") || !strings.Contains(du[0].Fault, "injected scanner panic") {
		t.Errorf("degraded fault %q does not describe the panic", du[0].Fault)
	}
}

// TestDeadlineAbandonsUnstartedUnits: a tiny virtual-time budget lets
// the first unit run and abandons the rest, degrading every pair.
func TestDeadlineAbandonsUnstartedUnits(t *testing.T) {
	m := mustMachine(t)
	d := NewDetector(m)
	d.Advanced = true
	d.Contain = true
	d.Deadline = time.Nanosecond
	reports, err := d.ScanAll()
	if err != nil {
		t.Fatalf("contained ScanAll: %v", err)
	}
	for i, r := range reports {
		if !r.Degraded() {
			t.Errorf("report %d not degraded under a 1ns deadline", i)
			continue
		}
		for _, du := range r.DegradedUnits {
			if !strings.Contains(du.Fault, "deadline") {
				t.Errorf("report %d degraded by %q, want a deadline fault", i, du.Fault)
			}
		}
	}

	// Without Contain the deadline is a hard error.
	d2 := NewDetector(mustMachine(t))
	d2.Advanced = true
	d2.Deadline = time.Nanosecond
	if _, err := d2.ScanAll(); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("uncontained deadline sweep: err = %v, want deadline error", err)
	}
}

// TestContainCleanSweepIdenticalReports: on a healthy machine Contain
// must not change a single report field.
func TestContainCleanSweepIdenticalReports(t *testing.T) {
	run := func(contain bool) []*Report {
		m := mustMachine(t)
		d := NewDetector(m)
		d.Advanced = true
		d.Contain = contain
		reports, err := d.ScanAll()
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	strict, contained := run(false), run(true)
	for i := range strict {
		a, b := *strict[i], *contained[i]
		if a.Summary() != b.Summary() || a.Elapsed != b.Elapsed ||
			len(b.DegradedUnits) != 0 || len(a.Hidden) != len(b.Hidden) {
			t.Errorf("report %d differs under Contain: %+v vs %+v", i, a, b)
		}
	}
}

// TestCacheRefusesFaultEpochCrossings: a parse bracketed by a fault
// epoch change is served once but never memoized, so a warm cache can
// never replay a poisoned snapshot.
func TestCacheRefusesFaultEpochCrossings(t *testing.T) {
	m := mustMachine(t)
	c := NewScanCache(m)
	var epoch atomic.Uint64
	// Every read of the epoch advances it, so each parse sees a "fault"
	// fire mid-parse and must decline to memoize.
	m.FaultEpoch = func() uint64 { return epoch.Add(1) }
	if _, err := cachedFilesLow(c); err != nil {
		t.Fatal(err)
	}
	if _, err := cachedFilesLow(c); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("epoch-crossing parses: stats = %+v, want 0 hits / 2 misses", st)
	}
	// With a stable epoch the next parse memoizes and the one after hits.
	m.FaultEpoch = func() uint64 { return 42 }
	if _, err := cachedFilesLow(c); err != nil {
		t.Fatal(err)
	}
	if _, err := cachedFilesLow(c); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("stable-epoch parses: stats = %+v, want 1 hit / 3 misses", st)
	}

	// Same guard on the ASEP side.
	m.FaultEpoch = func() uint64 { return epoch.Add(1) }
	if _, err := cachedASEPLow(c); err != nil {
		t.Fatal(err)
	}
	if _, err := cachedASEPLow(c); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 5 {
		t.Fatalf("ASEP epoch-crossing parses: stats = %+v, want 1 hit / 5 misses", st)
	}
}

// TestOnReportStreamsPartials: OnReport sees each report as it is
// assembled, in paper order.
func TestOnReportStreamsPartials(t *testing.T) {
	m := mustMachine(t)
	d := NewDetector(m)
	d.Advanced = true
	d.Contain = true
	var kinds []ResourceKind
	d.OnReport = func(r *Report) { kinds = append(kinds, r.Kind) }
	reports, err := d.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != len(reports) {
		t.Fatalf("OnReport saw %d reports, ScanAll returned %d", len(kinds), len(reports))
	}
	want := []ResourceKind{KindFiles, KindASEPHooks, KindProcesses, KindModules}
	for i, k := range want {
		if kinds[i] != k {
			t.Errorf("OnReport order[%d] = %s, want %s", i, kinds[i], k)
		}
	}
}
