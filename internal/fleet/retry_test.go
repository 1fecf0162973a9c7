package fleet

import (
	"strings"
	"testing"
	"time"

	"ghostbuster/internal/faultinject"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/supervise"
)

// armHost installs and arms a fault plan on the named host's machine.
func armHost(t *testing.T, mgr *Manager, name string, faults ...faultinject.Fault) *faultinject.Injector {
	t.Helper()
	inj, err := faultinject.New(mgrHost(t, mgr, name), faultinject.Plan{Seed: 1, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	return inj
}

// TestRetryRecoversTransientFault: a fault that fires once degrades the
// first attempt; with retries granted, the sweep re-scans the host and
// the final result is clean, with the abandoned attempt's cost kept out
// of Elapsed.
func TestRetryRecoversTransientFault(t *testing.T) {
	mgr := buildFleet(t, 2, nil)
	mgr.Retry.MaxRetries = 2
	armHost(t, mgr, hostName(0),
		faultinject.Fault{Source: faultinject.SourceAPI, Kind: faultinject.KindErr, After: 1, Count: 1})
	m := mgrHost(t, mgr, hostName(0))
	clockStart := m.Clock.Now()

	results := insideSweep(t, mgr)
	r := results[0]
	if r.Err != "" || r.Degraded != 0 {
		t.Fatalf("retried host not clean: err=%q degraded=%d", r.Err, r.Degraded)
	}
	if r.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", r.Attempts)
	}
	if r.RetryNs <= 0 {
		t.Errorf("retryNs = %v, want > 0", r.RetryNs)
	}
	if len(r.Reports) != 4 {
		t.Errorf("reports = %d, want 4", len(r.Reports))
	}
	// Conservation: everything the host's clock consumed is accounted as
	// either the final attempt (Elapsed) or retry overhead (RetryNs) — so
	// benchmark aggregates summing elapsedNs never double-charge a host.
	if total := m.Clock.Now() - clockStart; total != r.Elapsed+r.RetryNs {
		t.Errorf("clock advanced %v, Elapsed %v + RetryNs %v = %v",
			total, r.Elapsed, r.RetryNs, r.Elapsed+r.RetryNs)
	}
	// The untouched host retried nothing.
	if results[1].Attempts != 0 || results[1].RetryNs != 0 {
		t.Errorf("clean host charged retries: %+v", results[1])
	}
}

// TestRetryExhaustionKeepsDegradedResult: a persistent fault survives
// every granted retry; the host stays degraded but its reports are still
// attached, and the attempt count records the whole story.
func TestRetryExhaustionKeepsDegradedResult(t *testing.T) {
	mgr := buildFleet(t, 1, nil)
	mgr.Retry.MaxRetries = 2
	mgr.Retry.Backoff = time.Second
	armHost(t, mgr, hostName(0),
		faultinject.Fault{Source: faultinject.SourceAPI, Kind: faultinject.KindErr, After: 1, Count: 1 << 20})

	r := insideSweep(t, mgr)[0]
	if r.Degraded == 0 {
		t.Fatal("persistent fault left no degradation")
	}
	if r.Err != "" {
		t.Fatalf("contained degradation surfaced as host error: %q", r.Err)
	}
	if r.Attempts != 3 {
		t.Errorf("attempts = %d, want MaxRetries+1 = 3", r.Attempts)
	}
	if len(r.Reports) != 4 {
		t.Errorf("degraded host lost its reports: %d", len(r.Reports))
	}
	// RetryNs covers two abandoned attempts plus the 1s and 2s backoffs.
	if r.RetryNs < 3*time.Second {
		t.Errorf("retryNs = %v, want >= 3s of backoff alone", r.RetryNs)
	}
}

// TestRetryDisabledByDefault: with MaxRetries zero a degraded first
// attempt stands, unretried and unannotated.
func TestRetryDisabledByDefault(t *testing.T) {
	mgr := buildFleet(t, 1, nil)
	armHost(t, mgr, hostName(0),
		faultinject.Fault{Source: faultinject.SourceAPI, Kind: faultinject.KindErr, After: 1, Count: 1})

	r := insideSweep(t, mgr)[0]
	if r.Degraded == 0 {
		t.Fatal("fault did not degrade the sweep")
	}
	if r.Attempts != 0 || r.RetryNs != 0 {
		t.Errorf("unretried host annotated with attempts=%d retryNs=%v", r.Attempts, r.RetryNs)
	}
}

// TestHostDeadlineDegradesNotErrors: a too-tight per-host scan budget
// abandons units but keeps the host reportable — degraded stub reports,
// no host error — and the sweep's other hosts are unaffected.
func TestHostDeadlineDegradesNotErrors(t *testing.T) {
	mgr := buildFleet(t, 1, nil)
	mgr.HostDeadline = time.Nanosecond

	r := insideSweep(t, mgr)[0]
	if r.Err != "" {
		t.Fatalf("deadline surfaced as host error: %q", r.Err)
	}
	if r.Degraded == 0 {
		t.Fatal("1ns deadline degraded nothing")
	}
	if len(r.Reports) != 4 {
		t.Fatalf("deadline host lost reports: %d", len(r.Reports))
	}
	for _, rep := range r.Reports {
		for _, du := range rep.DegradedUnits {
			if !strings.Contains(du.Fault, "deadline") {
				t.Errorf("degraded by %q, want a deadline fault", du.Fault)
			}
		}
	}
}

// TestScanPanicBecomesHostError: a panic that escapes scan-unit
// containment is captured per host; the sweep completes and the broken
// host carries the panic as its error.
func TestScanPanicBecomesHostError(t *testing.T) {
	mgr := buildFleet(t, 3, nil)
	mgrHost(t, mgr, hostName(1)).Disk = nil // detonates at scan entry

	rep, _ := sweep(t, mgr, Plan{Workers: 2})
	results := rep.Results
	if len(results) != 3 {
		t.Fatalf("sweep lost results: %d of 3", len(results))
	}
	if !strings.Contains(results[1].Err, "scan panic") {
		t.Fatalf("host 1 err = %q, want captured scan panic", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != "" || len(results[i].Reports) != 4 {
			t.Errorf("healthy host %s damaged by neighbor panic: %+v", results[i].Host, results[i])
		}
	}
}

// TestRetriedSweepStillDetects: retry must not eat true findings — an
// infected host whose first attempt is degraded by a transient fault is
// still convicted on the clean retry.
func TestRetriedSweepStillDetects(t *testing.T) {
	mgr := buildFleet(t, 2, map[int]ghostware.Ghostware{1: ghostware.NewHackerDefender()})
	mgr.Retry.MaxRetries = 1
	armHost(t, mgr, hostName(1),
		faultinject.Fault{Source: faultinject.SourceAPI, Kind: faultinject.KindErr, After: 1, Count: 1})

	rep, _ := sweep(t, mgr, Plan{Workers: 1})
	if errs := hostErrors(rep.Results); len(errs) != 0 {
		t.Fatalf("errors = %v", errs)
	}
	if got := rep.Infected(); len(got) != 1 || got[0] != hostName(1) {
		t.Fatalf("infected = %v, want exactly %s", got, hostName(1))
	}
}

// TestRetryNsDeadlineOnFinalAttempt: when the host deadline degrades
// every attempt and the final permitted attempt still stands, the
// abandoned attempts' cost lands in RetryNs and the conservation
// invariant (clock delta = Elapsed + RetryNs) holds exactly.
func TestRetryNsDeadlineOnFinalAttempt(t *testing.T) {
	mgr := buildFleet(t, 1, nil)
	mgr.Retry.MaxRetries = 1
	mgr.Retry.Backoff = time.Second
	mgr.HostDeadline = time.Nanosecond
	m := mgrHost(t, mgr, hostName(0))
	clockStart := m.Clock.Now()

	r := insideSweep(t, mgr)[0]
	if r.Err != "" {
		t.Fatalf("deadline surfaced as host error: %q", r.Err)
	}
	if r.Degraded == 0 {
		t.Fatal("1ns deadline degraded nothing on the final attempt")
	}
	if r.Attempts != 2 {
		t.Errorf("attempts = %d, want MaxRetries+1 = 2", r.Attempts)
	}
	// RetryNs covers the abandoned first attempt plus the 1s backoff.
	if r.RetryNs < time.Second {
		t.Errorf("retryNs = %v, want >= the 1s backoff", r.RetryNs)
	}
	if total := m.Clock.Now() - clockStart; total != r.Elapsed+r.RetryNs {
		t.Errorf("clock advanced %v, Elapsed %v + RetryNs %v = %v",
			total, r.Elapsed, r.RetryNs, r.Elapsed+r.RetryNs)
	}
}

// TestBackoffCapSaturates: a host retried far past where naive
// doubling overflows int64 still waits a positive, capped amount each
// time — the per-host loop saturates at supervise.MaxRetryBackoff — so
// its RetryNs is the exact saturated schedule, never negative.
func TestBackoffCapSaturates(t *testing.T) {
	const retries, elapsed = 100, time.Millisecond
	mgr := NewManager()
	addSynthetic(mgr, 1)
	mgr.ScanHost = func(h *Host, kind SweepKind) HostResult {
		return HostResult{Host: h.Name, Kind: kind, Err: "disk: read fault", Elapsed: elapsed}
	}
	mgr.Retry.MaxRetries = retries
	r := insideSweep(t, mgr)[0]
	if r.Attempts != retries+1 {
		t.Fatalf("attempts = %d, want %d", r.Attempts, retries+1)
	}
	// Waits 2s, 4s, ... 256s (510s in all), then 92 waits at the 5m cap.
	want := retries*elapsed + 510*time.Second + (retries-8)*supervise.MaxRetryBackoff
	if r.RetryNs != want {
		t.Errorf("retryNs = %v, want the saturated schedule %v", r.RetryNs, want)
	}
}
