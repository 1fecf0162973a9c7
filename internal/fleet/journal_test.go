package fleet

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"ghostbuster/internal/faultinject"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/journal"
)

// journaledFleet builds the canonical crash-test fleet: four hosts, one
// infected, so resumes must preserve a true finding across the crash.
func journaledFleet(t *testing.T) *Manager {
	t.Helper()
	return buildFleet(t, 4, map[int]ghostware.Ghostware{1: ghostware.NewHackerDefender()})
}

// truncateAfterCommits cuts the journal right after its nth terminal
// record — a crash point that is stable even though worker-side running
// records interleave freely with collector-side commits.
func truncateAfterCommits(t *testing.T, path string, n int, torn bool) {
	t.Helper()
	recs, _, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for i, rec := range recs {
		if rec.State.Terminal() {
			count++
			if count == n {
				if _, err := journal.TruncateRecords(path, i+1, torn); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	t.Fatalf("journal has only %d terminal records, want %d", count, n)
}

// truncateAfterRunning cuts the journal right after the named host's
// first running record, leaving that host in flight.
func truncateAfterRunning(t *testing.T, path string, host string) {
	t.Helper()
	recs, _, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.State == journal.StateRunning && rec.Host == host {
			if _, err := journal.TruncateRecords(path, i+1, false); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("journal has no running record for %s", host)
}

func TestJournaledSweepRecordsAndSeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.gbj")
	mgr := journaledFleet(t)
	rep, _ := sweep(t, mgr, Plan{Workers: 1, Journal: path})
	if err := rep.Verify(); err != nil {
		t.Fatalf("fresh sweep report fails verification: %v", err)
	}
	if got := rep.Infected(); len(got) != 1 || got[0] != hostName(1) {
		t.Fatalf("infected = %v, want exactly %s", got, hostName(1))
	}
	if len(rep.Results) != 4 || rep.Aborted || len(rep.Replayed) != 0 {
		t.Fatalf("report shape off: %+v", rep)
	}

	// Journal shape: sweep header, one scheduled per host, then a
	// running + terminal pair per host (sequential, one worker).
	recs, dropped, err := journal.Read(path)
	if err != nil || dropped != 0 {
		t.Fatalf("journal unreadable: %v (dropped %d)", err, dropped)
	}
	if len(recs) != 1+4+4*2 {
		t.Fatalf("journal has %d records, want 13", len(recs))
	}
	if recs[0].State != journal.StateSweep || recs[0].Kind != "inside" || len(recs[0].Hosts) != 4 {
		t.Fatalf("bad header: %+v", recs[0])
	}
	terminal := map[string]journal.Record{}
	for _, rec := range recs[1:] {
		if rec.State.Terminal() {
			terminal[rec.Host] = rec
		}
	}
	for _, hr := range rep.Results {
		rec, ok := terminal[hr.Host]
		if !ok {
			t.Fatalf("host %s has no terminal record", hr.Host)
		}
		if rec.ResultHash != hr.Hash {
			t.Errorf("host %s: journal hash %.12s != report hash %.12s", hr.Host, rec.ResultHash, hr.Hash)
		}
		var res HostResult
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			t.Fatalf("host %s result unparseable: %v", hr.Host, err)
		}
		if res.Infected != hr.Infected {
			t.Errorf("host %s journal verdict %v != report %v", hr.Host, res.Infected, hr.Infected)
		}
	}
}

// TestResumeReplaysCommittedHosts: kill the sweep after two hosts
// committed, resume on a freshly built identical fleet, and the merged
// report must match the uninterrupted run host-for-host — with the
// committed hosts replayed from the journal, not re-scanned.
func TestResumeReplaysCommittedHosts(t *testing.T) {
	for _, torn := range []bool{false, true} {
		name := "clean-cut"
		if torn {
			name = "torn-tail"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.gbj")
			full, _ := sweep(t, journaledFleet(t), Plan{Workers: 1, Journal: path})
			// Crash right after hosts a and b committed; the torn variant
			// leaves a partial record after the cut.
			truncateAfterCommits(t, path, 2, torn)

			mgr2 := journaledFleet(t)
			clockBefore := mgrHost(t, mgr2, hostName(0)).Clock.Now()
			resumed, _ := sweep(t, mgr2, Plan{Workers: 1, Journal: path, Mode: ModeResume})
			if err := resumed.Verify(); err != nil {
				t.Fatalf("resumed report fails verification: %v", err)
			}
			wantReplayed := []string{hostName(0), hostName(1)}
			if len(resumed.Replayed) != 2 || resumed.Replayed[0] != wantReplayed[0] || resumed.Replayed[1] != wantReplayed[1] {
				t.Fatalf("replayed = %v, want %v", resumed.Replayed, wantReplayed)
			}
			// A replayed host is not scanned again: its machine's virtual
			// clock never moves.
			if now := mgrHost(t, mgr2, hostName(0)).Clock.Now(); now != clockBefore {
				t.Errorf("replayed host was re-scanned: clock moved %v", now-clockBefore)
			}
			// Host-for-host, the merged report matches the uninterrupted
			// run: same verdicts, same content hashes.
			if len(resumed.Results) != len(full.Results) {
				t.Fatalf("results = %d, want %d", len(resumed.Results), len(full.Results))
			}
			for i, hr := range resumed.Results {
				ref := full.Results[i]
				if hr.Host != ref.Host || hr.Infected != ref.Infected || hr.Hash != ref.Hash {
					t.Errorf("host %s diverged after resume: hash %.12s vs %.12s, infected %v vs %v",
						ref.Host, hr.Hash, ref.Hash, hr.Infected, ref.Infected)
				}
			}
			if resumed.Digest != full.Digest {
				t.Errorf("resumed sweep digest %.12s != uninterrupted %.12s", resumed.Digest, full.Digest)
			}
		})
	}
}

// TestResumeContinuesAttemptNumbering: a host that was mid-scan at the
// crash (dangling running record) is re-run with its attempt count
// carried forward, so the crash shows up in the accounting.
func TestResumeContinuesAttemptNumbering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.gbj")
	sweep(t, journaledFleet(t), Plan{Workers: 1, Journal: path})
	// Crash with host c in flight: its running record committed, its
	// terminal record lost.
	truncateAfterRunning(t, path, hostName(2))
	resumed, _ := sweep(t, journaledFleet(t), Plan{Workers: 1, Journal: path, Mode: ModeResume})
	var c HostResult
	for _, hr := range resumed.Results {
		if hr.Host == hostName(2) {
			c = hr
		}
	}
	if c.Attempts != 2 {
		t.Errorf("in-flight host resumed with attempts = %d, want 2 (1 lost to crash + 1 after)", c.Attempts)
	}
	if c.Err != "" || c.Infected {
		t.Errorf("in-flight host verdict wrong after resume: %+v", c)
	}
	// Its new terminal record carries the continued attempt number.
	recs, _, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	for _, rec := range recs {
		if rec.Host == hostName(2) && rec.State.Terminal() {
			if rec.Attempt != 2 {
				t.Errorf("journal terminal attempt = %d, want 2", rec.Attempt)
			}
		}
	}
	if !last.State.Terminal() {
		t.Errorf("journal does not end on a terminal record: %+v", last)
	}
}

// TestResumeRejectsTamperedResult: a journal whose committed result was
// rewritten must fail a resume loudly, at either tamper-evidence layer —
// a stale record hash, or a recomputed hash over reports whose own
// digests no longer verify.
func TestResumeRejectsTamperedResult(t *testing.T) {
	build := func(t *testing.T, mutate func(*journal.Record, *HostResult)) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "sweep.gbj")
		sweep(t, journaledFleet(t), Plan{Workers: 1, Journal: path})
		recs, _, err := journal.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite the journal wholesale — the attacker controls the file,
		// so framing CRCs are recomputed and pass; only the content
		// hashes inside can betray the edit.
		forged := filepath.Join(t.TempDir(), "forged.gbj")
		j, err := journal.Create(forged)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Host == hostName(1) && rec.State.Terminal() {
				var res HostResult
				if err := json.Unmarshal(rec.Result, &res); err != nil {
					t.Fatal(err)
				}
				mutate(&rec, &res)
				if rec.Result, err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			rec.Seq = 0
			if _, err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		return forged
	}

	t.Run("stale record hash", func(t *testing.T) {
		// Flip the infected host's verdict; the record hash goes stale.
		path := build(t, func(rec *journal.Record, res *HostResult) {
			res.Infected = false
			res.Hidden = 0
		})
		_, err := journaledFleet(t).Run(context.Background(), Plan{Workers: 1, Journal: path, Mode: ModeResume})
		if err == nil || !strings.Contains(err.Error(), "hash verification") {
			t.Fatalf("tampered journal resumed: %v", err)
		}
	})
	t.Run("recomputed hash, stale report digest", func(t *testing.T) {
		// A cleverer attacker recomputes the record hash — but the scan
		// reports inside were sealed at emission, and dropping findings
		// without resealing breaks their digests.
		path := build(t, func(rec *journal.Record, res *HostResult) {
			for _, rep := range res.Reports {
				rep.Hidden = nil
			}
			res.Infected = false
			res.Hidden = 0
			rec.ResultHash = ResultHash(*res)
		})
		_, err := journaledFleet(t).Run(context.Background(), Plan{Workers: 1, Journal: path, Mode: ModeResume})
		if err == nil || !strings.Contains(err.Error(), "altered after sealing") {
			t.Fatalf("re-hashed tampered journal resumed: %v", err)
		}
	})
}

// TestResumeRejectsMismatchedSweep: resuming with the wrong kind or a
// different fleet is an operator error, caught before any scanning.
func TestResumeRejectsMismatchedSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.gbj")
	sweep(t, journaledFleet(t), Plan{Workers: 1, Journal: path})
	if _, err := journaledFleet(t).Run(context.Background(), Plan{Kind: SweepOutside, Workers: 1, Journal: path, Mode: ModeResume}); err == nil {
		t.Error("resumed an inside journal as an outside sweep")
	}
	if _, err := buildFleet(t, 2, nil).Run(context.Background(), Plan{Workers: 1, Journal: path, Mode: ModeResume}); err == nil {
		t.Error("resumed a 4-host journal on a 2-host fleet")
	}
}

// TestResumeInteriorCorruptionIsLoud: a bit flipped inside the journal
// body (not the recoverable torn tail) must fail a resume, not silently
// drop records.
func TestResumeInteriorCorruptionIsLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.gbj")
	sweep(t, journaledFleet(t), Plan{Workers: 1, Journal: path})
	if err := journal.Corrupt(path, faultinject.KindFlip, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := journaledFleet(t).Run(context.Background(), Plan{Workers: 1, Journal: path, Mode: ModeResume}); err == nil {
		t.Fatal("bit-flipped journal resumed silently")
	}
}

// TestBreakerQuarantinesHost: K consecutive hard-failed attempts open
// the host's circuit breaker; the sweep completes with the host
// quarantined instead of burning the full retry budget on it.
func TestBreakerQuarantinesHost(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.gbj")
	mgr := buildFleet(t, 3, nil)
	mgr.Retry.MaxRetries = 5
	mgr.Retry.BreakerThreshold = 2
	mgrHost(t, mgr, hostName(1)).Disk = nil // every attempt panics

	rep, _ := sweep(t, mgr, Plan{Workers: 1, Journal: path})
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != hostName(1) {
		t.Fatalf("quarantined = %v, want [%s]", rep.Quarantined, hostName(1))
	}
	var broken HostResult
	for _, hr := range rep.Results {
		if hr.Host == hostName(1) {
			broken = hr
		}
	}
	if !broken.Quarantined || broken.Err == "" {
		t.Fatalf("quarantined result wrong: %+v", broken)
	}
	if broken.Attempts != 2 {
		t.Errorf("breaker tripped after %d attempts, want threshold 2 (not MaxRetries+1 = 6)", broken.Attempts)
	}
	recs, _, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	var state journal.State
	var reason string
	for _, rec := range recs {
		if rec.Host == hostName(1) && rec.State.Terminal() {
			state, reason = rec.State, rec.Reason
		}
	}
	if state != journal.StateQuarantined || !strings.Contains(reason, "circuit breaker") {
		t.Errorf("journal terminal = %q reason %q, want quarantined record citing the breaker", state, reason)
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("quarantine report fails verification: %v", err)
	}
}

// TestBreakerCountsAcrossResume: dangling running records are failed
// attempts the crash ate; the breaker must count them, so a host that
// keeps killing the sweep gets quarantined on resume rather than
// crash-looping forever.
func TestBreakerCountsAcrossResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.gbj")
	mgr := buildFleet(t, 2, nil)
	sweep(t, mgr, Plan{Workers: 1, Journal: path})
	// Rewind to host a's running record, then add a second dangling
	// attempt: simulate two prior runs that each died inside a's scan.
	truncateAfterRunning(t, path, hostName(0))
	j, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(journal.Record{State: journal.StateRunning, Host: hostName(0), Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	mgr2 := buildFleet(t, 2, nil)
	mgr2.Retry.BreakerThreshold = 3
	mgr2.Retry.MaxRetries = 5
	mgrHost(t, mgr2, hostName(0)).Disk = nil // still broken after the resume
	rep, _ := sweep(t, mgr2, Plan{Workers: 1, Journal: path, Mode: ModeResume})
	var a HostResult
	for _, hr := range rep.Results {
		if hr.Host == hostName(0) {
			a = hr
		}
	}
	if !a.Quarantined {
		t.Fatalf("crash-looping host not quarantined: %+v", a)
	}
	// Two dangling pre-crash attempts + one failed post-resume attempt
	// reach the threshold of 3; attempt numbering continues at 3.
	if a.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (2 eaten by crashes + 1 live)", a.Attempts)
	}
}

// TestAbortAfterFailureFraction: the fleet error budget stops feeding
// hosts once failures exceed the fraction, journals the abort, and the
// report lists what was never scanned instead of omitting it.
func TestAbortAfterFailureFraction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.gbj")
	mgr := buildFleet(t, 4, nil)
	mgr.AbortAfterFailureFraction = 0.25
	mgrHost(t, mgr, hostName(0)).Disk = nil
	mgrHost(t, mgr, hostName(1)).Disk = nil

	rep, _ := sweep(t, mgr, Plan{Workers: 1, Journal: path})
	if !rep.Aborted || !strings.Contains(rep.AbortReason, "error budget") {
		t.Fatalf("sweep not aborted: %+v", rep)
	}
	// One worker scans in order: a fails (1 of 4, within budget), b
	// fails (2 of 4, over budget). The scheduler stops feeding, but c
	// may already be in flight when the budget trips — the guarantee is
	// that d is never fed and nothing unscanned goes unlisted.
	if len(rep.NotScanned) == 0 || rep.NotScanned[len(rep.NotScanned)-1] != hostName(3) {
		t.Fatalf("notScanned = %v, want at least [%s]", rep.NotScanned, hostName(3))
	}
	if len(rep.Results)+len(rep.NotScanned) != 4 {
		t.Fatalf("results %d + notScanned %d != 4 hosts", len(rep.Results), len(rep.NotScanned))
	}
	if !rep.Degraded() {
		t.Error("aborted sweep not reported degraded")
	}
	recs, _, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	var sawAbort bool
	for _, rec := range recs {
		if rec.State == journal.StateAborted {
			sawAbort = true
		}
	}
	if !sawAbort {
		t.Error("abort not journaled")
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("aborted report fails verification: %v", err)
	}

	// Resuming past the abort finishes the fleet: the abort record is
	// an operator note, not a tombstone.
	mgr2 := buildFleet(t, 4, nil)
	resumed, _ := sweep(t, mgr2, Plan{Workers: 1, Journal: path, Mode: ModeResume})
	if len(resumed.NotScanned) != 0 || len(resumed.Results) != 4 {
		t.Fatalf("resume did not finish aborted sweep: %+v", resumed)
	}
}

// TestFleetReportTamperEvident: any post-seal mutation of the merged
// report fails Verify.
func TestFleetReportTamperEvident(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.gbj")
	rep, _ := sweep(t, journaledFleet(t), Plan{Workers: 1, Journal: path})
	tamper := map[string]func(*Report){
		"flip verdict":    func(r *Report) { r.Results[1].Infected = false; r.Results[1].Hidden = 0 },
		"drop host":       func(r *Report) { r.Results = r.Results[:3] },
		"hide quarantine": func(r *Report) { r.Quarantined = []string{"host-x"} },
		"forge host hash": func(r *Report) { r.Results[0].Hash = strings.Repeat("0", 64) },
		"unhash host":     func(r *Report) { r.Results[0].Hash = "" },
		"hide abort":      func(r *Report) { r.Aborted = true },
		"strip digest":    func(r *Report) { r.Digest = "" },
	}
	for name, mutate := range tamper {
		var cp Report
		data, _ := json.Marshal(rep)
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		mutate(&cp)
		if err := cp.Verify(); err == nil {
			t.Errorf("%s: tampered fleet report still verifies", name)
		}
	}
	// The round-trip itself is verdict-preserving.
	var cp Report
	data, _ := json.Marshal(rep)
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	if err := cp.Verify(); err != nil {
		t.Errorf("JSON round-trip broke verification: %v", err)
	}
}

// TestResultHashExcludesRetryAccounting: how many attempts a verdict
// took is not part of the verdict.
func TestResultHashExcludesRetryAccounting(t *testing.T) {
	mgr := buildFleet(t, 1, nil)
	r := insideSweep(t, mgr)[0]
	a := r
	b := r
	b.Elapsed *= 3
	b.RetryNs = 12345
	b.Attempts = 4
	if ResultHash(a) != ResultHash(b) {
		t.Error("result hash depends on timing/attempt accounting")
	}
	b.Infected = !b.Infected
	if ResultHash(a) == ResultHash(b) {
		t.Error("result hash ignores the verdict")
	}
}
