package fleet

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/supervise"
)

// syntheticBody is a deterministic ScanHost seam: the verdict depends
// only on the host name, never on which racer or attempt computed it —
// the property straggler hedging relies on.
func syntheticBody(h *Host, kind SweepKind) HostResult {
	res := HostResult{Host: h.Name, Kind: kind, Elapsed: 2 * time.Millisecond}
	if h.Name == hostName(1) {
		res.Infected = true
		res.Hidden = 2
	}
	return res
}

func addSynthetic(mgr *Manager, n int) {
	for i := 0; i < n; i++ {
		mgr.AddLazy(hostName(i), nil)
	}
}

// stragglerBody wraps syntheticBody so the victim's FIRST scan stalls
// on wall-clock (the straggler a hedge must cover); the duplicate scan
// of the same host passes straight through and wins the race.
func stragglerBody(victim string, stall time.Duration) func(*Host, SweepKind) HostResult {
	var first sync.Once
	return func(h *Host, kind SweepKind) HostResult {
		if h.Name == victim {
			hit := false
			first.Do(func() { hit = true })
			if hit {
				time.Sleep(stall)
			}
		}
		return syntheticBody(h, kind)
	}
}

func testHedge() *HedgePolicy {
	return &HedgePolicy{MinSamples: 3, Floor: 5 * time.Millisecond, Multiplier: 1}
}

// TestHedgedSweepMatchesUnhedgedDigest: a streamed sweep with one
// straggler hedged must seal the exact summary digest of an unhedged
// sweep — hedging may change who computed a result, never the result —
// and the sink must see every host exactly once (the loser's duplicate
// is discarded, never observed).
func TestHedgedSweepMatchesUnhedgedDigest(t *testing.T) {
	const n = 12
	ref := NewManager()
	addSynthetic(ref, n)
	ref.ScanHost = syntheticBody
	want, err := ref.Run(context.Background(), Plan{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	mgr := NewManager()
	addSynthetic(mgr, n)
	// The victim is late in the sorted host order so the tracker has
	// its MinSamples of completions before the straggler's scan starts.
	mgr.ScanHost = stragglerBody(hostName(n-1), 400*time.Millisecond)
	mgr.Hedge = testHedge()
	seen := map[string]int{}
	sum, err := mgr.Run(context.Background(), Plan{Workers: 3, Sink: func(res HostResult) { seen[res.Host]++ }})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Hedged == 0 {
		t.Fatal("straggler never hedged — threshold did not fire")
	}
	if sum.HedgeWins == 0 {
		t.Error("duplicate scan never won against a 400ms straggler")
	}
	if sum.Digest != want.Digest {
		t.Errorf("hedged digest %.12s != unhedged %.12s", sum.Digest, want.Digest)
	}
	if len(seen) != n {
		t.Fatalf("sink saw %d hosts, want %d", len(seen), n)
	}
	for h, c := range seen {
		if c != 1 {
			t.Errorf("host %s streamed %d times — a hedge loser leaked", h, c)
		}
	}
	if err := sum.VerifyDigest(); err != nil {
		t.Errorf("hedged summary fails its own seal: %v", err)
	}
}

// TestHedgedJournaledSweepReplaysClean: hedge-capable hosts journal no
// per-attempt records, so a journal written under hedging must replay
// completely — no dangling attempts, no duplicate terminals — and
// reproduce the unhedged digest.
func TestHedgedJournaledSweepReplaysClean(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	ref := NewManager()
	addSynthetic(ref, n)
	ref.ScanHost = syntheticBody
	want, err := ref.Run(context.Background(), Plan{Workers: 2, Journal: filepath.Join(dir, "ref.gbj")})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "hedged.gbj")
	mgr := NewManager()
	addSynthetic(mgr, n)
	mgr.ScanHost = stragglerBody(hostName(n-1), 400*time.Millisecond)
	mgr.Hedge = testHedge()
	sum, err := mgr.Run(context.Background(), Plan{Workers: 2, Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Hedged == 0 {
		t.Fatal("straggler never hedged")
	}
	if sum.Digest != want.Digest {
		t.Errorf("hedged journaled digest %.12s != reference %.12s", sum.Digest, want.Digest)
	}

	re := NewManager()
	addSynthetic(re, n)
	re.ScanHost = func(h *Host, kind SweepKind) HostResult {
		t.Errorf("resume of a complete hedged journal re-scanned %s", h.Name)
		return syntheticBody(h, kind)
	}
	resumed, err := re.Run(context.Background(), Plan{Workers: 2, Journal: path, Mode: ModeResume})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Replayed != n {
		t.Errorf("replayed %d of %d hosts", resumed.Replayed, n)
	}
	if resumed.Digest != want.Digest {
		t.Errorf("replayed digest %.12s != reference %.12s", resumed.Digest, want.Digest)
	}
}

// TestCancelSealsPartialSummaryAndResumes: cancelling Run's context
// mid-sweep must stop host issuance, seal the journal at the last
// committed record, and return an Interrupted partial summary whose
// committed work a later resume completes into the uninterrupted
// run's digest.
func TestCancelSealsPartialSummaryAndResumes(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	ref := NewManager()
	addSynthetic(ref, n)
	ref.ScanHost = syntheticBody
	want, err := ref.Run(context.Background(), Plan{Workers: 2, Journal: filepath.Join(dir, "ref.gbj")})
	if err != nil {
		t.Fatal(err)
	}

	// The victim's first scan blocks until released, so the sweep
	// cannot outrun the cancel; commits from other hosts trigger it.
	gate := make(chan struct{})
	var first, release sync.Once
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := filepath.Join(dir, "cut.gbj")
	mgr := NewManager()
	addSynthetic(mgr, n)
	mgr.ScanHost = func(h *Host, kind SweepKind) HostResult {
		if h.Name == hostName(0) {
			hit := false
			first.Do(func() { hit = true })
			if hit {
				<-gate
			}
		}
		return syntheticBody(h, kind)
	}
	committed := 0
	sum, err := mgr.Run(ctx, Plan{Workers: 2, Journal: path, Sink: func(res HostResult) {
		committed++
		if committed == 2 {
			cancel()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	release.Do(func() { close(gate) })
	if !sum.Interrupted {
		t.Fatal("cancelled sweep not marked Interrupted")
	}
	if sum.NotScanned == 0 {
		t.Error("cancelled sweep claims every host scanned")
	}
	if sum.Scanned+sum.NotScanned != n {
		t.Errorf("scanned %d + not scanned %d != %d", sum.Scanned, sum.NotScanned, n)
	}
	if err := sum.VerifyDigest(); err != nil {
		t.Errorf("partial summary fails its own seal: %v", err)
	}

	re := NewManager()
	addSynthetic(re, n)
	re.ScanHost = syntheticBody
	resumed, err := re.Run(context.Background(), Plan{Workers: 2, Journal: path, Mode: ModeResume})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Interrupted {
		t.Error("resumed sweep still marked Interrupted")
	}
	if resumed.Scanned != n || resumed.Digest != want.Digest {
		t.Errorf("resume after cancel: scanned %d, digest %.12s (want %d, %.12s)",
			resumed.Scanned, resumed.Digest, n, want.Digest)
	}
}

// TestResultCancelledDetectsCasualties: the casualty filter must catch
// a cancellation surfacing as the host error (fail-fast mode) or buried
// in a contained unit's fault, and must not flag ordinary failures.
func TestResultCancelledDetectsCasualties(t *testing.T) {
	marker := core.ErrCancelled.Error()
	cases := []struct {
		name string
		res  HostResult
		want bool
	}{
		{"fail-fast error", HostResult{Err: "inside sweep: " + marker}, true},
		{"contained degraded unit", HostResult{Reports: []*core.Report{{
			DegradedUnits: []core.DegradedUnit{{Unit: "disk/high", Fault: marker}},
		}}}, true},
		{"ordinary failure", HostResult{Err: "disk: read fault"}, false},
		{"ordinary degradation", HostResult{Reports: []*core.Report{{
			DegradedUnits: []core.DegradedUnit{{Unit: "disk/high", Fault: "disk: read fault"}},
		}}}, false},
		{"clean result", HostResult{Host: "h"}, false},
	}
	for _, c := range cases {
		if got := resultCancelled(&c.res); got != c.want {
			t.Errorf("%s: resultCancelled = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestJitteredRetryPreservesVerdicts: a retried sweep with jitter
// enabled reaches the same verdicts as the zero-jitter schedule — the
// jitter only moves waits, never outcomes — and every retried host's
// wait stays within the doubling schedule's budget.
func TestJitteredRetryPreservesVerdicts(t *testing.T) {
	run := func(seed int64) *SweepSummary {
		mgr := NewManager()
		addSynthetic(mgr, 6)
		var flaky atomic.Int64
		mgr.ScanHost = func(h *Host, kind SweepKind) HostResult {
			if h.Name == hostName(3) && flaky.Add(1) == 1 {
				return HostResult{Host: h.Name, Kind: kind, Err: "transient: io"}
			}
			return syntheticBody(h, kind)
		}
		mgr.Retry = supervise.RetryPolicy{MaxRetries: 2, Backoff: 2 * time.Second, JitterSeed: seed}
		sum, err := mgr.Run(context.Background(), Plan{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	plain, jittered := run(0), run(99)
	if plain.Failed != 0 || jittered.Failed != 0 {
		t.Fatalf("retry did not recover: plain %d failed, jittered %d failed",
			plain.Failed, jittered.Failed)
	}
	if jittered.Infected != plain.Infected || jittered.Scanned != plain.Scanned {
		t.Errorf("jitter changed verdicts: %+v vs %+v", jittered, plain)
	}
	// The jittered wait is bounded by the deterministic one, so total
	// virtual cost can only shrink.
	if jittered.VirtualNs > plain.VirtualNs {
		t.Errorf("jittered virtual cost %d exceeds zero-jitter %d", jittered.VirtualNs, plain.VirtualNs)
	}
}

// TestHedgedReportMatchesUnhedgedDigest: hedging lives in the one sweep
// loop, so a journaled, Report-producing run over lazy hosts hedges its
// straggler too, and the sealed report carries the unhedged digest.
func TestHedgedReportMatchesUnhedgedDigest(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	ref := NewManager()
	addSynthetic(ref, n)
	ref.ScanHost = syntheticBody
	want, _ := sweep(t, ref, Plan{Workers: 2, Journal: filepath.Join(dir, "ref.gbj")})

	mgr := NewManager()
	addSynthetic(mgr, n)
	mgr.ScanHost = stragglerBody(hostName(n-1), 400*time.Millisecond)
	mgr.Hedge = testHedge()
	rep, sum := sweep(t, mgr, Plan{Workers: 2, Journal: filepath.Join(dir, "hedged.gbj")})
	if sum.Hedged == 0 {
		t.Fatal("journaled report run never hedged its straggler")
	}
	if rep.Digest != want.Digest {
		t.Errorf("hedged report digest %.12s != unhedged %.12s", rep.Digest, want.Digest)
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("hedged report fails verification: %v", err)
	}
}
