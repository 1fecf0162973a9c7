package fleetshard

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ghostbuster/internal/fleet"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/journal"
	"ghostbuster/internal/machine"
)

// testSource builds small deterministic machines: the same profile as
// the fleet package's tiny fleets, seeded by host index, so every
// Build(i) call — including the rebuilds a resume does — produces a
// machine whose scan results hash identically.
type testSource struct {
	n      int
	infect map[int]func() ghostware.Ghostware
}

func (s testSource) Len() int { return s.n }

func (s testSource) Name(i int) string { return fmt.Sprintf("node-%03d", i) }

func (s testSource) Build(i int) (*machine.Machine, error) {
	p := machine.DefaultProfile()
	p.DiskUsedGB = 0.05
	p.Churn = nil
	p.Seed = int64(i + 1)
	p.MFTHeadroom = 64
	p.ClusterHeadroom = 64
	m, err := machine.New(p)
	if err != nil {
		return nil, err
	}
	if g, ok := s.infect[i]; ok {
		if err := g().Install(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func infectedSource(n int) testSource {
	return testSource{n: n, infect: map[int]func() ghostware.Ghostware{
		1: func() ghostware.Ghostware { return ghostware.NewHackerDefender() },
		4: func() ghostware.Ghostware { return ghostware.NewUrbin() },
	}}
}

// TestShardedSweepMatchesClassicFleet: the fleet-of-fleets report over
// real machines must carry the same verdicts and the same
// host-contribution accumulator as a classic single-manager sweep of
// the identical fleet — and the merged digest must not depend on the
// shard count.
func TestShardedSweepMatchesClassicFleet(t *testing.T) {
	src := infectedSource(6)

	classic := fleet.NewManager()
	for i := 0; i < src.Len(); i++ {
		m, err := src.Build(i)
		if err != nil {
			t.Fatal(err)
		}
		classic.Add(src.Name(i), m)
	}
	want, err := classic.Run(context.Background(), fleet.Plan{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want.Infected != 2 {
		t.Fatalf("classic sweep found %d infected, want 2", want.Infected)
	}

	var digests []string
	for _, shards := range []int{1, 3} {
		coord, err := New(Config{Shards: shards}, src)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := coord.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scanned != 6 || rep.Infected != want.Infected || rep.HiddenTotal != want.HiddenTotal {
			t.Fatalf("%d shards: report = scanned %d infected %d hidden %d, classic = %d/%d/%d",
				shards, rep.Scanned, rep.Infected, rep.HiddenTotal, want.Scanned, want.Infected, want.HiddenTotal)
		}
		if rep.Acc.Sum() != want.Acc.Sum() {
			t.Errorf("%d shards: accumulator %.12s != classic %.12s", shards, rep.Acc.Sum(), want.Acc.Sum())
		}
		if err := rep.Verify(); err != nil {
			t.Errorf("%d shards: report fails verification: %v", shards, err)
		}
		digests = append(digests, rep.MergedDigest)
	}
	if digests[0] != digests[1] {
		t.Errorf("merged digest depends on shard count: 1 shard %.12s, 3 shards %.12s", digests[0], digests[1])
	}
}

// TestShardCrashResumeReproducesMergedDigest is the headline resilience
// invariant: complete a journaled sharded sweep, then lose one shard's
// journal entirely and tear a survivor's mid-record — the resumed run
// must replay survivors without re-scanning, re-hash the lost shard's
// hosts across survivors, and seal the exact MergedDigest of the
// uninterrupted run, with the whole journal set passing the deep audit.
func TestShardCrashResumeReproducesMergedDigest(t *testing.T) {
	const shards = 3
	src := infectedSource(24)

	refDir := t.TempDir()
	refCoord, err := New(Config{Shards: shards, JournalDir: refDir}, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refCoord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Scanned != 24 || ref.Infected != 2 {
		t.Fatalf("reference sweep = scanned %d infected %d", ref.Scanned, ref.Infected)
	}

	dir := t.TempDir()
	coord, err := New(Config{Shards: shards, JournalDir: dir}, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Sweep(); err != nil {
		t.Fatal(err)
	}
	// The crash: shard 1's journal is gone, shard 0's is torn after a
	// few records (mid-sweep kill), shard 2's survived intact.
	if err := os.Remove(shardJournalPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.TruncateRecords(shardJournalPath(dir, 0), 6, true); err != nil {
		t.Fatal(err)
	}

	resumedCoord, err := New(Config{Shards: shards, JournalDir: dir}, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := resumedCoord.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.LostShards) != 1 || rep.LostShards[0] != 1 {
		t.Fatalf("LostShards = %v, want [1]", rep.LostShards)
	}
	if rep.Scanned != 24 {
		t.Fatalf("resume scanned %d of 24", rep.Scanned)
	}
	if rep.Replayed == 0 {
		t.Error("resume replayed nothing — surviving journals were ignored")
	}
	if rep.MergedDigest != ref.MergedDigest {
		t.Errorf("resumed merged digest %.12s != uninterrupted %.12s", rep.MergedDigest, ref.MergedDigest)
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("resumed report fails verification: %v", err)
	}
	if err := rep.VerifyJournals(dir); err != nil {
		t.Errorf("journal audit after resume: %v", err)
	}

	adopted := 0
	for _, sr := range rep.ShardResults {
		if sr.Lost && sr.Shard != 1 {
			t.Errorf("shard %d marked lost", sr.Shard)
		}
		adopted += sr.Adopted
	}
	if adopted == 0 {
		t.Error("no survivor adopted the lost shard's hosts")
	}
}

// TestResumeAfterTotalLossStartsOver: when every journal is gone there
// is nothing to replay; Resume must rerun the sweep under the original
// topology and still seal the reference digest.
func TestResumeAfterTotalLossStartsOver(t *testing.T) {
	src := infectedSource(12)
	dir := t.TempDir()
	coord, err := New(Config{Shards: 3, JournalDir: dir}, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := coord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := os.Remove(shardJournalPath(dir, s)); err != nil {
			t.Fatal(err)
		}
	}
	again, err := New(Config{Shards: 3, JournalDir: dir}, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := again.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 {
		t.Errorf("total loss replayed %d hosts from nowhere", rep.Replayed)
	}
	if rep.MergedDigest != ref.MergedDigest {
		t.Errorf("restarted merged digest %.12s != reference %.12s", rep.MergedDigest, ref.MergedDigest)
	}
	if err := rep.VerifyJournals(dir); err != nil {
		t.Errorf("journal audit after restart: %v", err)
	}
}

// TestResumeRestartsHeaderlessShardJournal: a shard that died before
// its journal header committed leaves an empty file behind. Resume must
// not trust it, not error out — it restarts that shard's sweep and
// still seals the reference digest.
func TestResumeRestartsHeaderlessShardJournal(t *testing.T) {
	src := infectedSource(18)
	dir := t.TempDir()
	coord, err := New(Config{Shards: 3, JournalDir: dir}, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := coord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(shardJournalPath(dir, 1), 0); err != nil {
		t.Fatal(err)
	}
	again, err := New(Config{Shards: 3, JournalDir: dir}, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := again.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 18 || rep.MergedDigest != ref.MergedDigest {
		t.Errorf("resume after headerless journal: scanned %d, digest %.12s (reference %.12s)",
			rep.Scanned, rep.MergedDigest, ref.MergedDigest)
	}
	if err := rep.VerifyJournals(dir); err != nil {
		t.Errorf("journal audit: %v", err)
	}
}

// TestResumeValidatesManifest: resuming under a different shard count
// than the manifest records must refuse loudly, not silently re-hash.
func TestResumeValidatesManifest(t *testing.T) {
	src := infectedSource(8)
	dir := t.TempDir()
	coord, err := New(Config{Shards: 4, JournalDir: dir}, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Sweep(); err != nil {
		t.Fatal(err)
	}
	wrong, err := New(Config{Shards: 5, JournalDir: dir}, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrong.Resume(); err == nil || !strings.Contains(err.Error(), "topology") {
		t.Errorf("resume with wrong shard count: %v", err)
	}
}

// TestMergedDigestIndependentOfShardTopology: at synthetic scale, every
// shard count seals the same merged digest, and adding shards shrinks
// the virtual makespan — the scaling property paperbench curves in full.
func TestMergedDigestIndependentOfShardTopology(t *testing.T) {
	src := SyntheticSource{N: 5000}
	scan := SyntheticScan(1)
	var first *Report
	var makespan1 int64
	for _, shards := range []int{1, 2, 7, 64} {
		coord, err := New(Config{Shards: shards, ShardParallelism: 8, ScanHost: scan}, src)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := coord.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scanned != src.N {
			t.Fatalf("%d shards scanned %d of %d", shards, rep.Scanned, src.N)
		}
		if err := rep.Verify(); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if first == nil {
			first = rep
			makespan1 = rep.MakespanNs
			if rep.Infected == 0 {
				t.Fatal("synthetic fleet carries no infections — the digest equality below would be vacuous")
			}
			continue
		}
		if rep.MergedDigest != first.MergedDigest {
			t.Errorf("%d shards sealed %.12s, 1 shard sealed %.12s", shards, rep.MergedDigest, first.MergedDigest)
		}
		if rep.VirtualNs != first.VirtualNs {
			t.Errorf("%d shards charged %d virtual ns, 1 shard %d — total work must not depend on topology", shards, rep.VirtualNs, first.VirtualNs)
		}
	}
	coord, err := New(Config{Shards: 64, ShardParallelism: 8, ScanHost: scan}, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanNs*8 > makespan1 {
		t.Errorf("64 shards makespan %d ns is not even 8× better than 1 shard's %d ns", rep.MakespanNs, makespan1)
	}
}

// TestBoundedResidentResults pins the bounded-memory invariant: across
// a synthetic sweep far larger than the worker pool, peak resident
// results never exceed O(shards in flight × workers) — concretely
// ShardParallelism × (ShardWorkers + 1).
func TestBoundedResidentResults(t *testing.T) {
	const (
		hosts            = 4000
		shards           = 8
		shardParallelism = 4
		shardWorkers     = 2
	)
	coord, err := New(Config{
		Shards: shards, ShardParallelism: shardParallelism,
		ShardWorkers: shardWorkers, ScanHost: SyntheticScan(1),
	}, SyntheticSource{N: hosts})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != hosts {
		t.Fatalf("scanned %d of %d", rep.Scanned, hosts)
	}
	bound := shardParallelism * (shardWorkers + 1)
	if rep.PeakResident == 0 || rep.PeakResident > bound {
		t.Errorf("peak resident results %d, bound is parallelism×(workers+1) = %d", rep.PeakResident, bound)
	}
}

// TestShardRetryRecoversTransientFault: a shard that fails twice and
// then succeeds must deliver its full summary, account the saturating
// backoff as virtual retry time, and leave the merged digest identical
// to a fault-free run.
func TestShardRetryRecoversTransientFault(t *testing.T) {
	src := SyntheticSource{N: 600}
	scan := SyntheticScan(1)
	clean, err := New(Config{Shards: 4, ScanHost: scan}, src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Sweep()
	if err != nil {
		t.Fatal(err)
	}

	coord, err := New(Config{
		Shards: 4, ScanHost: scan, ShardMaxRetries: 3,
		ShardFault: func(shard, attempt int) error {
			if shard == 1 && attempt <= 2 {
				return fmt.Errorf("injected: sweeper process crashed")
			}
			return nil
		},
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MergedDigest != want.MergedDigest {
		t.Errorf("faulted run sealed %.12s, clean run %.12s", rep.MergedDigest, want.MergedDigest)
	}
	var row *ShardResult
	for i := range rep.ShardResults {
		if rep.ShardResults[i].Shard == 1 {
			row = &rep.ShardResults[i]
		}
	}
	if row == nil || row.Attempts != 3 {
		t.Fatalf("shard 1 attempts = %+v, want 3", row)
	}
	// 2s first wait, doubled once: 6s of virtual retry backoff.
	if got := time.Duration(row.RetryNs); got != 6*time.Second {
		t.Errorf("shard 1 retry backoff %v, want 6s (2s + 4s)", got)
	}
	if rep.MakespanNs <= want.MakespanNs {
		t.Error("retry backoff did not lengthen the virtual makespan")
	}
}

// TestShardBreakerQuarantines: a shard failing past its breaker
// threshold is quarantined — its hosts are reported NotScanned, never
// silently dropped — and the report still verifies.
func TestShardBreakerQuarantines(t *testing.T) {
	src := SyntheticSource{N: 800}
	coord, err := New(Config{
		Shards: 4, ScanHost: SyntheticScan(1),
		ShardMaxRetries: 10, ShardBreakerThreshold: 2,
		ShardFault: func(shard, attempt int) error {
			if shard == 2 {
				return fmt.Errorf("injected: shard storage offline")
			}
			return nil
		},
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.QuarantinedShards) != 1 || rep.QuarantinedShards[0] != 2 {
		t.Fatalf("QuarantinedShards = %v, want [2]", rep.QuarantinedShards)
	}
	var quarantinedHosts int
	for _, sr := range rep.ShardResults {
		if sr.Shard == 2 {
			quarantinedHosts = sr.Hosts
			if sr.Attempts != 2 {
				t.Errorf("breaker opened after %d attempts, want 2", sr.Attempts)
			}
			if sr.Summary != nil {
				t.Error("quarantined shard delivered a summary")
			}
		}
	}
	if quarantinedHosts == 0 {
		t.Fatal("shard 2 owned no hosts — quarantine test is vacuous")
	}
	if rep.NotScanned != quarantinedHosts {
		t.Errorf("NotScanned = %d, want the quarantined shard's %d hosts", rep.NotScanned, quarantinedHosts)
	}
	if rep.Scanned+rep.NotScanned != src.N {
		t.Errorf("scanned %d + not scanned %d != %d hosts", rep.Scanned, rep.NotScanned, src.N)
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("report with quarantined shard fails verification: %v", err)
	}
}

// TestShardErrorBudgetAborts: once more than the budgeted fraction of
// shards has failed, the coordinator stops dispatching and marks the
// run aborted — AbortAfterFailureFraction one tier up.
func TestShardErrorBudgetAborts(t *testing.T) {
	src := SyntheticSource{N: 1600}
	bad := map[int]bool{1: true, 3: true, 5: true}
	coord, err := New(Config{
		Shards: 8, ShardParallelism: 1, ScanHost: SyntheticScan(1),
		AbortAfterShardFailureFraction: 0.25,
		ShardFault: func(shard, attempt int) error {
			if bad[shard] {
				return fmt.Errorf("injected: shard unreachable")
			}
			return nil
		},
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted || !strings.Contains(rep.AbortReason, "shard error budget") {
		t.Fatalf("aborted=%v reason=%q", rep.Aborted, rep.AbortReason)
	}
	if rep.NotScanned == 0 {
		t.Error("abort left no hosts unscanned — budget tripped too late to matter")
	}
	if rep.Scanned+rep.NotScanned != src.N {
		t.Errorf("scanned %d + not scanned %d != %d", rep.Scanned, rep.NotScanned, src.N)
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("aborted report fails verification: %v", err)
	}
}

// TestReportVerifyDetectsTamper: any post-seal edit — aggregate
// counters, a shard summary, or a journal byte — must fail the matching
// verification layer.
func TestReportVerifyDetectsTamper(t *testing.T) {
	src := infectedSource(9)
	dir := t.TempDir()
	coord, err := New(Config{Shards: 3, JournalDir: dir}, src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("fresh report fails verification: %v", err)
	}
	if err := rep.VerifyJournals(dir); err != nil {
		t.Fatalf("fresh journals fail audit: %v", err)
	}

	tampered := *rep
	tampered.Infected = 0
	if err := tampered.Verify(); err == nil {
		t.Error("hiding infections from the aggregate passed verification")
	}

	tampered = *rep
	tampered.ShardResults = append([]ShardResult(nil), rep.ShardResults...)
	for i := range tampered.ShardResults {
		if s := tampered.ShardResults[i].Summary; s != nil && s.Infected > 0 {
			edited := *s
			edited.Infected = 0
			edited.Scanned = s.Scanned // counters must re-aggregate, so adjust nothing else
			tampered.ShardResults[i].Summary = &edited
			break
		}
	}
	if err := tampered.Verify(); err == nil {
		t.Error("editing a shard summary passed verification")
	}

	// Flip one byte inside a shard journal: the audit must refuse.
	path := shardJournalPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rep.VerifyJournals(dir); err == nil {
		t.Error("corrupted journal passed the deep audit")
	}
}
