package fleet_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ghostbuster/internal/fleet"
	"ghostbuster/internal/fleetshard"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/journal"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/supervise"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sweep_digests.golden from this run")

const goldenPath = "testdata/sweep_digests.golden"

// run sweeps one plan with a Collector attached and returns the sealed
// report and summary.
func run(t *testing.T, mgr *fleet.Manager, p fleet.Plan) (*fleet.Report, *fleet.SweepSummary) {
	t.Helper()
	col := fleet.NewCollector(mgr)
	p.Sink = col.Add
	sum, err := mgr.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return col.Report(sum), sum
}

// goldSource builds n small deterministic machines; host 1 carries
// Hacker Defender, so every path must preserve a true finding.
type goldSource struct{ n int }

func (s goldSource) Len() int          { return s.n }
func (s goldSource) Name(i int) string { return fmt.Sprintf("gold-%02d", i) }
func (s goldSource) Build(i int) (*machine.Machine, error) {
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
	if i == 1 {
		if err := ghostware.NewHackerDefender().Install(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// enroll adds every source host to a fresh manager, lazily built.
func enroll(src fleetshard.HostSource) *fleet.Manager {
	mgr := fleet.NewManager()
	for i := 0; i < src.Len(); i++ {
		i := i
		mgr.AddLazy(src.Name(i), func() (*machine.Machine, error) { return src.Build(i) })
	}
	return mgr
}

// synthetic enrolls n machine-less hosts scanned through scan.
func synthetic(n int, scan func(*fleet.Host, fleet.SweepKind) fleet.HostResult) *fleet.Manager {
	mgr := enroll(fleetshard.SyntheticSource{N: n})
	mgr.ScanHost = scan
	return mgr
}

// flakyScan is SyntheticScan(7) with two misbehaving hosts: index 2
// fails its first two attempts, index 5 fails every attempt.
func flakyScan() func(*fleet.Host, fleet.SweepKind) fleet.HostResult {
	base := fleetshard.SyntheticScan(7)
	src := fleetshard.SyntheticSource{}
	var mu sync.Mutex
	tries := map[string]int{}
	return func(h *fleet.Host, kind fleet.SweepKind) fleet.HostResult {
		mu.Lock()
		tries[h.Name]++
		n := tries[h.Name]
		mu.Unlock()
		if h.Name == src.Name(5) || (h.Name == src.Name(2) && n <= 2) {
			return fleet.HostResult{Host: h.Name, Kind: kind, Err: "transient: io", Elapsed: time.Millisecond}
		}
		return base(h, kind)
	}
}

// failingTail is SyntheticScan(7) where the last two of n hosts fail.
func failingTail(n int) func(*fleet.Host, fleet.SweepKind) fleet.HostResult {
	base := fleetshard.SyntheticScan(7)
	src := fleetshard.SyntheticSource{}
	return func(h *fleet.Host, kind fleet.SweepKind) fleet.HostResult {
		if h.Name == src.Name(n-1) || h.Name == src.Name(n-2) {
			return fleet.HostResult{Host: h.Name, Kind: kind, Err: "disk: read fault", Elapsed: time.Millisecond}
		}
		return base(h, kind)
	}
}

// straggling is SyntheticScan(7) whose victim's first scan stalls.
func straggling(victim string) func(*fleet.Host, fleet.SweepKind) fleet.HostResult {
	base := fleetshard.SyntheticScan(7)
	var once sync.Once
	return func(h *fleet.Host, kind fleet.SweepKind) fleet.HostResult {
		if h.Name == victim {
			once.Do(func() { time.Sleep(200 * time.Millisecond) })
		}
		return base(h, kind)
	}
}

func goldHedge() *fleet.HedgePolicy {
	return &fleet.HedgePolicy{MinSamples: 3, Floor: 5 * time.Millisecond, Multiplier: 1}
}

func coordinate(t *testing.T, cfg fleetshard.Config, src fleetshard.HostSource, resumeRun bool) *fleetshard.Report {
	t.Helper()
	c, err := fleetshard.New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	var rep *fleetshard.Report
	if resumeRun {
		rep, err = c.Resume()
	} else {
		rep, err = c.Sweep()
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// truncateAfterCommits cuts a journal right after its nth terminal record.
func truncateAfterCommits(t *testing.T, path string, n int) {
	t.Helper()
	recs, _, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.State.Terminal() {
			if n--; n == 0 {
				if _, err := journal.TruncateRecords(path, i+1, false); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	t.Fatalf("%s: too few terminal records", path)
}

// TestSweepDigestsGolden pins the sealed digests of every sweep path —
// the fleet Report digest, the SweepSummary digest, and the sharded
// MergedDigest — plus the virtual-time sums that expose the retry wait
// schedule, against a committed golden file. Equality tests between
// sweep flavors cannot catch both sides drifting together; this can.
// Regenerate only for an intended format change: go test -run
// TestSweepDigestsGolden ./internal/fleet/ -update
func TestSweepDigestsGolden(t *testing.T) {
	got := map[string]string{}
	dir := t.TempDir()
	real := goldSource{n: 4}

	// Unjournaled and journaled: one run seals both the report and the
	// summary.
	rep, sum := run(t, enroll(real), fleet.Plan{Workers: 2})
	if inf := rep.Infected(); len(inf) != 1 || inf[0] != real.Name(1) {
		t.Fatalf("fixture infected = %v, want [%s]", inf, real.Name(1))
	}
	got["unjournaled.report"], got["unjournaled.summary"] = rep.Digest, sum.Digest
	got["unjournaled.merged"] = coordinate(t, fleetshard.Config{Shards: 2}, real, false).MergedDigest
	rep, sum = run(t, enroll(real), fleet.Plan{Workers: 2, Journal: filepath.Join(dir, "j.gbj")})
	got["journaled.report"], got["journaled.summary"] = rep.Digest, sum.Digest
	got["journaled.merged"] = coordinate(t, fleetshard.Config{Shards: 2, JournalDir: filepath.Join(dir, "j-shards")}, real, false).MergedDigest

	// Killed after two commits, resumed on a rebuilt fleet; the same
	// wreck replayed without scanning anything.
	killed := func(name string) string {
		path := filepath.Join(dir, name)
		run(t, enroll(real), fleet.Plan{Workers: 1, Journal: path})
		truncateAfterCommits(t, path, 2)
		return path
	}
	rep, sum = run(t, enroll(real), fleet.Plan{Workers: 1, Journal: killed("k.gbj"), Mode: fleet.ModeResume})
	got["killed-resumed.report"], got["killed-resumed.summary"] = rep.Digest, sum.Digest
	kd := filepath.Join(dir, "k-shards")
	coordinate(t, fleetshard.Config{Shards: 2, JournalDir: kd}, real, false)
	if err := os.Remove(filepath.Join(kd, "shard-000.gbj")); err != nil {
		t.Fatal(err)
	}
	truncateAfterCommits(t, filepath.Join(kd, "shard-001.gbj"), 1)
	got["killed-resumed.merged"] = coordinate(t, fleetshard.Config{Shards: 2, JournalDir: kd}, real, true).MergedDigest
	_, sum = run(t, enroll(real), fleet.Plan{Workers: 1, Journal: killed("r.gbj"), Mode: fleet.ModeReplay})
	got["replay-only.summary"] = sum.Digest

	// Budget-aborted: the last two of six hosts fail, crossing a 20%
	// budget on the final host.
	aborting := synthetic(6, failingTail(6))
	aborting.AbortAfterFailureFraction = 0.2
	rep, sum = run(t, aborting, fleet.Plan{Workers: 1, Journal: filepath.Join(dir, "a.gbj")})
	if !rep.Aborted {
		t.Fatal("budget fixture did not abort")
	}
	got["budget-aborted.report"], got["budget-aborted.summary"] = rep.Digest, sum.Digest
	got["budget-aborted.merged"] = coordinate(t, fleetshard.Config{
		Shards: 1, ScanHost: failingTail(6), AbortAfterFailureFraction: 0.2,
	}, fleetshard.SyntheticSource{N: 6}, false).MergedDigest

	// Jittered retry: host 2 recovers on its third attempt, host 5 trips
	// the breaker; the virtual-time sums pin the exact wait schedule.
	retrying := func(seed int64) *fleet.Manager {
		mgr := synthetic(8, flakyScan())
		mgr.Retry = supervise.RetryPolicy{MaxRetries: 4, Backoff: 2 * time.Second, BreakerThreshold: 3, JitterSeed: seed}
		return mgr
	}
	rep, sum = run(t, retrying(99), fleet.Plan{Workers: 2, Journal: filepath.Join(dir, "r.gbj")})
	got["jittered-retry.report"], got["jittered-retry.summary"] = rep.Digest, sum.Digest
	got["jittered-retry.virtual-ns"] = fmt.Sprint(sum.VirtualNs)
	_, sum = run(t, retrying(0), fleet.Plan{Workers: 2})
	got["jittered-retry.plain-virtual-ns"] = fmt.Sprint(sum.VirtualNs)
	shardCfg := func(seed int64) fleetshard.Config {
		return fleetshard.Config{
			Shards: 2, ScanHost: flakyScan(),
			MaxRetries: 4, RetryBackoff: 2 * time.Second, BreakerThreshold: 3,
			ShardMaxRetries: 3, ShardRetryBackoff: 3 * time.Second,
			ShardFault: func(shard, attempt int) error {
				if shard == 0 && attempt <= 2 {
					return fmt.Errorf("injected shard fault")
				}
				return nil
			},
			BackoffJitterSeed: seed,
		}
	}
	jr := coordinate(t, shardCfg(99), fleetshard.SyntheticSource{N: 8}, false)
	got["jittered-retry.merged"] = jr.MergedDigest
	got["jittered-retry.makespan-ns"] = fmt.Sprint(jr.MakespanNs)
	got["jittered-retry.plain-makespan-ns"] = fmt.Sprint(coordinate(t, shardCfg(0), fleetshard.SyntheticSource{N: 8}, false).MakespanNs)

	// Hedged: one straggler among twelve hosts.
	victim := fleetshard.SyntheticSource{}.Name(11)
	hedged := synthetic(12, straggling(victim))
	hedged.Hedge = goldHedge()
	rep, sum = run(t, hedged, fleet.Plan{Workers: 3, Journal: filepath.Join(dir, "h.gbj")})
	got["hedged.report"], got["hedged.summary"] = rep.Digest, sum.Digest
	got["hedged.merged"] = coordinate(t, fleetshard.Config{
		Shards: 2, ShardWorkers: 3, ScanHost: straggling(victim), Hedge: goldHedge(),
	}, fleetshard.SyntheticSource{N: 12}, false).MergedDigest

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, got[k])
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	if b.String() != string(want) {
		t.Errorf("sweep digests drifted from %s:\n got:\n%s\nwant:\n%s", goldenPath, b.String(), want)
	}
}
