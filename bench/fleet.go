package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/fleetshard"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/journal"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/supervise"
)

// residentHosts serves already-built machines to a coordinator, the way
// the daemon serves its registered hosts.
type residentHosts []*machine.Machine

func (r residentHosts) Len() int                              { return len(r) }
func (r residentHosts) Name(i int) string                     { return hostName(i) }
func (r residentHosts) Build(i int) (*machine.Machine, error) { return r[i], nil }

// sweepConfig is the standard profile forwarded to a 4-shard
// coordinator with one worker per shard, journaling under dir.
func sweepConfig(dir string) fleetshard.Config {
	p := standard
	return fleetshard.Config{
		Shards: 4, ShardWorkers: 1, JournalDir: dir,
		HostParallelism:           p.HostParallelism,
		MaxRetries:                p.MaxRetries,
		RetryBackoff:              p.RetryBackoff,
		HostDeadline:              p.Deadline,
		BreakerThreshold:          p.BreakerThreshold,
		AbortAfterFailureFraction: p.AbortAfterFailureFraction,
		ConfigureDetector:         p.ConfigureDetector,
	}
}

// fleetBench is fleet-1k: closed-loop sharded sweeps of resident small
// hosts, every fleetInfect-th one infected.
type fleetBench struct {
	hosts   residentHosts
	planted int
	work    string
	seq     int    // sweeps run, naming each sweep's journal directory
	dir     string // the last sweep's journal directory
	merged  string // MergedDigest of the set-up sweep
}

func setupFleet(seed int64, sc scale, work string) (instance, error) {
	f := &fleetBench{work: work}
	rng := rand.New(rand.NewSource(seed))
	catalog := ghostware.Catalog()
	for i := 0; i < sc.fleetHosts; i++ {
		m, err := smallHost(mix(seed, i))
		if err != nil {
			return nil, err
		}
		if i%sc.fleetInfect == 0 {
			if err := infect(m, catalog[rng.Intn(len(catalog))]); err != nil {
				return nil, err
			}
			f.planted++
		}
		f.hosts = append(f.hosts, m)
	}
	rep, err := f.sweep(sweepConfig(""))
	if err := f.verify(rep, err); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	f.merged = rep.MergedDigest
	return f, nil
}

// sweep runs one sharded sweep with a fresh journal directory, deleting
// the previous sweep's.
func (f *fleetBench) sweep(cfg fleetshard.Config) (*fleetshard.Report, error) {
	if f.dir != "" {
		if err := os.RemoveAll(f.dir); err != nil {
			return nil, err
		}
	}
	f.seq++
	f.dir = filepath.Join(f.work, fmt.Sprintf("fleet-sweep-%04d", f.seq))
	cfg.JournalDir = f.dir
	c, err := fleetshard.New(cfg, f.hosts)
	if err != nil {
		return nil, err
	}
	return c.Sweep()
}

// verify is the per-sweep oracle: the report's digest chain holds, the
// topology-independent digest is the set-up sweep's, and exactly the
// planted hosts are infected.
func (f *fleetBench) verify(rep *fleetshard.Report, err error) error {
	if err != nil {
		return err
	}
	if err := rep.Verify(); err != nil {
		return err
	}
	switch {
	case rep.Scanned != len(f.hosts) || rep.Failed != 0:
		return fmt.Errorf("sweep scanned %d of %d hosts, %d failed", rep.Scanned, len(f.hosts), rep.Failed)
	case rep.Infected != f.planted:
		return fmt.Errorf("sweep found %d infected hosts, %d planted", rep.Infected, f.planted)
	case f.merged != "" && rep.MergedDigest != f.merged:
		return fmt.Errorf("merged digest %.12s differs from set-up sweep %.12s", rep.MergedDigest, f.merged)
	}
	return nil
}

func (f *fleetBench) run(dur time.Duration, tr *tracer, t *tally) *opStats {
	st := &opStats{}
	end := time.Now().Add(dur)
	var last *fleetshard.Report
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		cfg := sweepConfig("")
		trace := fmt.Sprintf("sweep-%d", f.seq+1)
		id := tr.newID()
		var caches cacheWatch
		if tr != nil {
			cfg.OnResult = newCommitLog(tr, id, trace).onResult
			cfg.ConfigureDetector = caches.configure
		}
		start := time.Now()
		rep, err := f.sweep(cfg)
		stop := time.Now()
		tr.add(id, "fleet.sweep", 0, trace, start, stop)
		err = f.verify(rep, err)
		t.check(err)
		st.latencies = append(st.latencies, stop.Sub(start))
		last = nil // f.dir now holds this sweep's journals
		if err == nil {
			last = rep
			st.virtual = append(st.virtual, time.Duration(rep.MakespanNs))
		}
		hits, lookups := caches.stats()
		st.cacheHits += hits
		st.cacheLookups += lookups
	}
	st.roots = st.latencies
	// The deep audit, once per run: replay every shard journal of the
	// last sweep down the whole digest chain.
	if last == nil {
		t.check(fmt.Errorf("no verified sweep to audit the journals of"))
	} else {
		t.check(last.VerifyJournals(f.dir))
	}
	return st
}

func (f *fleetBench) machines() []*machine.Machine { return f.hosts }

func (f *fleetBench) close() {}

// commitLog is a coordinator OnResult hook. Per committed host it keeps
// the gap since its shard's previous commit (or since the sweep
// started) and records it as a child of the sweep span. Shards commit
// concurrently, hence the lock.
type commitLog struct {
	tr     *tracer
	parent int
	trace  string
	start  time.Time

	mu      sync.Mutex
	last    map[int]time.Time
	gaps    []time.Duration
	retried int
}

func newCommitLog(tr *tracer, parent int, trace string) *commitLog {
	return &commitLog{tr: tr, parent: parent, trace: trace, start: time.Now(), last: map[int]time.Time{}}
}

func (c *commitLog) onResult(shard int, res fleet.HostResult) {
	now := time.Now()
	c.mu.Lock()
	from, ok := c.last[shard]
	if !ok {
		from = c.start
	}
	c.last[shard] = now
	c.gaps = append(c.gaps, now.Sub(from))
	if res.Attempts > 1 {
		c.retried++
	}
	c.mu.Unlock()
	c.tr.record("fleet.host_commit", c.parent, c.trace, from, now)
}

// cacheWatch applies the standard profile to every per-host detector a
// sweep builds and remembers its scan cache, so the sweep's cache hit
// ratio can be read from outside.
type cacheWatch struct {
	mu     sync.Mutex
	caches []*core.ScanCache
}

func (w *cacheWatch) configure(d *core.Detector) {
	standard.ConfigureDetector(d)
	if d.Cache != nil {
		w.mu.Lock()
		w.caches = append(w.caches, d.Cache)
		w.mu.Unlock()
	}
}

func (w *cacheWatch) stats() (hits, lookups int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range w.caches {
		s := c.Stats()
		hits += s.Hits
		lookups += s.Hits + s.Misses
	}
	return hits, lookups
}

// fleetLayers drives the control-plane layers over a workload's hosts:
// one journaled coordinator sweep timed per host commit, a re-append of
// that sweep's own journal records, and synthetic-scan sweeps of a
// fleetHosts-name fleet, bare and with idle supervision armed.
func fleetLayers(hosts []*machine.Machine, sc scale, seed int64, work string, tr *tracer) (map[string]metric, error) {
	dir := filepath.Join(work, "probe-fleet")
	defer os.RemoveAll(dir)
	cfg := sweepConfig(dir)
	id := tr.newID()
	commits := newCommitLog(tr, id, "probe-fleet")
	cfg.OnResult = commits.onResult
	c, err := fleetshard.New(cfg, residentHosts(hosts))
	if err != nil {
		return nil, err
	}
	rep, err := c.Sweep()
	tr.add(id, "probe.fleet_sweep", 0, "probe-fleet", commits.start, time.Now())
	if err != nil {
		return nil, err
	}
	if err := rep.Verify(); err != nil {
		return nil, err
	}

	appends, synced, bytes, err := reappendJournals(dir, tr)
	if err != nil {
		return nil, err
	}

	// Synthetic sweeps isolate the coordinator: no machine is built or
	// scanned, so the wall is scheduler, fold and digest work. Bare and
	// supervised runs alternate so drift hits both alike.
	synth := func(supervised bool) (time.Duration, int, error) {
		cfg := sweepConfig("")
		cfg.ScanHost = fleetshard.SyntheticScan(seed)
		if supervised {
			cfg.Watchdog = supervise.Policy{Deadline: 30 * time.Second, Misses: 3}
			cfg.Hedge = &fleet.HedgePolicy{Floor: time.Hour} // armed, never fires
			cfg.BackoffJitterSeed = seed
		}
		c, err := fleetshard.New(cfg, fleetshard.SyntheticSource{N: sc.fleetHosts})
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		rep, err := c.Sweep()
		stop := time.Now()
		if err != nil {
			return 0, 0, err
		}
		name := "fleetshard.synthetic_sweep"
		if supervised {
			name = "supervise.idle_sweep"
		}
		tr.record(name, 0, "probe-synthetic", start, stop)
		return stop.Sub(start), rep.PeakResident, rep.Verify()
	}
	var bare, sup []time.Duration
	peak := 0
	for i := 0; i < 5; i++ {
		b, p, err := synth(false)
		if err != nil {
			return nil, err
		}
		s, _, err := synth(true)
		if err != nil {
			return nil, err
		}
		bare, sup = append(bare, b), append(sup, s)
		peak = max(peak, p)
	}

	n := float64(len(hosts))
	return map[string]metric{
		"fleet.host_commit_ms.p50":       {quantile(millis(commits.gaps), 0.5), "ms"},
		"fleet.host_commit_ms.p99":       {quantile(millis(commits.gaps), 0.99), "ms"},
		"fleet.retried_hosts":            {float64(commits.retried), "count"},
		"fleet.degraded_hosts":           {float64(rep.DegradedHosts), "count"},
		"journal.append_us.p50":          {quantile(millis(appends), 0.5) * 1e3, "us"},
		"journal.append_us.p99":          {quantile(millis(appends), 0.99) * 1e3, "us"},
		"journal.synced_records":         {float64(synced), "count"},
		"journal.bytes_per_host":         {float64(bytes) / n, "B"},
		"fleetshard.control_us_per_host": {medianIn(bare, time.Microsecond) / float64(sc.fleetHosts), "us"},
		"fleetshard.peak_resident":       {float64(peak), "count"},
		"supervise.idle_overhead_ratio":  {medianIn(sup, time.Millisecond) / medianIn(bare, time.Millisecond), "ratio"},
	}, nil
}

// reappendJournals replays every shard journal a sweep wrote into a
// fresh journal beside it, timing each Append (frame, checksum, write
// and, for terminal and sweep records, fsync) on the same filesystem.
func reappendJournals(dir string, tr *tracer) (appends []time.Duration, synced int, bytes int64, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.gbj"))
	if err != nil {
		return nil, 0, 0, err
	}
	if len(paths) == 0 {
		return nil, 0, 0, fmt.Errorf("no shard journals under %s", dir)
	}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, 0, 0, err
		}
		bytes += fi.Size()
		recs, torn, err := journal.Read(p)
		if err != nil {
			return nil, 0, 0, err
		}
		if torn != 0 {
			return nil, 0, 0, fmt.Errorf("%s: %d-byte torn tail after a clean sweep", p, torn)
		}
		j, err := journal.Create(p + ".copy")
		if err != nil {
			return nil, 0, 0, err
		}
		for _, r := range recs {
			if r.State.Terminal() || r.State == journal.StateSweep || r.State == journal.StateAborted {
				synced++
			}
			start := time.Now()
			_, err := j.Append(r)
			stop := time.Now()
			if err != nil {
				j.Close()
				return nil, 0, 0, err
			}
			tr.record("journal.append", 0, "probe-journal", start, stop)
			appends = append(appends, stop.Sub(start))
		}
		if err := j.Close(); err != nil {
			return nil, 0, 0, err
		}
	}
	return appends, synced, bytes, nil
}
