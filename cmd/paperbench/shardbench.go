// Shard benchmark mode: the fleet-of-fleets scaling curve and the
// million-host bounded-memory sweep. Both run the real control plane —
// consistent-hash partitioning, per-shard streamed sweeps, merged
// digest chain — over a synthetic deterministic workload, so the gated
// metrics (virtual makespan, speedup, peak resident results, per-host
// allocations) are identical on any hardware for the same flags.
package main

import (
	"fmt"
	"runtime"
	"time"

	"ghostbuster/internal/fleet"
	"ghostbuster/internal/fleetshard"
	"ghostbuster/internal/supervise"
)

// shardScaleResult is one shard-count entry of the scaling curve.
type shardScaleResult struct {
	Shards int   `json:"shards"`
	Hosts  int   `json:"hosts"`
	WallNs int64 `json:"wallNs"`
	// MakespanNs is the sweep's virtual completion time: shards sweep in
	// parallel, so it is the max per-shard virtual cost — deterministic,
	// and the quantity the near-linear-scaling gate tracks.
	MakespanNs   int64   `json:"makespanNs"`
	Speedup      float64 `json:"speedup"` // 1-shard makespan / this makespan
	PeakResident int     `json:"peakResident"`
}

// megaSweepResult is the million-host section: completes a simulated
// sweep at full scale with the resident-results ceiling pinned.
type megaSweepResult struct {
	Hosts            int   `json:"hosts"`
	Shards           int   `json:"shards"`
	ShardParallelism int   `json:"shardParallelism"`
	ShardWorkers     int   `json:"shardWorkers"`
	WallNs           int64 `json:"wallNs"`
	VirtualNs        int64 `json:"virtualNs"`
	MakespanNs       int64 `json:"makespanNs"`
	// Speedup is VirtualNs/MakespanNs: how evenly the ring spread the
	// virtual work across shards (ideal = Shards).
	Speedup  float64 `json:"speedup"`
	Infected int     `json:"infected"`
	// PeakResident must stay at or under ResidentBound =
	// ShardParallelism × (ShardWorkers + 1): the bounded-memory
	// invariant, enforced here and gated against the baseline.
	PeakResident  int     `json:"peakResident"`
	ResidentBound int     `json:"residentBound"`
	AllocsPerHost float64 `json:"allocsPerHost"`
	MergedDigest  string  `json:"mergedDigest"`
}

// supervisionBenchResult is the idle-supervision section: the same
// sharded synthetic sweep run bare and with the full supervision layer
// armed (watchdog heartbeats, hedging, jittered backoff) but never
// firing. Supervision is wall-clock-only machinery, so the virtual
// makespan and merged digest must be identical; the gated metrics are
// that equality plus the supervised run's allocation cost.
type supervisionBenchResult struct {
	Hosts  int `json:"hosts"`
	Shards int `json:"shards"`
	// Wall times are informational (noisy on shared runners); the
	// overhead ratio is printed, never gated.
	BareWallNs       int64   `json:"bareWallNs"`
	SupervisedWallNs int64   `json:"supervisedWallNs"`
	WallOverhead     float64 `json:"wallOverhead"`
	// VirtualDeltaNs is supervised makespan minus bare makespan; idle
	// supervision must hold it at exactly zero.
	MakespanNs     int64   `json:"makespanNs"`
	VirtualDeltaNs int64   `json:"virtualDeltaNs"`
	DigestMatch    bool    `json:"digestMatch"`
	AllocsPerHost  float64 `json:"allocsPerHost"`
}

// runSupervisionBench measures what an armed-but-idle supervision layer
// costs: heartbeat beacons, watchdog timers, and the hedge tracker all
// run, but nothing wedges or straggles, so the sweep must be
// byte-identical to the bare run.
func runSupervisionBench(hosts int) (supervisionBenchResult, error) {
	const shards = 8
	res := supervisionBenchResult{Hosts: hosts, Shards: shards}
	bare := fleetshard.Config{
		Shards: shards, ShardParallelism: runtime.GOMAXPROCS(0),
		ScanHost: fleetshard.SyntheticScan(1),
	}
	src := fleetshard.SyntheticSource{N: hosts}
	run := func(cfg fleetshard.Config) (*fleetshard.Report, int64, uint64, error) {
		coord, err := fleetshard.New(cfg, src)
		if err != nil {
			return nil, 0, 0, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		rep, err := coord.Sweep()
		wall := int64(time.Since(start))
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, 0, 0, err
		}
		if rep.Scanned != hosts {
			return nil, 0, 0, fmt.Errorf("supervision bench scanned %d of %d hosts", rep.Scanned, hosts)
		}
		if err := rep.Verify(); err != nil {
			return nil, 0, 0, fmt.Errorf("supervision bench: %w", err)
		}
		return rep, wall, after.Mallocs - before.Mallocs, nil
	}

	bareRep, bareWall, _, err := run(bare)
	if err != nil {
		return res, err
	}
	sup := bare
	sup.Watchdog = supervise.Policy{Deadline: 30 * time.Second, Misses: 3}
	sup.Hedge = &fleet.HedgePolicy{Floor: time.Hour} // armed, never triggers
	sup.BackoffJitterSeed = 1
	supRep, supWall, supAllocs, err := run(sup)
	if err != nil {
		return res, err
	}

	res.BareWallNs, res.SupervisedWallNs = bareWall, supWall
	if bareWall > 0 {
		res.WallOverhead = float64(supWall) / float64(bareWall)
	}
	res.MakespanNs = supRep.MakespanNs
	res.VirtualDeltaNs = supRep.MakespanNs - bareRep.MakespanNs
	res.DigestMatch = supRep.MergedDigest == bareRep.MergedDigest
	res.AllocsPerHost = float64(supAllocs) / float64(hosts)
	if !res.DigestMatch {
		return res, fmt.Errorf("supervision bench: idle supervision changed the merged digest (%.12s vs %.12s)",
			supRep.MergedDigest, bareRep.MergedDigest)
	}
	return res, nil
}

// shardScaleCounts is the 1→64 curve the acceptance criteria name.
var shardScaleCounts = []int{1, 2, 4, 8, 16, 32, 64}

// runShardScaling sweeps the same synthetic fleet at each shard count
// and reports the virtual-makespan curve.
func runShardScaling(hosts int) ([]shardScaleResult, error) {
	src := fleetshard.SyntheticSource{N: hosts}
	scan := fleetshard.SyntheticScan(1)
	var out []shardScaleResult
	var base int64
	for _, shards := range shardScaleCounts {
		coord, err := fleetshard.New(fleetshard.Config{
			Shards: shards, ShardParallelism: runtime.GOMAXPROCS(0), ScanHost: scan,
		}, src)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := coord.Sweep()
		if err != nil {
			return nil, err
		}
		wall := int64(time.Since(start))
		if rep.Scanned != hosts {
			return nil, fmt.Errorf("shard scaling: %d shards scanned %d of %d hosts", shards, rep.Scanned, hosts)
		}
		if err := rep.Verify(); err != nil {
			return nil, fmt.Errorf("shard scaling: %d shards: %w", shards, err)
		}
		r := shardScaleResult{
			Shards: shards, Hosts: hosts, WallNs: wall,
			MakespanNs: rep.MakespanNs, PeakResident: rep.PeakResident,
		}
		if base == 0 {
			base = rep.MakespanNs
		}
		if rep.MakespanNs > 0 {
			r.Speedup = float64(base) / float64(rep.MakespanNs)
		}
		out = append(out, r)
	}
	return out, nil
}

// runMegaSweep completes the full-scale simulated sweep and pins the
// bounded-memory invariant.
func runMegaSweep(hosts int) (megaSweepResult, error) {
	const shards, workers = 64, 1
	parallelism := runtime.GOMAXPROCS(0)
	res := megaSweepResult{
		Hosts: hosts, Shards: shards,
		ShardParallelism: parallelism, ShardWorkers: workers,
		ResidentBound: parallelism * (workers + 1),
	}
	coord, err := fleetshard.New(fleetshard.Config{
		Shards: shards, ShardParallelism: parallelism, ShardWorkers: workers,
		ScanHost: fleetshard.SyntheticScan(1),
	}, fleetshard.SyntheticSource{N: hosts})
	if err != nil {
		return res, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := coord.Sweep()
	res.WallNs = int64(time.Since(start))
	runtime.ReadMemStats(&after)
	if err != nil {
		return res, err
	}
	if rep.Scanned != hosts {
		return res, fmt.Errorf("mega sweep scanned %d of %d hosts", rep.Scanned, hosts)
	}
	if err := rep.Verify(); err != nil {
		return res, fmt.Errorf("mega sweep: %w", err)
	}
	res.VirtualNs = rep.VirtualNs
	res.MakespanNs = rep.MakespanNs
	if rep.MakespanNs > 0 {
		res.Speedup = float64(rep.VirtualNs) / float64(rep.MakespanNs)
	}
	res.Infected = rep.Infected
	res.PeakResident = rep.PeakResident
	res.MergedDigest = rep.MergedDigest
	res.AllocsPerHost = float64(after.Mallocs-before.Mallocs) / float64(hosts)
	if rep.PeakResident > res.ResidentBound {
		return res, fmt.Errorf("mega sweep: peak resident results %d exceeds the bounded-memory ceiling %d",
			rep.PeakResident, res.ResidentBound)
	}
	return res, nil
}
