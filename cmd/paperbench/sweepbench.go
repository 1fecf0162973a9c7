// Sweep benchmark mode: machine-readable wall-clock timings for the
// incremental-scanning layer (cold vs warm inside sweeps) and the
// bounded fleet scheduler, written as JSON for tooling to track.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/workload"
)

// sweepBenchResult is the schema of BENCH_sweep.json.
type sweepBenchResult struct {
	// Single-host inside sweep, wall-clock, averaged over Reps.
	Reps          int     `json:"reps"`
	MFTRecords    int     `json:"mftRecords"`
	ColdSweepNs   int64   `json:"coldSweepNs"`
	WarmSweepNs   int64   `json:"warmSweepNs"`
	WarmSpeedup   float64 `json:"warmSpeedup"`
	ColdVirtualNs int64   `json:"coldVirtualNs"`
	WarmVirtualNs int64   `json:"warmVirtualNs"`
	// Fleet warm sweeps through the bounded scheduler.
	FleetHosts       int   `json:"fleetHosts"`
	FleetParallelism int   `json:"fleetParallelism"`
	FleetSweepNs     int64 `json:"fleetSweepNs"`
	// Parallel intra-host sweeps: one cold sweep timed at each lane
	// count, with the wall-clock speedup over the 1-lane run. On a
	// single-core host the speedups hover around 1x; the lanes only pay
	// off with real hardware parallelism.
	Parallel []parallelSweepResult `json:"parallel"`
	// Diff microbench: retired map engine vs columnar merge-join.
	Diff diffBenchResult `json:"diff"`
	// Large fleet warm sweep through the bounded scheduler.
	FleetLarge fleetBenchResult `json:"fleetLarge"`
	// Shard-scaling curve: the same synthetic fleet swept at 1→64
	// shards through the fleet-of-fleets control plane; makespan and
	// speedup are virtual-time, deterministic on any hardware.
	ShardScaling []shardScaleResult `json:"shardScaling,omitempty"`
	// Million-host simulated sweep with the bounded-memory invariant
	// pinned (peak resident results ≤ shard parallelism × (workers+1)).
	MegaSweep megaSweepResult `json:"megaSweep,omitempty"`
	// Idle-supervision cost: watchdog + hedging armed but never firing
	// must leave the virtual makespan and digest untouched.
	Supervision *supervisionBenchResult `json:"supervision,omitempty"`
}

// fleetBenchResult times one warm fleet sweep; VirtualNs sums per-host
// virtual scan cost (Elapsed + RetryNs), which is deterministic for a
// given fleet build and is what benchgate compares per host.
type fleetBenchResult struct {
	Hosts     int   `json:"hosts"`
	SweepNs   int64 `json:"sweepNs"`
	VirtualNs int64 `json:"virtualNs"`
}

// parallelSweepResult is one lane-count entry of the parallel section.
type parallelSweepResult struct {
	Lanes       int     `json:"lanes"`
	ColdSweepNs int64   `json:"coldSweepNs"`
	VirtualNs   int64   `json:"coldVirtualNs"`
	Speedup     float64 `json:"speedup"` // vs the 1-lane cold sweep
}

// buildFleet assembles a fleet of small deterministic hosts and primes
// their per-host caches with one sweep.
func buildFleet(hosts int) (*fleet.Manager, error) {
	mgr := fleet.NewManager()
	for i := 0; i < hosts; i++ {
		fp := machine.DefaultProfile()
		fp.DiskUsedGB = 0.05
		fp.Churn = nil
		fp.Seed = int64(i + 1)
		fp.MFTHeadroom = 64
		fp.ClusterHeadroom = 64
		fm, err := machine.New(fp)
		if err != nil {
			return nil, err
		}
		mgr.Add(fmt.Sprintf("host-%04d", i), fm)
	}
	if _, err := mgr.Run(context.Background(), fleet.Plan{}); err != nil { // prime per-host caches
		return nil, err
	}
	return mgr, nil
}

// timeFleetSweep runs one warm sweep and reports wall time plus the
// summed per-host virtual cost.
func timeFleetSweep(mgr *fleet.Manager, hosts int) (fleetBenchResult, error) {
	res := fleetBenchResult{Hosts: hosts}
	start := time.Now()
	sum, err := mgr.Run(context.Background(), fleet.Plan{})
	res.SweepNs = int64(time.Since(start))
	if err != nil {
		return res, err
	}
	if sum.Failed > 0 {
		return res, fmt.Errorf("fleet sweep: %d of %d hosts failed", sum.Failed, sum.Hosts)
	}
	res.VirtualNs = sum.VirtualNs
	return res, nil
}

// runSweepBench measures cold-vs-warm single-host sweeps, the diff
// microbench, and fleet sweeps, then writes the JSON report to out.
func runSweepBench(out string, reps, hosts, diffEntries, largeHosts, shardHosts, megaHosts int) error {
	p := workload.SmallProfile()
	p.Churn = nil
	p.MFTHeadroom = 32768 // size the MFT like a modest real disk
	m, err := workload.NewPaperMachine(p)
	if err != nil {
		return err
	}
	d := core.NewCachedDetector(m)
	d.Advanced = true
	if _, err := d.ScanAll(); err != nil { // prime cache + page warmup
		return err
	}

	res := sweepBenchResult{Reps: reps, MFTRecords: int(m.Disk.Geometry().MFTRecords)}
	sweep := func(cold bool) (wall, virtual int64, err error) {
		for i := 0; i < reps; i++ {
			if cold {
				d.Cache.Invalidate()
			}
			vStart := m.Clock.Now()
			wStart := time.Now()
			if _, err := d.ScanAll(); err != nil {
				return 0, 0, err
			}
			wall += int64(time.Since(wStart))
			virtual += int64(m.Clock.Now() - vStart)
		}
		return wall / int64(reps), virtual / int64(reps), nil
	}
	if res.ColdSweepNs, res.ColdVirtualNs, err = sweep(true); err != nil {
		return err
	}
	if res.WarmSweepNs, res.WarmVirtualNs, err = sweep(false); err != nil {
		return err
	}
	if res.WarmSweepNs > 0 {
		res.WarmSpeedup = float64(res.ColdSweepNs) / float64(res.WarmSweepNs)
	}

	for _, lanes := range []int{1, 2, 4} {
		d.Parallelism = lanes
		var wall, virtual int64
		for i := 0; i < reps; i++ {
			d.Cache.Invalidate()
			vStart := m.Clock.Now()
			wStart := time.Now()
			if _, err := d.ScanAll(); err != nil {
				return err
			}
			wall += int64(time.Since(wStart))
			virtual += int64(m.Clock.Now() - vStart)
		}
		pr := parallelSweepResult{Lanes: lanes, ColdSweepNs: wall / int64(reps), VirtualNs: virtual / int64(reps)}
		if base := res.Parallel; len(base) > 0 && pr.ColdSweepNs > 0 {
			pr.Speedup = float64(base[0].ColdSweepNs) / float64(pr.ColdSweepNs)
		} else {
			pr.Speedup = 1
		}
		res.Parallel = append(res.Parallel, pr)
	}
	d.Parallelism = 0

	if res.Diff, err = runDiffBench(diffEntries, diffEntries/10000+8); err != nil {
		return err
	}

	mgr, err := buildFleet(hosts)
	if err != nil {
		return err
	}
	res.FleetHosts = hosts
	res.FleetParallelism = runtime.GOMAXPROCS(0)
	fr, err := timeFleetSweep(mgr, hosts)
	if err != nil {
		return err
	}
	res.FleetSweepNs = fr.SweepNs

	largeMgr, err := buildFleet(largeHosts)
	if err != nil {
		return err
	}
	if res.FleetLarge, err = timeFleetSweep(largeMgr, largeHosts); err != nil {
		return err
	}

	if res.ShardScaling, err = runShardScaling(shardHosts); err != nil {
		return err
	}
	if res.MegaSweep, err = runMegaSweep(megaHosts); err != nil {
		return err
	}
	sup, err := runSupervisionBench(shardHosts)
	if err != nil {
		return err
	}
	res.Supervision = &sup

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("sweep bench: cold %v, warm %v (%.1fx), fleet(%d hosts) %v -> %s\n",
		time.Duration(res.ColdSweepNs), time.Duration(res.WarmSweepNs), res.WarmSpeedup,
		hosts, time.Duration(res.FleetSweepNs), out)
	for _, pr := range res.Parallel {
		fmt.Printf("  parallel lanes=%d: cold %v (%.2fx)\n", pr.Lanes, time.Duration(pr.ColdSweepNs), pr.Speedup)
	}
	fmt.Printf("  diff %d entries: map %v / %d allocs, columnar %v / %d allocs (%.1fx fewer, %.1fx faster), warm %.2f allocs/op\n",
		res.Diff.Entries,
		time.Duration(res.Diff.MapBuildNs+res.Diff.MapDiffNs), res.Diff.MapAllocs,
		time.Duration(res.Diff.ColBuildNs+res.Diff.ColDiffNs), res.Diff.ColAllocs,
		res.Diff.AllocRatio, res.Diff.SpeedRatio, res.Diff.WarmDiffAllocsPerOp)
	fmt.Printf("  fleet %d hosts: %v wall, %v virtual/host\n",
		res.FleetLarge.Hosts, time.Duration(res.FleetLarge.SweepNs),
		time.Duration(res.FleetLarge.VirtualNs/int64(max(res.FleetLarge.Hosts, 1))))
	for _, sr := range res.ShardScaling {
		fmt.Printf("  shards=%-3d makespan %12v  speedup %6.2fx  peak resident %d\n",
			sr.Shards, time.Duration(sr.MakespanNs), sr.Speedup, sr.PeakResident)
	}
	mg := res.MegaSweep
	fmt.Printf("  mega %d hosts / %d shards: %v wall, makespan %v (%.1fx over serial), %d infected, peak resident %d (bound %d), %.1f allocs/host\n",
		mg.Hosts, mg.Shards, time.Duration(mg.WallNs), time.Duration(mg.MakespanNs),
		mg.Speedup, mg.Infected, mg.PeakResident, mg.ResidentBound, mg.AllocsPerHost)
	if s := res.Supervision; s != nil {
		fmt.Printf("  supervision idle (%d hosts / %d shards): wall %.2fx, virtual delta %dns, digest match %v, %.1f allocs/host\n",
			s.Hosts, s.Shards, s.WallOverhead, s.VirtualDeltaNs, s.DigestMatch, s.AllocsPerHost)
	}
	return nil
}
