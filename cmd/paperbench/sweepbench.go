// Sweep benchmark mode: the deterministic costs benchgate reads —
// virtual time of cold vs warm and laned inside sweeps, per-entry diff
// allocations, fleet virtual cost, shard scaling — written as JSON.
// Wall-clock timings live in bench/, which measures the real detector
// end to end.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/workload"
)

// sweepBenchResult is the schema of BENCH_sweep.json.
type sweepBenchResult struct {
	// Single-host inside sweep, virtual time averaged over Reps.
	Reps          int   `json:"reps"`
	MFTRecords    int   `json:"mftRecords"`
	ColdVirtualNs int64 `json:"coldVirtualNs"`
	WarmVirtualNs int64 `json:"warmVirtualNs"`
	// Parallel intra-host sweeps: the cold sweep's virtual time at each
	// lane count.
	Parallel []parallelSweepResult `json:"parallel"`
	// Diff microbench: the columnar merge-join, cold and warm.
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

// fleetBenchResult is one warm fleet sweep; VirtualNs sums per-host
// virtual scan cost (Elapsed + RetryNs), which is deterministic for a
// given fleet build and is what benchgate compares per host.
type fleetBenchResult struct {
	Hosts     int   `json:"hosts"`
	VirtualNs int64 `json:"virtualNs"`
}

// parallelSweepResult is one lane-count entry of the parallel section.
type parallelSweepResult struct {
	Lanes     int   `json:"lanes"`
	VirtualNs int64 `json:"coldVirtualNs"`
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

// fleetSweep runs one warm sweep and reports the summed per-host
// virtual cost.
func fleetSweep(mgr *fleet.Manager, hosts int) (fleetBenchResult, error) {
	res := fleetBenchResult{Hosts: hosts}
	sum, err := mgr.Run(context.Background(), fleet.Plan{})
	if err != nil {
		return res, err
	}
	if sum.Failed > 0 {
		return res, fmt.Errorf("fleet sweep: %d of %d hosts failed", sum.Failed, sum.Hosts)
	}
	res.VirtualNs = sum.VirtualNs
	return res, nil
}

// runSweepBench measures cold-vs-warm and laned single-host sweeps, the
// diff microbench, and fleet sweeps, then writes the JSON report to out.
func runSweepBench(out string, reps, diffEntries, largeHosts, shardHosts, megaHosts int) error {
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
	sweep := func(cold bool) (virtual int64, err error) {
		for i := 0; i < reps; i++ {
			if cold {
				d.Cache.Invalidate()
			}
			start := m.Clock.Now()
			if _, err := d.ScanAll(); err != nil {
				return 0, err
			}
			virtual += int64(m.Clock.Now() - start)
		}
		return virtual / int64(reps), nil
	}
	if res.ColdVirtualNs, err = sweep(true); err != nil {
		return err
	}
	if res.WarmVirtualNs, err = sweep(false); err != nil {
		return err
	}
	for _, lanes := range []int{1, 2, 4} {
		d.Parallelism = lanes
		pr := parallelSweepResult{Lanes: lanes}
		if pr.VirtualNs, err = sweep(true); err != nil {
			return err
		}
		res.Parallel = append(res.Parallel, pr)
	}
	d.Parallelism = 0

	if res.Diff, err = runDiffBench(diffEntries, diffEntries/10000+8); err != nil {
		return err
	}
	largeMgr, err := buildFleet(largeHosts)
	if err != nil {
		return err
	}
	if res.FleetLarge, err = fleetSweep(largeMgr, largeHosts); err != nil {
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
	fmt.Printf("sweep bench: cold %v, warm %v virtual -> %s\n",
		time.Duration(res.ColdVirtualNs), time.Duration(res.WarmVirtualNs), out)
	for _, pr := range res.Parallel {
		fmt.Printf("  parallel lanes=%d: cold %v virtual\n", pr.Lanes, time.Duration(pr.VirtualNs))
	}
	fmt.Printf("  diff %d entries: build %v, diff %v, %.2f allocs/entry, warm %.2f allocs/op\n",
		res.Diff.Entries, time.Duration(res.Diff.ColBuildNs), time.Duration(res.Diff.ColDiffNs),
		res.Diff.ColAllocsPerEntry, res.Diff.WarmDiffAllocsPerOp)
	fmt.Printf("  fleet %d hosts: %v virtual/host\n",
		res.FleetLarge.Hosts, time.Duration(res.FleetLarge.VirtualNs/int64(max(res.FleetLarge.Hosts, 1))))
	for _, sr := range res.ShardScaling {
		fmt.Printf("  shards=%-3d makespan %12v  speedup %6.2fx  peak resident %d\n",
			sr.Shards, time.Duration(sr.MakespanNs), sr.Speedup, sr.PeakResident)
	}
	mg := res.MegaSweep
	fmt.Printf("  mega %d hosts / %d shards: makespan %v (%.1fx over serial), %d infected, peak resident %d (bound %d), %.1f allocs/host\n",
		mg.Hosts, mg.Shards, time.Duration(mg.MakespanNs),
		mg.Speedup, mg.Infected, mg.PeakResident, mg.ResidentBound, mg.AllocsPerHost)
	if s := res.Supervision; s != nil {
		fmt.Printf("  supervision idle (%d hosts / %d shards): virtual delta %dns, digest match %v, %.1f allocs/host\n",
			s.Hosts, s.Shards, s.VirtualDeltaNs, s.DigestMatch, s.AllocsPerHost)
	}
	return nil
}
