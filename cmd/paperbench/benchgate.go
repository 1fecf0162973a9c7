// Benchgate mode: compare a freshly measured sweep benchmark against
// the committed baseline and fail on regression. Only deterministic or
// scale-invariant metrics are gated — virtual-time costs (identical on
// any hardware for the same flags) and per-entry allocation counts —
// never raw wall-clock, so the gate is stable on shared CI runners.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// loadSweepBench reads a BENCH_sweep.json produced by -sweepbench.
func loadSweepBench(path string) (*sweepBenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res sweepBenchResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// runBenchGate compares candidate against baseline, failing if any
// gated metric regresses by more than tol (a fraction, e.g. 0.15), or
// if a hard floor is violated: warm incremental diffs must stay
// allocation-free, shard scaling must stay near-linear, and idle
// supervision must not move virtual time or digests.
func runBenchGate(baselinePath, candidatePath string, tol float64) error {
	base, err := loadSweepBench(baselinePath)
	if err != nil {
		return err
	}
	cand, err := loadSweepBench(candidatePath)
	if err != nil {
		return err
	}
	var fails []string
	// ceiling: candidate must not exceed base*(1+tol). base==0 means the
	// baseline predates the metric; nothing to gate.
	ceiling := func(name string, baseV, candV float64) {
		if baseV == 0 {
			return
		}
		limit := baseV * (1 + tol)
		ok := candV <= limit
		mark := "ok  "
		if !ok {
			mark = "FAIL"
			fails = append(fails, name)
		}
		fmt.Printf("  %s %-32s base %14.1f  cand %14.1f  (limit %14.1f)\n", mark, name, baseV, candV, limit)
	}
	floor := func(name string, minV, candV float64) {
		ok := candV >= minV
		mark := "ok  "
		if !ok {
			mark = "FAIL"
			fails = append(fails, name)
		}
		fmt.Printf("  %s %-32s floor %13.1f  cand %14.1f\n", mark, name, minV, candV)
	}

	fmt.Printf("benchgate: %s vs baseline %s (tolerance %.0f%%)\n", candidatePath, baselinePath, tol*100)
	ceiling("coldVirtualNs", float64(base.ColdVirtualNs), float64(cand.ColdVirtualNs))
	ceiling("warmVirtualNs", float64(base.WarmVirtualNs), float64(cand.WarmVirtualNs))
	for _, bp := range base.Parallel {
		for _, cp := range cand.Parallel {
			if cp.Lanes == bp.Lanes {
				ceiling(fmt.Sprintf("parallel[lanes=%d].coldVirtualNs", bp.Lanes),
					float64(bp.VirtualNs), float64(cp.VirtualNs))
			}
		}
	}
	ceiling("diff.colAllocsPerEntry", base.Diff.ColAllocsPerEntry, cand.Diff.ColAllocsPerEntry)
	if cand.Diff.Entries > 0 {
		ceiling("diff.warmDiffAllocsPerOp", 0.0001, cand.Diff.WarmDiffAllocsPerOp) // base 0.0001: "stay at zero"
	}
	if base.FleetLarge.Hosts > 0 && cand.FleetLarge.Hosts > 0 {
		ceiling("fleetLarge.virtualPerHostNs",
			float64(base.FleetLarge.VirtualNs)/float64(base.FleetLarge.Hosts),
			float64(cand.FleetLarge.VirtualNs)/float64(cand.FleetLarge.Hosts))
	}
	// Shard scaling: virtual makespans are deterministic for a given
	// (hosts, shards), so a ceiling catches any scheduling or balance
	// regression; the speedup floor keeps the curve near-linear. Peak
	// resident counts depend on the runner's core count and are gated as
	// the machine-local invariant in the mega section instead.
	for _, bs := range base.ShardScaling {
		for _, cs := range cand.ShardScaling {
			if cs.Shards == bs.Shards && cs.Hosts == bs.Hosts {
				name := fmt.Sprintf("shardScaling[%d]", bs.Shards)
				ceiling(name+".makespanNs", float64(bs.MakespanNs), float64(cs.MakespanNs))
				if bs.Shards > 1 {
					floor(name+".speedup", bs.Speedup*(1-tol), cs.Speedup)
				}
			}
		}
	}
	if base.MegaSweep.Hosts > 0 && cand.MegaSweep.Hosts == base.MegaSweep.Hosts &&
		cand.MegaSweep.Shards == base.MegaSweep.Shards {
		ceiling("megaSweep.makespanNs", float64(base.MegaSweep.MakespanNs), float64(cand.MegaSweep.MakespanNs))
		ceiling("megaSweep.allocsPerHost", base.MegaSweep.AllocsPerHost, cand.MegaSweep.AllocsPerHost)
		floor("megaSweep.speedup", base.MegaSweep.Speedup*(1-tol), cand.MegaSweep.Speedup)
	}
	if cand.MegaSweep.Hosts > 0 {
		// The bounded-memory invariant, machine-local: the candidate's own
		// ceiling, not the baseline's (core counts differ across runners).
		floor("megaSweep.residentBound-peak", 0,
			float64(cand.MegaSweep.ResidentBound-cand.MegaSweep.PeakResident))
	}
	if cs := cand.Supervision; cs != nil {
		// Idle-supervision invariants are machine-local: armed watchdog +
		// hedging that never fire must not move virtual time or digests.
		digestMatch := 0.0
		if cs.DigestMatch {
			digestMatch = 1
		}
		floor("supervision.digestMatch", 1, digestMatch)
		delta := cs.VirtualDeltaNs
		if delta < 0 {
			delta = -delta
		}
		floor("supervision.zeroVirtualDelta", 0, float64(-delta))
		if bs := base.Supervision; bs != nil && bs.Hosts == cs.Hosts && bs.Shards == cs.Shards {
			ceiling("supervision.allocsPerHost", bs.AllocsPerHost, cs.AllocsPerHost)
			ceiling("supervision.makespanNs", float64(bs.MakespanNs), float64(cs.MakespanNs))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("benchgate: %d metric(s) regressed: %v", len(fails), fails)
	}
	fmt.Println("benchgate: PASS")
	return nil
}
