// Command paperbench regenerates every table and figure from the
// paper's evaluation on simulated machines and prints them with
// paper-vs-measured notes.
//
// Usage:
//
//	paperbench            # run the full matrix
//	paperbench -list      # list experiment ids
//	paperbench -exp fig3  # run one experiment (figN or a named exp)
//	paperbench -sweepbench -out BENCH_sweep.json
//	                      # measure the deterministic sweep, diff, fleet
//	                      # and shard costs; write machine-readable JSON
//	paperbench -benchgate -candidate fresh.json
//	                      # fail if fresh.json regresses on the baseline
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ghostbuster/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	exp := fs.String("exp", "", "run a single experiment by id (e.g. fig3, scantime, linux)")
	fig := fs.Int("fig", 0, "run a single figure by number (2-6)")
	sweepbench := fs.Bool("sweepbench", false, "measure the deterministic sweep, diff, fleet and shard costs benchgate reads, write JSON")
	out := fs.String("out", "BENCH_sweep.json", "output path for -sweepbench")
	reps := fs.Int("reps", 5, "repetitions per -sweepbench single-host sweep")
	diffEntries := fs.Int("diffEntries", 1000000, "snapshot entry count for the -sweepbench diff microbench")
	fleetLarge := fs.Int("fleetLarge", 1000, "host count for the -sweepbench warm fleet sweep")
	shardHosts := fs.Int("shardHosts", 1000, "host count for the -sweepbench 1→64 shard-scaling curve")
	megaHosts := fs.Int("megaHosts", 1000000, "host count for the -sweepbench bounded-memory mega sweep")
	benchgate := fs.Bool("benchgate", false, "compare -candidate against -baseline, fail on >tolerance regression")
	baseline := fs.String("baseline", "BENCH_sweep.json", "baseline JSON for -benchgate")
	candidate := fs.String("candidate", "", "candidate JSON for -benchgate (a fresh -sweepbench output)")
	tolerance := fs.Float64("tolerance", 0.15, "allowed fractional regression for -benchgate")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench: memprofile:", err)
			}
		}()
	}
	if *benchgate {
		if *candidate == "" {
			return fmt.Errorf("-benchgate needs -candidate (a fresh -sweepbench output)")
		}
		return runBenchGate(*baseline, *candidate, *tolerance)
	}
	if *sweepbench {
		return runSweepBench(*out, *reps, *diffEntries, *fleetLarge, *shardHosts, *megaHosts)
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Description)
		}
		return nil
	}
	id := *exp
	if *fig != 0 {
		id = fmt.Sprintf("fig%d", *fig)
	}
	if id != "" {
		e, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		return runOne(e)
	}
	fmt.Println(experiments.Banner)
	for _, e := range experiments.All() {
		if err := runOne(e); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

func runOne(e experiments.Experiment) error {
	table, err := e.Run()
	if err != nil {
		return err
	}
	table.Render(os.Stdout)
	return nil
}
