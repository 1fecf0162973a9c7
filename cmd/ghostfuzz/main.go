// Command ghostfuzz drives the adversarial ghostware fuzzer: it
// generates composed hiding techniques, installs each on a randomized
// machine, and judges it through the selected rows of the topology
// matrix — the host table's detector configurations and the fleet
// table's sweep, crash and supervision topologies. Output is
// deterministic JSON — the same flags yield byte-identical bytes, run
// after run. Exit 2 on any violation, 1 on a harness error.
//
// Usage:
//
//	ghostfuzz -seed 1 -n 200                  # clean host rows, 200 cases
//	ghostfuzz -seed 1 -n 5000 -budget 2m      # bounded batch
//	ghostfuzz -seed 1 -n 50 -rows '^faulted-' # chaos: seeded fault plans, contained rows
//	ghostfuzz -seed 1 -n 2 -rows '^crash/'    # kill/resume journaled sweeps
//	ghostfuzz -seed 1 -n 2 -rows '^shardcrash/'
//	ghostfuzz -seed 1 -n 1 -rows '^supervise/'
//	ghostfuzz -seed 1 -n 2 -rows /            # every fleet row
//	ghostfuzz -replay 'ghostfuzz-v1 seed=7 atoms=ads/1/all'
//	ghostfuzz -replay @testdata/ghostfuzz/corpus/1a2b3c4d.spec
//	ghostfuzz -corpus testdata/ghostfuzz/corpus -n 500   # record shrunk repros
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ghostbuster/internal/ghostfuzz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ghostfuzz:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("ghostfuzz", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "base seed; case and fleet i derive from it deterministically")
	n := fs.Int("n", 100, "cases to generate per selected spec class, and fleets to sweep when fleet rows are selected")
	budget := fs.Duration("budget", 0, "wall-clock budget; 0 means unlimited")
	rows := fs.String("rows", "", "regexp selecting matrix rows by name (default "+ghostfuzz.DefaultRows+"; every applicable row with -replay)")
	replay := fs.String("replay", "", "judge one spec line (or @file containing one) instead of generating")
	corpus := fs.String("corpus", "", "directory to write shrunk failure specs into")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := ghostfuzz.Options{Seed: *seed, N: *n, Budget: *budget, Rows: *rows, CorpusDir: *corpus}
	if *replay != "" {
		line := *replay
		if rest, ok := strings.CutPrefix(line, "@"); ok {
			data, err := os.ReadFile(rest)
			if err != nil {
				return err
			}
			line = firstSpecLine(string(data))
		}
		spec, err := ghostfuzz.ParseSpec(line)
		if err != nil {
			return err
		}
		opts.Specs, opts.NoShrink = []ghostfuzz.CaseSpec{spec}, true
	}
	summary, err := ghostfuzz.Run(opts)
	if err != nil {
		return err
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	var result any = summary
	if *replay != "" {
		var violations []ghostfuzz.Violation
		if len(summary.Failures) > 0 {
			violations = summary.Failures[0].Violations
		}
		result = map[string]any{"spec": opts.Specs[0].String(), "violations": violations}
	}
	if err := enc.Encode(result); err != nil {
		return err
	}
	if len(summary.Failures) > 0 {
		os.Exit(2)
	}
	return nil
}

// firstSpecLine returns the first non-comment, non-blank line of a
// corpus file.
func firstSpecLine(data string) string {
	for _, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			return line
		}
	}
	return ""
}
