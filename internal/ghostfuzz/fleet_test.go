package ghostfuzz

import (
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ghostbuster/internal/core"
)

// fleetFamily is one slice of the fleet table and the fleets its test
// sweeps it over: CaseSeed(seed, i) for i < seeds, one with -short.
type fleetFamily struct {
	rows  string
	seed  int64
	seeds int
}

// The fleet table's row families, one test each. The crash and
// supervise families keep the seeds their standalone suites swept.
var (
	plainFleet     = fleetFamily{rows: "^fleet/plain$", seed: 77, seeds: 2}
	crashFleet     = fleetFamily{rows: "^crash/", seed: 77, seeds: 5}
	shardFleet     = fleetFamily{rows: "^(fleet/sharded|shardcrash/)", seed: 77, seeds: 2}
	superviseFleet = fleetFamily{rows: "^supervise/", seed: 131, seeds: 3}
)

// sweep is the topology property check. For each seed one generated
// fleet is swept uninterrupted as the reference, then through every row
// of the family (and the rows they wreck). Every row must run once per
// seed and reproduce the reference, or fail loudly where it declares it
// must.
func (fam fleetFamily) sweep(t *testing.T) {
	t.Helper()
	// The supervision rows mostly wait out wall-clock stalls, the crash
	// rows mostly wait on journal I/O; overlap them with the CPU-bound
	// chaos suite.
	t.Parallel()
	seeds := fam.seeds
	if testing.Short() {
		seeds = 1
	}
	s, err := Run(Options{Seed: fam.seed, N: seeds, Rows: fam.rows})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cases != 0 || s.Fleets != seeds {
		t.Errorf("ran %d cases and %d fleets, want 0 and %d", s.Cases, s.Fleets, seeds)
	}
	sel := regexp.MustCompile(fam.rows)
	for _, row := range fleetRows {
		if got := s.Rows[row.name]; sel.MatchString(row.name) && got != seeds {
			t.Errorf("row %s ran %d times, want once per seed (%d)", row.name, got, seeds)
		}
	}
	for _, f := range s.Failures {
		for _, v := range f.Violations {
			t.Errorf("fleet %d: %s", f.Fleet, v)
		}
	}
}

// TestFleetFuzz: a lane-fanned, multi-worker manager sweep of the fleet
// matches the reference host for host, planted ledger included.
func TestFleetFuzz(t *testing.T) { plainFleet.sweep(t) }

// TestChaosCrashResume: a journaled sweep killed at sched/mid/last
// offsets, torn or bit-flipped, resumes to the reference or fails
// loudly.
func TestChaosCrashResume(t *testing.T) { crashFleet.sweep(t) }

// TestSupervisionChaos: live wedges, stragglers and jittered retries are
// healed by supervision, and a wedged journaled sweep resumes.
func TestSupervisionChaos(t *testing.T) { superviseFleet.sweep(t) }

// TestFleetMatrix runs the sharded rows (a sharded sweep, and shard
// crashes losing one, half or all journals plus a torn or flipped
// survivor) and checks that every row of the fleet table falls in
// exactly one family, so no row goes unchecked.
func TestFleetMatrix(t *testing.T) {
	for _, row := range fleetRows {
		n := 0
		for _, fam := range []fleetFamily{plainFleet, crashFleet, shardFleet, superviseFleet} {
			if regexp.MustCompile(fam.rows).MatchString(row.name) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("row %s is in %d families, want 1", row.name, n)
		}
	}
	shardFleet.sweep(t)
}

// TestFleetBreakerJSONDeterministic: a detector that drops every hidden
// finding fails the plain fleet row on each infected host. The summary
// must marshal byte-identically run to run, with the violations in host
// order.
func TestFleetBreakerJSONDeterministic(t *testing.T) {
	dropAll := &Breaker{DropHidden: func(string, core.Finding) bool { return true }}
	run := func() (*Summary, string) {
		s, err := Run(Options{Seed: 5, N: 1, Rows: "^fleet/plain$", Breaker: dropAll})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return s, string(data)
	}
	s, a := run()
	if _, b := run(); a != b {
		t.Errorf("summary JSON differs across runs:\n%s\n%s", a, b)
	}
	if len(s.Failures) != 1 {
		t.Fatalf("want one failing fleet, got %+v", s.Failures)
	}
	var hosts []string
	for _, v := range s.Failures[0].Violations {
		if v.Mode == "fleet/plain" {
			hosts = append(hosts, strings.TrimSuffix(strings.Fields(v.Detail)[1], ":"))
		}
	}
	if len(hosts) < 2 {
		t.Fatalf("breaker flagged %d infected hosts on fleet/plain, want >= 2: %v", len(hosts), s.Failures[0].Violations)
	}
	if !sort.StringsAreSorted(hosts) {
		t.Errorf("violations not in host order: %v", hosts)
	}
}
