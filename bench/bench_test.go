package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// tinyScale keeps every workload's shape at a size a test run affords.
// The big host keeps 5000 files: a populated record stands for
// RealFilesPerGB/FilesPerGB represented files, so with fewer the
// skeleton's records alone push a sweep's virtual time past the
// standard profile's deadline.
var tinyScale = scale{
	hostFiles: 5000, hostKeys: 200, warmSweeps: 1,
	fleetHosts: 24, fleetInfect: 6,
	daemonHosts: 8, steadyRate: 40, burstRate: 120, pollRate: 20,
	daemonInfect: 5, daemonWarmup: 0.2,
	setups: 2,
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny
// scale: every oracle must pass, and each run must emit exactly the
// metrics BENCHMARK.json declares for it, all finite.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(wl.name, 1, 1, traced, tinyScale, filepath.Join(t.TempDir(), "result.json"), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
				}
				for name, m := range spec {
					if (m.Bound == nil) != traced {
						continue // declared for the other kind of run
					}
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s not emitted", name)
					} else if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit != m.Unit {
						t.Errorf("metric %s = %v %s, want a finite value in %s", name, got.Value, got.Unit, m.Unit)
					}
				}
				for name := range res.Metrics {
					if m, ok := spec[name]; !ok || (m.Bound == nil) != traced {
						t.Errorf("metric %s emitted but not declared for this run", name)
					}
				}
			})
		}
	}
}

func TestQuantileAndTailRule(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.99}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n > 2*minBeyond && beyond(c.n, tailQuantile(c.n)) < minBeyond {
			t.Errorf("tailQuantile(%d) leaves %d samples beyond it", c.n, beyond(c.n, tailQuantile(c.n)))
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4}, [3]float64{1.675, 3.75, 8.525}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
			}
		}
	}
}

// TestOpenLoopLateness checks the open loop's accounting on a fake
// clock: only ops that follow an idle sleep report lateness, and ops
// that fell due while the system worked are fired late but not counted.
func TestOpenLoopLateness(t *testing.T) {
	const slop = time.Millisecond
	t0 := time.Unix(0, 0)
	now := t0
	c := clock{
		now:   func() time.Time { return now },
		sleep: func(d time.Duration) { now = now.Add(d + slop) },
	}
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 60 * time.Millisecond}
	var fired []time.Duration
	dirty := false
	late := openLoop(c, t0, due, func(k int, at time.Time) {
		fired = append(fired, now.Sub(t0))
		dirty = k == 1 // op 1's work outlasts ops 2 and 3's due times
	}, func() bool {
		if !dirty {
			return false
		}
		now = now.Add(25 * time.Millisecond)
		dirty = false
		return true
	})
	wantFired := []time.Duration{0, 11 * time.Millisecond, 36 * time.Millisecond, 36 * time.Millisecond, 61 * time.Millisecond}
	if len(fired) != len(wantFired) {
		t.Fatalf("fired %v, want %v", fired, wantFired)
	}
	for i := range fired {
		if fired[i] != wantFired[i] {
			t.Fatalf("fired %v, want %v", fired, wantFired)
		}
	}
	if len(late) != 2 || late[0] != slop || late[1] != slop {
		t.Fatalf("lateness %v, want two samples of %v", late, slop)
	}
}

// TestSelfTime checks self time as a span minus the union of its
// children, clipped to the span.
func TestSelfTime(t *testing.T) {
	spans := withSelfTimes([]span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Start: 12, End: 14},  // a grandchild: 2's business
	})
	want := map[int]int64{1: 50, 2: 18, 3: 30, 4: 30, 5: 2}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}
