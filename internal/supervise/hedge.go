package supervise

import (
	"sort"
	"sync"
	"time"
)

// trackerCap bounds the sliding window of completed-scan durations the
// tracker keeps. 256 samples is enough for a stable median and keeps
// Threshold's copy-and-sort cost trivial next to a host scan.
const trackerCap = 256

// QuantileTracker watches completed-scan wall durations and turns them
// into a hedge threshold: "this host has run longer than multiplier ×
// the median (0.5 quantile) of its peers — duplicate it." It keeps a
// bounded sliding window so a fleet whose hosts slow down over time
// adapts instead of hedging everything against stale early samples.
type QuantileTracker struct {
	// Multiplier scales the median into the hedge threshold. Zero
	// means 2.
	Multiplier float64
	// MinSamples is how many completed scans must be observed before
	// Threshold returns nonzero. Zero means 3 — hedging against one or
	// two samples just duplicates noise.
	MinSamples int
	// Floor is the minimum threshold ever returned; it keeps uniformly
	// fast fleets from hedging on scheduler jitter.
	Floor time.Duration

	mu      sync.Mutex
	ring    [trackerCap]time.Duration
	n       int // total observations ever
	scratch []time.Duration
}

// Observe records one completed scan's wall duration.
func (t *QuantileTracker) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.ring[t.n%trackerCap] = d
	t.n++
	t.mu.Unlock()
}

// Samples is the number of durations observed so far.
func (t *QuantileTracker) Samples() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Threshold returns the current hedge threshold, or 0 when too few
// samples have been observed to estimate one.
func (t *QuantileTracker) Threshold() time.Duration {
	min := t.MinSamples
	if min <= 0 {
		min = 3
	}
	mult := t.Multiplier
	if mult <= 0 {
		mult = 2
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < min {
		return 0
	}
	have := t.n
	if have > trackerCap {
		have = trackerCap
	}
	if cap(t.scratch) < have {
		t.scratch = make([]time.Duration, have)
	}
	s := t.scratch[:have]
	copy(s, t.ring[:have])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (have - 1) / 2
	th := time.Duration(float64(s[idx]) * mult)
	if th < t.Floor {
		th = t.Floor
	}
	return th
}
