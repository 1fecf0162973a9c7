package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1), interpolating
// linearly between the closest ranks. xs is not modified; an empty
// slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean more than the few slowest operations of one run.
const minBeyond = 10

// tailQuantile is the percentile rule for timings: the highest quantile
// that still has at least minBeyond of n samples beyond it, and never
// less than the median.
func tailQuantile(n int) float64 {
	if n <= 2*minBeyond {
		return 0.5
	}
	return 1 - float64(minBeyond)/float64(n)
}

// beyond counts the samples of n that lie beyond quantile q.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// quartiles returns the first, second and third quartile of xs by the
// rule Python's statistics.quantiles(xs, n=4) uses (its default
// "exclusive" method), so spreads printed here match the ones the
// benchmark's acceptance check computes. One sample is its own
// quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the first and third quartile as a
// share of the median: the run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// median of durations, in the given unit.
func medianIn(ds []time.Duration, unit time.Duration) float64 {
	return quantile(millis(ds), 0.5) * float64(time.Millisecond) / float64(unit)
}
