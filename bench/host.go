package main

import (
	"fmt"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/machine"
)

// hostBench is host-cold and host-warm: closed-loop ScanAll sweeps of
// one big infected host by a single caller.
type hostBench struct {
	m *machine.Machine
	// warm is host-warm's long-lived cached detector; nil for host-cold,
	// where every sweep builds a fresh one (the CLI one-shot).
	warm *core.Detector
	ref  []string // report digests of the set-up reference sweep
}

func setupHost(warm bool) setupFunc {
	return func(seed int64, sc scale, _ string) (instance, error) {
		m, planted, err := bigHost(seed, sc)
		if err != nil {
			return nil, err
		}
		reps, err := newDetector(m, true).ScanAll()
		if err != nil {
			return nil, fmt.Errorf("reference sweep: %w", err)
		}
		b := &hostBench{m: m}
		hidden := 0
		for _, r := range reps {
			if len(r.DegradedUnits) > 0 {
				return nil, fmt.Errorf("reference sweep: %v", r.DegradedUnits)
			}
			hidden += len(r.Hidden)
			b.ref = append(b.ref, r.Digest)
		}
		if hidden != planted {
			return nil, fmt.Errorf("reference sweep found %d hidden resources, Hacker Defender hides %d", hidden, planted)
		}
		if warm {
			b.warm = newDetector(m, true)
		}
		for i := 0; i < sc.warmSweeps; i++ {
			if _, err := b.sweep(); err != nil {
				return nil, fmt.Errorf("warm-up sweep: %w", err)
			}
		}
		return b, nil
	}
}

// sweep runs one ScanAll and checks it against the reference.
func (b *hostBench) sweep() (*core.Detector, error) {
	d := b.warm
	if d == nil {
		d = newDetector(b.m, true)
	}
	reps, err := d.ScanAll()
	if err != nil {
		return d, err
	}
	if len(reps) != len(b.ref) {
		return d, fmt.Errorf("sweep returned %d reports, reference %d", len(reps), len(b.ref))
	}
	for i, r := range reps {
		if r.Digest != b.ref[i] {
			return d, fmt.Errorf("report %d digest %.12s differs from reference %.12s", i, r.Digest, b.ref[i])
		}
	}
	return d, nil
}

func (b *hostBench) run(dur time.Duration, tr *tracer, t *tally) *opStats {
	st := &opStats{}
	end := time.Now().Add(dur)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		var before core.CacheStats
		if b.warm != nil {
			before = b.warm.Cache.Stats()
		}
		v0 := b.m.Clock.Now()
		start := time.Now()
		d, err := b.sweep()
		stop := time.Now()
		t.check(err)
		tr.record("core.scan_all", 0, fmt.Sprintf("sweep-%d", i), start, stop)
		st.latencies = append(st.latencies, stop.Sub(start))
		st.virtual = append(st.virtual, b.m.Clock.Now()-v0)
		after := d.Cache.Stats()
		st.cacheHits += after.Hits - before.Hits
		st.cacheLookups += after.Hits + after.Misses - before.Hits - before.Misses
	}
	st.roots = st.latencies
	return st
}

func (b *hostBench) machines() []*machine.Machine { return []*machine.Machine{b.m} }

func (b *hostBench) close() {}
