// Package supervise is the live-recovery layer: watchdogs that notice
// when a worker stops making progress, a quantile tracker that decides
// when a host scan has become a straggler worth hedging, the bounded
// retry policy (backoff, jitter, breaker) every control-plane level
// shares, and a bounded admission gate that sheds load before the
// daemon melts down.
//
// The package deliberately knows nothing about shards, hosts, or HTTP.
// Callers register opaque watch IDs and emit beats; the supervisor's
// only output is a wedge callback. That keeps the policy testable in
// isolation and reusable across the fleet and fleetshard layers.
//
// Unlike the scan engine, supervision runs on *wall* clock: the whole
// point of a watchdog is to notice that virtual time has stopped
// advancing because a real read wedged underneath it. Retry waits are
// the exception — they are virtual time the caller charges.
package supervise

import (
	"sort"
	"sync"
	"time"
)

// Policy tunes a Supervisor. A watch is declared wedged when it has
// emitted no beat for Deadline × max(1, Misses) of wall time: Deadline
// is the expected beacon cadence, Misses how many consecutive beacons
// may be skipped before the watchdog fires.
type Policy struct {
	// Deadline is the expected interval between progress beacons.
	Deadline time.Duration
	// Misses is how many beacon intervals may elapse in silence before
	// the watch is declared wedged. Zero means 1.
	Misses int
}

// TimeoutTotal is the effective wall-clock silence that wedges a watch.
func (p Policy) TimeoutTotal() time.Duration {
	m := p.Misses
	if m < 1 {
		m = 1
	}
	return p.Deadline * time.Duration(m)
}

// Enabled reports whether the policy actually supervises anything.
func (p Policy) Enabled() bool { return p.Deadline > 0 }

type watch struct {
	last    time.Time
	onWedge func()
	wedged  bool
}

// Supervisor tracks progress beacons for a set of watches and fires a
// per-watch callback exactly once when one goes silent past the policy
// deadline. All methods are safe for concurrent use. The zero value is
// not usable; construct with New.
type Supervisor struct {
	policy Policy

	mu      sync.Mutex
	watches map[string]*watch
	beats   int64
	wedged  int64

	stopc chan struct{}
	done  chan struct{}
}

// New builds a Supervisor for the given policy. If the policy is
// disabled (zero Deadline) the supervisor is inert: Watch/Beat/Done are
// cheap no-ops and Check never fires.
func New(policy Policy) *Supervisor {
	return &Supervisor{policy: policy, watches: map[string]*watch{}}
}

// Watch registers id and counts an initial beat, so a watch that wedges
// before its first unit of progress still fires one full timeout after
// registration. onWedge runs at most once, from whichever goroutine
// calls Check (or the background ticker); it must not call back into
// the supervisor for the same id.
func (s *Supervisor) Watch(id string, onWedge func()) {
	if !s.policy.Enabled() {
		return
	}
	s.mu.Lock()
	s.watches[id] = &watch{last: time.Now(), onWedge: onWedge}
	s.mu.Unlock()
}

// Beat records progress for id. Beats for unknown (or already wedged)
// ids are dropped — a cancelled worker's late beats must not resurrect
// its watch.
func (s *Supervisor) Beat(id string) {
	if !s.policy.Enabled() {
		return
	}
	s.mu.Lock()
	if w, ok := s.watches[id]; ok && !w.wedged {
		w.last = time.Now()
		s.beats++
	}
	s.mu.Unlock()
}

// Done deregisters id. A watch that finishes cleanly can no longer
// wedge, even if Check races with the removal.
func (s *Supervisor) Done(id string) {
	if !s.policy.Enabled() {
		return
	}
	s.mu.Lock()
	delete(s.watches, id)
	s.mu.Unlock()
}

// Check scans every live watch against now and fires the wedge callback
// for each one that has been silent past the policy timeout. It returns
// the wedged ids in sorted order (deterministic for tests). Callbacks
// run outside the supervisor lock.
func (s *Supervisor) Check(now time.Time) []string {
	if !s.policy.Enabled() {
		return nil
	}
	limit := s.policy.TimeoutTotal()
	var fired []string
	var callbacks []func()
	s.mu.Lock()
	for id, w := range s.watches {
		if w.wedged || now.Sub(w.last) < limit {
			continue
		}
		w.wedged = true
		s.wedged++
		fired = append(fired, id)
		if w.onWedge != nil {
			callbacks = append(callbacks, w.onWedge)
		}
	}
	s.mu.Unlock()
	sort.Strings(fired)
	for _, cb := range callbacks {
		cb()
	}
	return fired
}

// Start launches a background ticker that calls Check at half the
// policy deadline (so a wedge is detected within ~1.5× the configured
// timeout). Stop halts it. Start on a disabled policy is a no-op.
func (s *Supervisor) Start() {
	if !s.policy.Enabled() || s.stopc != nil {
		return
	}
	interval := s.policy.Deadline / 2
	if interval <= 0 {
		interval = time.Millisecond
	}
	s.stopc = make(chan struct{})
	s.done = make(chan struct{})
	go func(stopc, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopc:
				return
			case now := <-t.C:
				s.Check(now)
			}
		}
	}(s.stopc, s.done)
}

// Stop halts the background ticker started by Start and waits for it to
// exit. Safe to call when Start was never called.
func (s *Supervisor) Stop() {
	if s.stopc == nil {
		return
	}
	close(s.stopc)
	<-s.done
	s.stopc, s.done = nil, nil
}

// Stats is a point-in-time snapshot of supervisor activity.
type Stats struct {
	// Watching is the number of currently registered, non-wedged watches.
	Watching int
	// Beats is the total number of accepted progress beacons.
	Beats int64
	// Wedged is the total number of watches declared wedged.
	Wedged int64
}

// Stats returns current counters.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := 0
	for _, w := range s.watches {
		if !w.wedged {
			live++
		}
	}
	return Stats{Watching: live, Beats: s.beats, Wedged: s.wedged}
}
