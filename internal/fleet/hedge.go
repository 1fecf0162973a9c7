// Straggler hedging: when one host's scan runs
// far past what its peers needed, the sweep launches a duplicate scan
// on a clone of the host and takes whichever result seals first. The
// scan engine is deterministic in the machine build, so the clone's
// result content-hashes identically to the primary's — which is what
// makes hedging digest-invisible:
//
//   - Exactly one result per host is ever committed (journaled, folded
//     into the accumulator, offered to the sink). The loser's result is
//     discarded on a buffered channel and never observed.
//   - ResultHash excludes Elapsed/RetryNs/Attempts, so even the racers'
//     timing skew cannot leak into layer 2..4 digests.
//   - Hedge-capable hosts journal no per-attempt StateRunning records
//     (neither racer does): a late loser can therefore never append an
//     attempt record after the winner's terminal commit, which would
//     poison analyzeJournal on a later resume. The only cost is that a
//     crash mid-hedged-scan loses that host's dangling-attempt count —
//     it re-runs from attempt 1, like a host that never started.
package fleet

import (
	"sync/atomic"
	"time"

	"ghostbuster/internal/supervise"
)

// maxHedges bounds simultaneous duplicate scans: each holds an extra
// materialized machine.
const maxHedges = 2

// HedgePolicy tunes straggler hedging. The threshold adapts to the
// sweep: a host hedges once its scan's wall-clock age exceeds
// Multiplier × the median of completed-scan durations (but never less
// than Floor, and only after MinSamples completions).
type HedgePolicy struct {
	// Multiplier scales the median into the hedge trigger; zero means 2.
	Multiplier float64
	// MinSamples gates hedging until this many scans have completed;
	// zero means 3.
	MinSamples int
	// Floor is the minimum trigger age — uniform fast fleets must not
	// hedge on scheduler jitter.
	Floor time.Duration
}

// hedger is the per-sweep hedging state.
type hedger struct {
	tracker supervise.QuantileTracker
	slots   chan struct{}
	hedged  atomic.Int64
	wins    atomic.Int64
}

func newHedger(p *HedgePolicy) *hedger {
	if p == nil {
		return nil
	}
	h := &hedger{slots: make(chan struct{}, maxHedges)}
	h.tracker.Multiplier = p.Multiplier
	h.tracker.MinSamples = p.MinSamples
	h.tracker.Floor = p.Floor
	return h
}

// hedgeable reports whether a duplicate scan of h can run on an
// independent clone: lazy hosts rebuild their machine from the builder,
// and ScanHost-seam hosts are synthetic. An eager host's single
// resident machine cannot be scanned by two workers at once.
func (mgr *Manager) hedgeable(h *Host) bool {
	return mgr.ScanHost != nil || h.build != nil
}

// cloneForHedge makes the independent host the duplicate scan runs on.
func (h *Host) cloneForHedge() *Host { return &Host{Name: h.Name, build: h.build} }

// hedgedRun races run(h) against a late-started duplicate on a clone
// and returns the first result. run must be safe to invoke on h and on
// h.cloneForHedge() concurrently (it must not journal attempt records —
// see the package comment).
func (hg *hedger) hedgedRun(h *Host, run func(*Host) HostResult) HostResult {
	type raced struct {
		res   HostResult
		clone bool
	}
	start := time.Now()
	resc := make(chan raced, 2) // buffered: the loser's send never blocks, never leaks
	go func() { resc <- raced{res: capturedScan(h, run)} }()

	var winner raced
	th := hg.tracker.Threshold()
	if th <= 0 {
		winner = <-resc
	} else {
		timer := time.NewTimer(th)
		select {
		case winner = <-resc:
			timer.Stop()
		case <-timer.C:
			select {
			case hg.slots <- struct{}{}:
				hg.hedged.Add(1)
				clone := h.cloneForHedge()
				go func() {
					defer func() { <-hg.slots }()
					resc <- raced{res: capturedScan(clone, run), clone: true}
				}()
			default:
				// No hedge slot free; keep waiting on the primary.
			}
			winner = <-resc
		}
	}
	if winner.clone {
		hg.wins.Add(1)
	}
	hg.tracker.Observe(time.Since(start))
	return winner.res
}
