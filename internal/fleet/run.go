// The sweep: Manager.Run is the single entry point for every flow —
// inside or outside, unjournaled, journaled, resumed, or replay-only —
// and one scan → journal-commit → fold → sink loop backs all of them.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"ghostbuster/internal/journal"
	"ghostbuster/internal/supervise"
)

// Mode says what Run does with the plan's journal.
type Mode int

const (
	// ModeFresh starts a new sweep. With a journal path the file is
	// created (truncating any previous one) and seeded with the sweep
	// header and one scheduled record per host before any scan.
	ModeFresh Mode = iota
	// ModeResume continues the sweep recorded in the journal: committed
	// results are hash-verified and replayed without re-scanning, and
	// every other host is re-run with its attempt numbering and breaker
	// count carried across the crash. A journal with no committed
	// records fails with ErrEmptyJournal.
	ModeResume
	// ModeReplay folds the journal's committed results and runs nothing.
	// This is how a coordinator resuming after a crash accounts for a
	// shard that had been declared wedged: its unfinished hosts belong to
	// the survivors that adopted them, so re-scanning them here would
	// commit them twice. The summary comes back Interrupted, with
	// NotScanned counting the unfinished hosts.
	ModeReplay
)

// Sink receives every committed host result, in commit order: a
// replayed result once it is verified, a scanned one after its terminal
// record is appended to the journal. Calls are serialized.
type Sink func(HostResult)

// Plan is one sweep: which flow, how wide, where it is journaled, and
// who sees the results.
type Plan struct {
	// Kind is the detection flow run on every host; empty means
	// SweepInside.
	Kind SweepKind
	// Workers bounds concurrent host scans; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Journal is the journal file path; empty means unjournaled (only
	// ModeFresh is valid then). The file is left behind deliberately: it
	// is the recovery point if the process dies, and the audit trail if
	// it does not.
	Journal string
	// Mode is fresh, resume, or replay-only.
	Mode Mode
	// Sink, when set, receives every committed result (see Sink).
	Sink Sink
}

// Run executes the plan over every enrolled host and returns the sealed
// summary. Cancelling ctx stops host issuance and abandons in-flight
// scans (their partial results are discarded, never journaled); the
// summary then comes back Interrupted with the journal sealed at the
// last committed record. A journal write failure aborts the sweep with
// that error: a sweep that cannot commit its progress must not pretend
// to be durable.
func (mgr *Manager) Run(ctx context.Context, p Plan) (*SweepSummary, error) {
	if p.Kind == "" {
		p.Kind = SweepInside
	}
	mgr.ensureSorted()
	j, replay, err := mgr.openJournal(p)
	if err != nil {
		return nil, err
	}
	if j != nil {
		defer j.Close()
	}

	total := len(mgr.hosts)
	sum := &SweepSummary{Kind: p.Kind, Hosts: total}
	gauge := mgr.Resident
	if gauge == nil {
		gauge = &ResidentGauge{}
	}
	failed := 0
	budget := supervise.ErrorBudget{Fraction: mgr.AbortAfterFailureFraction, Total: total}
	commit := func(res HostResult) {
		sum.fold(res)
		if p.Sink != nil {
			p.Sink(res)
		}
		if res.Err != "" || res.Quarantined {
			failed++
		}
	}

	// Replay committed results first: verified by analyzeJournal, folded
	// and released one at a time.
	var toRun []int
	for i, h := range mgr.hosts {
		hr := replay[h.Name]
		if hr == nil || hr.committed == nil {
			toRun = append(toRun, i)
			continue
		}
		res := *hr.committed
		hr.committed = nil // folded; free the parsed result
		res.Replayed = true
		gauge.Inc()
		sum.Replayed++
		commit(res)
		gauge.Dec()
	}
	if p.Mode == ModeReplay {
		sum.Interrupted = true
		toRun = nil
	}

	var (
		errOnce  sync.Once
		runErr   error
		stop     = make(chan struct{})
		stopOnce sync.Once
	)
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	record := func(rec journal.Record) {
		if j == nil {
			return
		}
		if _, err := j.Append(rec); err != nil {
			errOnce.Do(func() { runErr = err })
			halt()
		}
	}

	hg := newHedger(mgr.Hedge)
	scan := func(h *Host) HostResult {
		gauge.Inc() // raised for the whole in-flight window, dec'd after fold
		var prior hostReplay
		if hr := replay[h.Name]; hr != nil {
			prior = *hr
		}
		if hg != nil && mgr.hedgeable(h) {
			// Hedge-capable hosts journal no attempt records; see the
			// dedupe rules in hedge.go.
			return hg.hedgedRun(h, func(hh *Host) HostResult {
				r := mgr.runHostFrom(ctx, hh, p.Kind, prior.attempts, prior.dangling, nil)
				hh.release()
				return r
			})
		}
		res := mgr.runHostFrom(ctx, h, p.Kind, prior.attempts, prior.dangling, func(attempt int) {
			record(journal.Record{State: journal.StateRunning, Host: h.Name, Attempt: attempt})
		})
		h.release() // lazy hosts drop their machine once the result stands
		return res
	}

	results := mgr.scheduleHosts(p.Workers, toRun, stop, scan)
collect:
	for {
		var ir indexedResult
		var ok bool
		// An uncancellable ctx has a nil Done channel, which never fires;
		// the select degenerates to a plain receive.
		select {
		case <-ctx.Done():
			// Stop issuing hosts, discard any results still in flight (they
			// were never journaled or folded, so the committed set stays
			// exactly the journal's), and return the partial summary.
			// Terminal records are only ever appended by this loop, so
			// leaving it IS the seal at the last committed record.
			sum.Interrupted = true
			halt()
			go func() {
				for range results {
				}
			}()
			break collect
		case ir, ok = <-results:
			if !ok {
				break collect
			}
		}
		res := ir.r
		if ctx.Err() != nil && resultCancelled(&res) {
			// A scan the cancellation caught mid-flight: partial by
			// construction, never committed. The host stays unfinished
			// (its journal record, if any, is a dangling attempt) and is
			// re-scanned in full by whoever adopts it.
			gauge.Dec()
			continue
		}
		if res.Kind == "" {
			res.Kind = p.Kind // panic-captured results carry only Host and Err
		}
		res.Hash = ResultHash(res)
		if j != nil {
			resJSON, err := json.Marshal(res)
			if err != nil {
				errOnce.Do(func() { runErr = fmt.Errorf("fleet: marshal result for %s: %w", res.Host, err) })
				halt()
				gauge.Dec()
				continue
			}
			rec := journal.Record{
				State: terminalState(res), Host: res.Host, Attempt: res.Attempts,
				ElapsedNs: int64(res.Elapsed), RetryNs: int64(res.RetryNs),
				ResultHash: res.Hash, Result: resJSON,
			}
			if res.Quarantined {
				rec.Reason = fmt.Sprintf("circuit breaker open: %d consecutive failed attempts", mgr.Retry.BreakerThreshold)
			}
			record(rec)
		}
		commit(res)
		gauge.Dec()
		if res.Err != "" || res.Quarantined {
			if reason := budget.Exceeded(failed); reason != "" && !sum.Aborted {
				sum.Aborted, sum.AbortReason = true, reason
				record(journal.Record{State: journal.StateAborted, Reason: reason})
				halt()
			}
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if hg != nil {
		sum.Hedged = hg.hedged.Load()
		sum.HedgeWins = hg.wins.Load()
	}
	sum.NotScanned = total - sum.Scanned
	sum.PeakResident = gauge.Peak()
	sum.Seal()
	return sum, nil
}

// Collector is the Sink that keeps every committed result, so a sweep
// can be sealed into a Report — the per-host artifact the CLI prints
// and the daemon serves. It holds O(hosts) results; a caller that needs
// only verdict counts and the digest reads the SweepSummary instead.
type Collector struct {
	mgr     *Manager
	results []HostResult
}

// NewCollector returns an empty collector for a sweep over mgr's hosts.
func NewCollector(mgr *Manager) *Collector {
	return &Collector{mgr: mgr, results: []HostResult{}}
}

// Add is the collector's Sink.
func (c *Collector) Add(res HostResult) { c.results = append(c.results, res) }

// Report seals the collected results and the sweep's summary into a
// Report: results in host order, enrolled hosts without a committed
// result listed as NotScanned, and the abort verdict from the summary.
func (c *Collector) Report(sum *SweepSummary) *Report {
	rep := &Report{Kind: sum.Kind, Aborted: sum.Aborted, AbortReason: sum.AbortReason}
	sort.Slice(c.results, func(i, j int) bool { return c.results[i].Host < c.results[j].Host })
	done := make(map[string]bool, len(c.results))
	for _, res := range c.results {
		done[res.Host] = true
		if res.Quarantined {
			rep.Quarantined = append(rep.Quarantined, res.Host)
		}
		if res.Replayed {
			rep.Replayed = append(rep.Replayed, res.Host)
		}
	}
	for _, h := range c.mgr.Hosts() {
		if !done[h] {
			rep.NotScanned = append(rep.NotScanned, h)
		}
	}
	rep.Results = c.results
	rep.Seal()
	return rep
}
