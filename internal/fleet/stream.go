// Sweep summaries: every Run folds each committed result into a compact
// SweepSummary (counts, virtual-time charges, and an order-independent
// digest accumulator) the moment it commits, hands it to the plan's
// sink, and drops it — so a shard sweeping a hundred thousand hosts
// keeps O(in-flight) results resident, never O(hosts), unless its sink
// chooses to retain them (Collector). The summary's digest is the
// per-shard entry in the cross-shard (fourth) verification layer;
// internal/fleetshard merges summaries across shards.
package fleet

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"ghostbuster/internal/journal"
)

// ResidentGauge counts host results that are in flight or awaiting
// aggregation. Run raises it when a host scan starts and
// lower it once the result has been folded and released, so its peak is
// the bounded-memory invariant a test can pin: peak ≤ workers (+1 for
// the result crossing the channel), or summed across a coordinator's
// shards, O(shards + in-flight hosts).
type ResidentGauge struct {
	cur, peak atomic.Int64
}

// Inc marks one more result resident.
func (g *ResidentGauge) Inc() {
	c := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if c <= p || g.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// Dec marks one result folded and released.
func (g *ResidentGauge) Dec() { g.cur.Add(-1) }

// Current returns the resident count right now.
func (g *ResidentGauge) Current() int { return int(g.cur.Load()) }

// Peak returns the highest resident count observed.
func (g *ResidentGauge) Peak() int { return int(g.peak.Load()) }

// SweepSummary is the bounded-memory outcome of a sweep: what Run
// returns, and what a sweeper shard sends back to its coordinator
// instead of a full Report. Everything in it is O(1) in the host count.
type SweepSummary struct {
	Kind SweepKind `json:"kind"`
	// Hosts is the enrolled host count; Scanned how many produced a
	// committed result (replayed ones included).
	Hosts   int `json:"hosts"`
	Scanned int `json:"scanned"`
	// Verdict counters over the scanned hosts.
	Infected      int `json:"infected"`
	HiddenTotal   int `json:"hiddenTotal"`
	Failed        int `json:"failed"`
	DegradedHosts int `json:"degradedHosts"`
	Quarantined   int `json:"quarantined"`
	// Replayed counts hosts restored from the journal on resume;
	// provenance, excluded from the digest like Report.Replayed.
	Replayed int `json:"replayed,omitempty"`
	// NotScanned counts hosts an abort left unvisited.
	NotScanned  int    `json:"notScanned,omitempty"`
	Aborted     bool   `json:"aborted,omitempty"`
	AbortReason string `json:"abortReason,omitempty"`
	// Interrupted marks a sweep cut short by cancelling Run's context (or
	// a replay-only run): the journal is sealed at the last committed
	// record and NotScanned counts the abandoned hosts. Provenance (like
	// Replayed), excluded from the digest — a wedged shard's committed
	// work must merge into the same cross-shard digest an uninterrupted
	// run produces.
	Interrupted bool `json:"interrupted,omitempty"`
	// Hedged counts duplicate scans launched for stragglers; HedgeWins
	// how many of those beat the primary. Provenance, excluded from the
	// digest: hedging may only change who computed a result, never the
	// result.
	Hedged    int64 `json:"hedged,omitempty"`
	HedgeWins int64 `json:"hedgeWins,omitempty"`
	// VirtualNs sums every host's Elapsed + RetryNs: the shard's total
	// virtual scan cost. A shard models one sweeper process scanning
	// its hosts, so this is also the shard's virtual makespan.
	VirtualNs int64 `json:"virtualNs"`
	// PeakResident is the gauge's high-water mark (shared gauge: the
	// coordinator-wide peak). Diagnostic, excluded from the digest.
	PeakResident int `json:"peakResident,omitempty"`
	// Acc is the order-independent fold of every scanned host's
	// (name, result hash) contribution.
	Acc Accumulator `json:"acc"`
	// Digest seals the summary (see ComputeDigest).
	Digest string `json:"digest,omitempty"`
}

// summaryDigestBody is the canonical form the summary digest covers:
// verdict structure and the host-content accumulator — not timing, not
// provenance, not the memory gauge.
type summaryDigestBody struct {
	Kind          SweepKind `json:"kind"`
	Hosts         int       `json:"hosts"`
	Scanned       int       `json:"scanned"`
	Infected      int       `json:"infected"`
	HiddenTotal   int       `json:"hiddenTotal"`
	Failed        int       `json:"failed"`
	DegradedHosts int       `json:"degradedHosts"`
	Quarantined   int       `json:"quarantined"`
	NotScanned    int       `json:"notScanned,omitempty"`
	Aborted       bool      `json:"aborted,omitempty"`
	AbortReason   string    `json:"abortReason,omitempty"`
	Acc           string    `json:"acc"`
}

func (s *SweepSummary) digestBody() summaryDigestBody {
	return summaryDigestBody{
		Kind: s.Kind, Hosts: s.Hosts, Scanned: s.Scanned,
		Infected: s.Infected, HiddenTotal: s.HiddenTotal,
		Failed: s.Failed, DegradedHosts: s.DegradedHosts,
		Quarantined: s.Quarantined, NotScanned: s.NotScanned,
		Aborted: s.Aborted, AbortReason: s.AbortReason,
		Acc: s.Acc.Sum(),
	}
}

// ComputeDigest returns the summary's canonical digest.
func (s *SweepSummary) ComputeDigest() string {
	data, err := json.Marshal(s.digestBody())
	if err != nil {
		panic(fmt.Sprintf("fleet: summary digest marshal: %v", err))
	}
	return journal.Hash(data)
}

// Seal stamps the summary with its digest.
func (s *SweepSummary) Seal() { s.Digest = s.ComputeDigest() }

// VerifyDigest checks the seal against the summary's content.
func (s *SweepSummary) VerifyDigest() error {
	if s.Digest == "" {
		return fmt.Errorf("fleet: sweep summary is unsealed (no digest)")
	}
	if got := s.ComputeDigest(); got != s.Digest {
		return fmt.Errorf("fleet: sweep summary digest mismatch: sealed %.12s, content hashes %.12s — summary altered after sealing",
			s.Digest, got)
	}
	return nil
}

// fold absorbs one committed host result. The result must already
// carry its content hash.
func (s *SweepSummary) fold(res HostResult) {
	s.Scanned++
	s.VirtualNs += int64(res.Elapsed + res.RetryNs)
	if res.Infected {
		s.Infected++
		s.HiddenTotal += res.Hidden
	}
	if res.Err != "" {
		s.Failed++
	}
	if res.Degraded > 0 {
		s.DegradedHosts++
	}
	if res.Quarantined {
		s.Quarantined++
	}
	s.Acc.Fold(res.Host, res.Hash)
}

// Merge folds another summary of the same sweep kind into this one —
// how a coordinator combines a resumed shard's primary summary with the
// recovery pass that adopted a lost shard's hosts. The merged summary
// is unsealed; call Seal again.
func (s *SweepSummary) Merge(o *SweepSummary) {
	s.Hosts += o.Hosts
	s.Scanned += o.Scanned
	s.Infected += o.Infected
	s.HiddenTotal += o.HiddenTotal
	s.Failed += o.Failed
	s.DegradedHosts += o.DegradedHosts
	s.Quarantined += o.Quarantined
	s.Replayed += o.Replayed
	s.NotScanned += o.NotScanned
	if o.Aborted {
		s.Aborted = true
		if s.AbortReason == "" {
			s.AbortReason = o.AbortReason
		}
	}
	if o.Interrupted {
		s.Interrupted = true
	}
	s.Hedged += o.Hedged
	s.HedgeWins += o.HedgeWins
	s.VirtualNs += o.VirtualNs
	if o.PeakResident > s.PeakResident {
		s.PeakResident = o.PeakResident
	}
	s.Acc.Merge(o.Acc)
	s.Digest = ""
}
