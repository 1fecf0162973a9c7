// Durable sweeps: a Plan with a Journal path commits every host state
// transition to an append-only checksummed journal (internal/journal),
// so a sweep killed or wedged mid-run can be resumed: committed terminal
// results are replayed (after hash verification) instead of re-scanned,
// in-flight hosts are re-run with their attempt accounting continued,
// and the sealed report is tamper-evident end-to-end — per-host content
// hashes plus a fleet-level digest over them.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"

	"ghostbuster/internal/core"
	"ghostbuster/internal/journal"
)

// ErrEmptyJournal marks a journal with no committed records — the
// process died before the sweep header reached disk (or a torn tail
// swallowed it). Nothing in such a journal can be trusted or replayed;
// callers that own the host assignment (the shard coordinator) recover
// by starting that sweep over.
var ErrEmptyJournal = errors.New("fleet: journal has no committed records — nothing to resume (start a fresh sweep)")

// Report is the sealed outcome of a sweep, built by a Collector sink:
// the fleet-level artifact an operator acts on, carrying enough
// evidence to prove it was not altered after the fact.
type Report struct {
	Kind    SweepKind    `json:"kind"`
	Results []HostResult `json:"results"`
	// Quarantined lists hosts whose per-host circuit breaker opened,
	// sorted by name. Their last results are still in Results, marked
	// Quarantined.
	Quarantined []string `json:"quarantined,omitempty"`
	// Aborted is set when the fleet error budget stopped the sweep;
	// NotScanned lists the hosts the abort left unvisited.
	Aborted     bool     `json:"aborted,omitempty"`
	AbortReason string   `json:"abortReason,omitempty"`
	NotScanned  []string `json:"notScanned,omitempty"`
	// Replayed lists hosts whose results were restored from the
	// journal on resume (hash-verified, not re-scanned), sorted.
	Replayed []string `json:"replayed,omitempty"`
	// Digest is the fleet-level tamper-evidence seal: a hash over the
	// per-host result hashes and the sweep verdict structure.
	Digest string `json:"digest,omitempty"`
}

// ResultHash is the canonical content hash of one host result: SHA-256
// over its JSON form with timing and attempt accounting zeroed
// (Elapsed, RetryNs, Attempts, per-report Elapsed, and the hash field
// itself). Retry accounting is bookkeeping about how the sweep got the
// verdict; the hash covers the verdict — so an interrupted-and-resumed
// sweep and an uninterrupted one hash identically when they found the
// same things.
func ResultHash(r HostResult) string {
	c := r
	c.Elapsed, c.RetryNs, c.Attempts, c.Hash = 0, 0, 0, ""
	if len(r.Reports) > 0 {
		reports := make([]*core.Report, len(r.Reports))
		for i, rep := range r.Reports {
			cp := *rep
			cp.Elapsed = 0
			reports[i] = &cp
		}
		c.Reports = reports
	}
	data, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("fleet: result hash marshal: %v", err))
	}
	return journal.Hash(data)
}

// digestBody is the canonical form the fleet-level digest covers.
type digestBody struct {
	Kind        SweepKind `json:"kind"`
	Hosts       []string  `json:"hosts"`
	Hashes      []string  `json:"hashes"`
	Quarantined []string  `json:"quarantined,omitempty"`
	Aborted     bool      `json:"aborted,omitempty"`
	AbortReason string    `json:"abortReason,omitempty"`
	NotScanned  []string  `json:"notScanned,omitempty"`
}

// ComputeDigest returns the fleet report's canonical digest: a hash
// over the per-host result hashes and the sweep verdict structure.
// Replayed is excluded — where the results came from is provenance,
// not verdict: a resumed sweep that found the same things as an
// uninterrupted one carries the same digest.
func (r *Report) ComputeDigest() string {
	body := digestBody{
		Kind: r.Kind, Quarantined: r.Quarantined,
		Aborted: r.Aborted, AbortReason: r.AbortReason, NotScanned: r.NotScanned,
	}
	for _, hr := range r.Results {
		body.Hosts = append(body.Hosts, hr.Host)
		body.Hashes = append(body.Hashes, hr.Hash)
	}
	data, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("fleet: report digest marshal: %v", err))
	}
	return journal.Hash(data)
}

// Seal stamps the report with its fleet-level digest.
func (r *Report) Seal() { r.Digest = r.ComputeDigest() }

// Verify checks the report's tamper-evidence chain end-to-end: the
// fleet digest, every host result's content hash, and every scan
// report's canonical digest. Any mutation after sealing fails here.
func (r *Report) Verify() error {
	if r.Digest == "" {
		return fmt.Errorf("fleet: report is unsealed (no digest)")
	}
	if got := r.ComputeDigest(); got != r.Digest {
		return fmt.Errorf("fleet: report digest mismatch: sealed %s, content hashes %s — report altered after sealing",
			r.Digest[:12], got[:12])
	}
	for _, hr := range r.Results {
		if hr.Hash == "" {
			return fmt.Errorf("fleet: host %s result is unhashed", hr.Host)
		}
		if got := ResultHash(hr); got != hr.Hash {
			return fmt.Errorf("fleet: host %s result hash mismatch: recorded %s, content hashes %s",
				hr.Host, hr.Hash[:12], got[:12])
		}
		for _, rep := range hr.Reports {
			if err := rep.VerifyDigest(); err != nil {
				return fmt.Errorf("fleet: host %s: %w", hr.Host, err)
			}
		}
	}
	return nil
}

// Infected returns the infected host names, sorted.
func (r *Report) Infected() []string {
	var out []string
	for _, hr := range r.Results {
		if hr.Infected {
			out = append(out, hr.Host)
		}
	}
	return out
}

// Degraded reports whether any host result was degraded or errored
// without being a finding — the "couldn't fully look" verdict.
func (r *Report) Degraded() bool {
	if len(r.NotScanned) > 0 || len(r.Quarantined) > 0 {
		return true
	}
	for _, hr := range r.Results {
		if hr.Err != "" || hr.Degraded > 0 {
			return true
		}
	}
	return false
}

// hostReplay is what the journal says about one host: its committed
// terminal result (if any) and the attempt history the breaker needs.
type hostReplay struct {
	committed *HostResult
	// attempts is the highest attempt number journaled for the host.
	attempts int
	// dangling counts attempts that started but never committed a
	// terminal record — each one is a crash the host's scan did not
	// survive, and counts as a failed attempt for the circuit breaker.
	dangling int
}

// openJournal prepares a plan's journal. A fresh journaled sweep
// creates the file (truncating a husk) and commits the sweep header and
// one scheduled record per host before any scan; resume and replay open
// the journal — recovering a torn tail, failing loudly on interior
// corruption — and fold its records into per-host replay state. An
// unjournaled plan gets a nil journal.
func (mgr *Manager) openJournal(p Plan) (*journal.Journal, map[string]*hostReplay, error) {
	if p.Journal == "" {
		if p.Mode != ModeFresh {
			return nil, nil, fmt.Errorf("fleet: resume and replay need Plan.Journal")
		}
		return nil, nil, nil
	}
	if p.Mode != ModeFresh {
		j, rec, err := journal.Open(p.Journal)
		if err != nil {
			return nil, nil, err
		}
		replay, err := mgr.analyzeJournal(p.Kind, rec.Records)
		if err != nil {
			j.Close()
			return nil, nil, err
		}
		return j, replay, nil
	}
	j, err := journal.Create(p.Journal)
	if err != nil {
		return nil, nil, err
	}
	if _, err := j.Append(journal.Record{State: journal.StateSweep, Kind: string(p.Kind), Hosts: mgr.Hosts()}); err != nil {
		j.Close()
		return nil, nil, err
	}
	for _, h := range mgr.hosts {
		if _, err := j.Append(journal.Record{State: journal.StateScheduled, Host: h.Name}); err != nil {
			j.Close()
			return nil, nil, err
		}
	}
	return j, nil, nil
}

// analyzeJournal validates the journal against this manager's sweep
// and folds its records into per-host replay state.
func (mgr *Manager) analyzeJournal(kind SweepKind, recs []journal.Record) (map[string]*hostReplay, error) {
	if len(recs) == 0 {
		return nil, ErrEmptyJournal
	}
	head := recs[0]
	if head.State != journal.StateSweep {
		return nil, fmt.Errorf("fleet: journal does not start with a sweep header (got %q)", head.State)
	}
	if head.Kind != string(kind) {
		return nil, fmt.Errorf("fleet: journal records a %q sweep, resuming as %q", head.Kind, kind)
	}
	enrolled := mgr.Hosts()
	if fmt.Sprint(head.Hosts) != fmt.Sprint(enrolled) {
		return nil, fmt.Errorf("fleet: journal host set %v does not match enrolled fleet %v", head.Hosts, enrolled)
	}
	replay := map[string]*hostReplay{}
	byName := map[string]bool{}
	for _, h := range enrolled {
		byName[h] = true
	}
	for _, rec := range recs[1:] {
		if rec.State == journal.StateAborted {
			continue // the operator resuming overrides a past abort
		}
		if !byName[rec.Host] {
			return nil, fmt.Errorf("fleet: journal record %d names unknown host %q", rec.Seq, rec.Host)
		}
		hr := replay[rec.Host]
		if hr == nil {
			hr = &hostReplay{}
			replay[rec.Host] = hr
		}
		switch {
		case rec.State == journal.StateRunning:
			if hr.committed != nil {
				return nil, fmt.Errorf("fleet: journal record %d re-runs host %s after its terminal record", rec.Seq, rec.Host)
			}
			if rec.Attempt > hr.attempts {
				hr.attempts = rec.Attempt
			}
			hr.dangling++
		case rec.State.Terminal():
			if hr.committed != nil {
				return nil, fmt.Errorf("fleet: journal record %d commits host %s twice", rec.Seq, rec.Host)
			}
			var res HostResult
			if err := json.Unmarshal(rec.Result, &res); err != nil {
				return nil, fmt.Errorf("fleet: journal record %d result for %s unparseable: %w", rec.Seq, rec.Host, err)
			}
			if got := ResultHash(res); got != rec.ResultHash || rec.ResultHash == "" {
				return nil, fmt.Errorf("fleet: journal result for host %s fails hash verification (recorded %.12s, content %.12s) — journal tampered or corrupt",
					rec.Host, rec.ResultHash, got)
			}
			for _, rep := range res.Reports {
				if err := rep.VerifyDigest(); err != nil {
					return nil, fmt.Errorf("fleet: journal result for host %s: %w", rec.Host, err)
				}
			}
			res.Hash = rec.ResultHash
			hr.committed = &res
			hr.dangling = 0
		}
	}
	return replay, nil
}

// terminalState maps a finished host result to its journal state.
func terminalState(res HostResult) journal.State {
	switch {
	case res.Quarantined:
		return journal.StateQuarantined
	case res.Err != "":
		return journal.StateFailed
	case res.Degraded > 0:
		return journal.StateDegraded
	default:
		return journal.StateDone
	}
}
