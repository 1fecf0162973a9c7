// Package fleet implements the enterprise deployment story (§1:
// "corporate IT organizations can remotely deploy the solution on a
// large number of desktops without requiring user cooperation"; §5: the
// Remote Installation Service network boot that automates outside-the-
// box scans). A Manager owns a set of hosts and runs inside sweeps —
// fast, daily — and outside sweeps — the RIS netboot flow — collecting
// machine-readable results.
//
// Every sweep is one call to Manager.Run with a Plan, and runs through a
// bounded worker-pool scheduler: a 10k-host sweep costs a fixed number
// of goroutines (the plan's worker bound), not one per host. Each host
// carries an incremental-scan cache, so the daily re-sweep of an
// unchanged desktop charges only generation-check verify passes instead
// of a full MFT and hive reparse.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/supervise"
	"ghostbuster/internal/winpe"
)

// Host is one managed desktop.
type Host struct {
	Name string
	M    *machine.Machine

	// cache memoizes the host's low-level parses across sweeps. It is
	// only touched by the worker scanning this host; the scheduler never
	// hands one host to two workers at once.
	cache *core.ScanCache

	// build constructs the host's machine on demand (AddLazy). A lazy
	// host is materialized when its scan starts and released once its
	// result stands, so a million-host shard never holds more than its
	// in-flight machines resident.
	build func() (*machine.Machine, error)
}

// materialize builds a lazy host's machine if it is not resident.
func (h *Host) materialize() error {
	if h.M != nil {
		return nil
	}
	if h.build == nil {
		return fmt.Errorf("fleet: host %s has no machine and no builder", h.Name)
	}
	m, err := h.build()
	if err != nil {
		return fmt.Errorf("fleet: building host %s: %w", h.Name, err)
	}
	h.M = m
	h.cache = core.NewScanCache(m)
	return nil
}

// release drops a lazy host's machine and cache; the builder can
// re-materialize it if the host is ever re-scanned. Eager hosts (Add)
// are never released — their warm caches are the point.
func (h *Host) release() {
	if h.build != nil {
		h.M, h.cache = nil, nil
	}
}

// HostResult is the scan outcome for one host.
type HostResult struct {
	Host     string         `json:"host"`
	Kind     SweepKind      `json:"kind"` // "inside" or "outside"
	Reports  []*core.Report `json:"reports"`
	Infected bool           `json:"infected"`
	Hidden   int            `json:"hiddenCount"`
	Elapsed  time.Duration  `json:"elapsedNs"` // virtual time of the final attempt
	Err      string         `json:"error,omitempty"`
	// Degraded counts scan units lost to contained faults across the
	// reports (see core.Report.DegradedUnits).
	Degraded int `json:"degraded,omitempty"`
	// Attempts is how many scan attempts this result took; omitted when
	// the first attempt stood.
	Attempts int `json:"attempts,omitempty"`
	// RetryNs is the virtual time consumed by abandoned attempts and
	// backoff waits. It is kept out of Elapsed so a retried host's scan
	// cost is not double-charged in benchmark aggregates; the total
	// virtual cost of the host is Elapsed + RetryNs.
	RetryNs time.Duration `json:"retryNs,omitempty"`
	// Quarantined marks a host whose per-host circuit breaker opened:
	// too many consecutive failed attempts (across resumes), so the
	// sweep stopped burning retry budget on it. See Report.Quarantined.
	Quarantined bool `json:"quarantined,omitempty"`
	// Hash is the content hash of this result (see ResultHash), set when
	// the result commits; it excludes timing and attempt accounting, so
	// a replayed result hashes identically to the run that committed it.
	Hash string `json:"hash,omitempty"`
	// Replayed marks a result restored from the journal on resume
	// (hash-verified, not re-scanned). Provenance for the sink; never
	// serialized, so it cannot reach a hash or a journal record.
	Replayed bool `json:"-"`
}

// SweepKind selects which detection flow a sweep runs on every host.
type SweepKind string

// The two deployment flows of the paper.
const (
	SweepInside  SweepKind = "inside"  // daily in-service cross-view scan
	SweepOutside SweepKind = "outside" // RIS netboot clean-OS scan
)

// Manager coordinates scans across hosts. It has exactly one sweep
// method, Run; everything a sweep varies by (kind, worker bound,
// journal, sink) travels in the Plan, and the fields here are the
// per-host scan policy every sweep over this fleet shares.
type Manager struct {
	hosts []*Host
	// sorted tracks whether hosts is in name order; Add/AddLazy mark it
	// dirty and Run re-sorts lazily, so enrolling a million hosts is
	// O(n log n) total instead of O(n² log n).
	sorted bool
	// HostParallelism is the intra-host fan-out: each inside scan runs
	// its eight scan units across this many lanes (core.Detector
	// Parallelism). Zero or one keeps per-host scans sequential.
	HostParallelism int
	// HostDeadline bounds each inside scan attempt in virtual time
	// (core.Detector Deadline); zero means no deadline.
	HostDeadline time.Duration
	// Retry is the per-host retry policy: a failed or degraded scan is
	// re-run after a doubling virtual-time backoff (transient faults — a
	// torn read, a mid-scan mutation — often clear on re-scan), and a
	// host whose consecutive hard failures reach the breaker threshold
	// (counted across resumes of a journaled sweep) is quarantined
	// instead of retried forever. The zero policy retries nothing.
	Retry supervise.RetryPolicy
	// AbortAfterFailureFraction stops a sweep loudly once more than
	// this fraction of the fleet has failed or been quarantined — a
	// failure rate that high means the run itself is compromised, not
	// the hosts. Zero disables the error budget.
	AbortAfterFailureFraction float64
	// ConfigureDetector, when set, customizes each inside scan's
	// detector after the sweep defaults (Advanced, Contain, Cache,
	// Parallelism, Deadline) are applied — the seam scan-policy
	// profiles reach per-host scans through: a quick profile turns the
	// CID-table traversal off, a forensic one turns containment off and
	// swaps the noise-filter set. Must be safe for concurrent calls;
	// profile method values are.
	ConfigureDetector func(d *core.Detector)
	// ScanHost, when set, replaces the real per-host scan body. It is
	// the control-plane simulation seam: shard-scaling and million-host
	// benchmarks exercise the scheduler, journal, and digest machinery
	// against deterministic synthetic results without paying a full
	// machine build per host. Production sweeps leave it nil.
	ScanHost func(h *Host, kind SweepKind) HostResult
	// Resident, when set, tracks how many host results are in flight or
	// awaiting aggregation at once — the bounded-memory gauge sweeps pin
	// in tests and benchmarks. A fleetshard coordinator shares one gauge
	// across every shard manager it drives.
	Resident *ResidentGauge
	// Hedge, when set, enables straggler hedging: a host scan that
	// outlives the policy threshold gets a duplicate scan on a clone of
	// the host, and the first result to seal wins. See HedgePolicy for
	// the digest-equality rules.
	Hedge *HedgePolicy
}

// backoffTag folds a host name into a mixer discriminator so two hosts
// retrying after the same failure wave jitter independently.
func backoffTag(name string) uint64 {
	var h uint64 = 14695981039346656037 // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// NewManager returns an empty fleet.
func NewManager() *Manager { return &Manager{} }

// Add enrolls a host.
func (mgr *Manager) Add(name string, m *machine.Machine) {
	mgr.hosts = append(mgr.hosts, &Host{Name: name, M: m, cache: core.NewScanCache(m)})
	mgr.sorted = false
}

// AddWithCache enrolls a host with a caller-owned scan cache. The cache
// must have been built on m (core.NewScanCache(m)). This is how the
// resident daemon keeps incremental scans warm across sweeps: it builds
// a short-lived Manager per sweep over just the due hosts, but owns one
// long-lived cache per registration, so a quiet host's re-scan charges
// only the generation-check verify passes no matter how many managers
// have come and gone. A nil cache behaves like Add.
func (mgr *Manager) AddWithCache(name string, m *machine.Machine, cache *core.ScanCache) {
	if cache == nil {
		cache = core.NewScanCache(m)
	}
	mgr.hosts = append(mgr.hosts, &Host{Name: name, M: m, cache: cache})
	mgr.sorted = false
}

// AddLazy enrolls a host whose machine is built on demand when its scan
// starts. Streaming sweeps release the machine again after the result
// is committed, so enrolling a huge shard costs one small descriptor
// per host, not one simulated machine per host.
func (mgr *Manager) AddLazy(name string, build func() (*machine.Machine, error)) {
	mgr.hosts = append(mgr.hosts, &Host{Name: name, build: build})
	mgr.sorted = false
}

// ensureSorted restores the name-order invariant every sweep relies on.
func (mgr *Manager) ensureSorted() {
	if mgr.sorted {
		return
	}
	sort.Slice(mgr.hosts, func(i, j int) bool { return mgr.hosts[i].Name < mgr.hosts[j].Name })
	mgr.sorted = true
}

// Hosts returns the enrolled host names.
func (mgr *Manager) Hosts() []string {
	mgr.ensureSorted()
	out := make([]string, len(mgr.hosts))
	for i, h := range mgr.hosts {
		out[i] = h.Name
	}
	return out
}

// --- per-host scan bodies -------------------------------------------------

// insideScan runs the inside-the-box detection (all four paper resource
// types, advanced process mode) on one host, reusing the host's scan
// cache for the truth-side parses. Scan-unit failures are contained:
// they degrade the affected report instead of failing the host. If the
// scan panics outside a contained unit, the reports assembled so far are
// still attached to the result, so a degraded host stays reportable.
func (h *Host) insideScan(parallelism int, deadline time.Duration, configure func(*core.Detector)) (res HostResult) {
	res = HostResult{Host: h.Name, Kind: SweepInside}
	start := h.M.Clock.Now()
	var partial []*core.Report
	defer func() {
		if p := recover(); p != nil {
			res = HostResult{Host: h.Name, Kind: SweepInside, Err: fmt.Sprintf("scan panic: %v", p)}
			h.finish(&res, partial, nil, start)
		}
	}()
	d := core.NewDetector(h.M)
	d.Advanced = true
	d.Cache = h.cache
	d.Parallelism = parallelism
	d.Contain = true
	d.Deadline = deadline
	if configure != nil {
		configure(d)
	}
	d.OnReport = func(r *core.Report) { partial = append(partial, r) }
	reports, err := d.ScanAll()
	if reports == nil {
		reports = partial
	}
	h.finish(&res, reports, err, start)
	return res
}

// outsideScan runs the RIS-automated outside-the-box file check on one
// host: the machine reboots into the network boot image, is scanned
// clean, and reboots back into service.
func (h *Host) outsideScan() HostResult {
	res := HostResult{Host: h.Name, Kind: SweepOutside}
	start := h.M.Clock.Now()
	report, err := winpe.OutsideFileCheck(h.M, core.DiffOptions{})
	var reports []*core.Report
	if report != nil {
		reports = []*core.Report{report}
	}
	h.finish(&res, reports, err, start)
	return res
}

// finish fills the shared result fields from a scan outcome. Reports
// are attached even alongside an error, so partial results from a
// degraded host are never dropped.
func (h *Host) finish(res *HostResult, reports []*core.Report, err error, start time.Duration) {
	res.Reports = reports
	for _, r := range reports {
		res.Hidden += len(r.Hidden)
		res.Degraded += len(r.DegradedUnits)
	}
	res.Infected = res.Hidden > 0
	if err != nil {
		res.Err = err.Error()
	}
	res.Elapsed = h.M.Clock.Now() - start
}

// scanHost runs one scan attempt on a host: the ScanHost simulation
// seam if set, otherwise the real scan on a (possibly just
// materialized) machine. A cancellable ctx is threaded into the inside
// scan's detector, so a cancelled in-flight scan abandons its remaining
// units at the next unit boundary instead of running to completion.
func (mgr *Manager) scanHost(ctx context.Context, h *Host, kind SweepKind) HostResult {
	if mgr.ScanHost != nil {
		return mgr.ScanHost(h, kind)
	}
	if err := h.materialize(); err != nil {
		return HostResult{Host: h.Name, Kind: kind, Err: err.Error()}
	}
	if kind == SweepOutside {
		return h.outsideScan()
	}
	configure := mgr.ConfigureDetector
	if done := ctx.Done(); done != nil {
		inner := configure
		configure = func(d *core.Detector) {
			d.Cancel = done
			if inner != nil {
				inner(d)
			}
		}
	}
	return h.insideScan(mgr.HostParallelism, mgr.HostDeadline, configure)
}

// resultCancelled reports whether a host result is a cancellation
// casualty: a scan that abandoned units because the sweep's context was
// cancelled mid-flight. The detector's ErrCancelled text survives both
// the fail-fast error and a contained unit's DegradedUnit fault, so
// either surface marks the result partial by construction — the
// collector discards it rather than committing a weaker verdict than
// the host would earn from a full scan.
func resultCancelled(res *HostResult) bool {
	marker := core.ErrCancelled.Error()
	if strings.Contains(res.Err, marker) {
		return true
	}
	for _, r := range res.Reports {
		for _, du := range r.DegradedUnits {
			if strings.Contains(du.Fault, marker) {
				return true
			}
		}
	}
	return false
}

// runHostFrom scans one host under the manager's retry policy, with
// attempt numbering continuing after priorAttempts and the breaker
// counting priorFailed dangling attempts from before a crash. onAttempt,
// when set, commits each attempt start to the journal before it runs.
// The returned result is the final attempt's; vtime burned by abandoned
// attempts and backoff waits accumulates in RetryNs so Elapsed never
// double-charges a host.
func (mgr *Manager) runHostFrom(ctx context.Context, h *Host, kind SweepKind, priorAttempts, priorFailed int, onAttempt func(attempt int)) HostResult {
	rt := mgr.Retry.Begin(backoffTag(h.Name), priorAttempts, priorFailed)
	var retryNs time.Duration
	for {
		attempt := rt.Next()
		if onAttempt != nil {
			onAttempt(attempt)
		}
		res := mgr.scanHost(ctx, h, kind)
		if resultCancelled(&res) {
			// The sweep is being torn down; retrying would spin against
			// the cancelled context. Return the casualty as-is — the
			// collector discards it and the host stays unfinished.
			return res
		}
		verdict, wait := rt.After(res.Err == "" && res.Degraded == 0, res.Err != "")
		if verdict != supervise.Retry {
			if verdict == supervise.Quarantine {
				res.Quarantined = true
			}
			if attempt > 1 {
				res.Attempts = attempt
				res.RetryNs = retryNs
			}
			return res
		}
		retryNs += res.Elapsed + wait
		if h.M != nil { // synthetic hosts have no machine clock to wait on
			h.M.Clock.Advance(wait)
		}
	}
}

// --- bounded scheduler ----------------------------------------------------

type indexedResult struct {
	i int
	r HostResult
}

// scheduleHosts fans scan out over the given host indices with at most
// `workers` goroutines (0 means runtime.GOMAXPROCS(0)) and streams
// completions. It stops issuing new hosts once stop is closed; in-flight
// scans still complete and report. A panicking host scan is captured as
// that host's error instead of tearing down the whole sweep.
func (mgr *Manager) scheduleHosts(workers int, indices []int, stop <-chan struct{}, scan func(*Host) HostResult) <-chan indexedResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(indices) {
		workers = len(indices)
	}
	jobs := make(chan int)
	out := make(chan indexedResult)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out <- indexedResult{i: i, r: capturedScan(mgr.hosts[i], scan)}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, i := range indices {
			select {
			case jobs <- i:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// capturedScan runs one host scan, converting a panic into a per-host
// error result.
func capturedScan(h *Host, scan func(*Host) HostResult) (res HostResult) {
	defer func() {
		if p := recover(); p != nil {
			res = HostResult{Host: h.Name, Err: fmt.Sprintf("scan panic: %v", p)}
		}
	}()
	return scan(h)
}
