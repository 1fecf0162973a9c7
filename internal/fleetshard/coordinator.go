// The Coordinator: tier two of the fleet-of-fleets control plane. It
// partitions hosts across sweeper shards with the consistent-hash ring,
// drives each shard's journaled fleet.Manager with bounded shard
// parallelism, folds the shards' streamed summaries into one merged
// report. Shard-level reliability is retry with the shared saturating
// backoff, watchdog failover of wedged shards and re-hashing of lost
// ones; a shard that still fails leaves its hosts loudly NotScanned.
// The circuit breaker and the error budget live one tier down, per
// host, in internal/fleet.
package fleetshard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/journal"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/supervise"
)

// HostSource names and (lazily) builds the fleet's hosts. Sources must
// be deterministic: Resume rebuilds lost hosts from scratch and their
// re-scanned results must hash identically to the uninterrupted run's.
type HostSource interface {
	// Len is the total host count.
	Len() int
	// Name returns host i's stable name. Names must be unique.
	Name(i int) string
	// Build constructs host i's machine. Called on demand when the
	// host's scan starts; the shard releases the machine afterwards.
	Build(i int) (*machine.Machine, error)
}

// Config tunes a Coordinator. The host-level knobs are forwarded to
// every shard's fleet.Manager; the shard-level ones retry a failed
// shard sweep. Every shard sweeps fleet.SweepInside.
type Config struct {
	// Shards is the sweeper shard count (required, >= 1).
	Shards int
	// ShardParallelism bounds how many shards sweep concurrently;
	// 0 means runtime.GOMAXPROCS(0).
	ShardParallelism int
	// ShardWorkers is each shard manager's worker-pool size; 0 means 1
	// (a shard models one sweeper process).
	ShardWorkers int
	// JournalDir, when set, holds one journal per shard plus the
	// coordinator manifest; sweeps are then resumable after losing any
	// subset of shards. Empty disables journaling (and resume).
	JournalDir string

	// Host-level knobs, forwarded verbatim to each shard manager.
	HostParallelism           int
	MaxRetries                int
	RetryBackoff              time.Duration
	HostDeadline              time.Duration
	BreakerThreshold          int
	AbortAfterFailureFraction float64

	// ShardMaxRetries re-runs a failed shard sweep this many extra
	// times, with a doubling backoff capped by the same saturation rule
	// as host retries (both levels drive supervise.RetryPolicy). A shard
	// still failing after its retries keeps its row's Err and leaves its
	// hosts NotScanned, so the report is Degraded.
	ShardMaxRetries int
	// ShardRetryBackoff is the first shard retry wait; 0 means 2s.
	ShardRetryBackoff time.Duration

	// ConfigureDetector is forwarded to every shard manager (see
	// fleet.Manager.ConfigureDetector): the seam scan-policy profiles
	// reach sharded per-host scans through. May be nil.
	ConfigureDetector func(d *core.Detector)
	// ScanHost is the simulation seam forwarded to shard managers (see
	// fleet.Manager.ScanHost). Production sweeps leave it nil.
	ScanHost func(h *fleet.Host, kind fleet.SweepKind) fleet.HostResult
	// OnResult streams every committed host result (shard id attached)
	// to the caller as it happens; the coordinator itself never retains
	// results. May be nil.
	OnResult func(shard int, res fleet.HostResult)
	// ShardFault injects an infrastructure failure into a shard sweep
	// attempt (chaos/testing seam): a non-nil error fails the attempt
	// before any host is scanned.
	ShardFault func(shard, attempt int) error

	// Watchdog, when enabled (nonzero Deadline), supervises every shard
	// job with progress beacons: each committed host result beats the
	// job's watch, and a job silent past Deadline × Misses of wall time
	// is declared wedged — its shard manager is cancelled (journal
	// sealed at the last committed record) and its unfinished hosts are
	// re-hashed onto the surviving shards mid-sweep. The final
	// MergedDigest equals the uninterrupted run's. Tune Deadline well
	// above the slowest single host scan's wall time: beacons only fire
	// when a host commits.
	Watchdog supervise.Policy
	// Hedge enables straggler hedging inside every shard manager (see
	// fleet.HedgePolicy).
	Hedge *fleet.HedgePolicy
	// BackoffJitterSeed applies deterministic full jitter to host- and
	// shard-level retry backoff waits (see supervise.RetryPolicy
	// JitterSeed). Zero keeps the exact doubling schedule.
	BackoffJitterSeed int64
}

// manifestName is the coordinator manifest file inside JournalDir.
const manifestName = "coordinator.json"

// manifest records the sweep topology so Resume can validate that the
// rebuilt fleet matches the journaled one. Host names are not listed —
// at a million hosts that would defeat the bounded-memory point; the
// per-shard journal headers carry each shard's exact host set. Kind is
// always "inside"; manifests written before the ring's vnode count was
// fixed also carry "vnodes": 0, which decoding ignores.
type manifest struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Shards  int    `json:"shards"`
	Hosts   int    `json:"hosts"`
}

// ShardResult is one shard's row in the fleet-of-fleets report.
type ShardResult struct {
	Shard int `json:"shard"`
	// Hosts is how many hosts the shard was responsible for this run
	// (primary assignment plus adopted hosts).
	Hosts int `json:"hosts"`
	// Summary is the shard's streamed sweep summary (nil if the shard
	// never produced one: lost, or failed past its retries).
	Summary *fleet.SweepSummary `json:"summary,omitempty"`
	// Adopted counts hosts re-hashed onto this shard from lost shards.
	Adopted int `json:"adopted,omitempty"`
	// Lost marks a shard whose journal did not survive; its hosts were
	// re-hashed across the survivors.
	Lost bool `json:"lost,omitempty"`
	// Resumed marks a shard that replayed its own journal.
	Resumed bool `json:"resumed,omitempty"`
	// Wedged marks a shard job the watchdog cancelled mid-sweep: its
	// journal is sealed at the last committed record and its unfinished
	// hosts were re-hashed onto survivors in flight. Provenance,
	// excluded from the merged digest.
	Wedged bool `json:"wedged,omitempty"`
	// Failover marks a row created by mid-sweep wedge failover: the
	// shard adopting another's unfinished hosts while the sweep was
	// still running.
	Failover bool   `json:"failover,omitempty"`
	Err      string `json:"error,omitempty"`
	// Attempts and RetryNs account shard-level retries; like the host
	// versions they are bookkeeping, excluded from every digest.
	Attempts int   `json:"attempts,omitempty"`
	RetryNs  int64 `json:"retryNs,omitempty"`
}

// Report is the merged fleet-of-fleets outcome. Per-shard digests are
// the fourth layer of the verification chain (scan report -> host
// result -> shard summary -> cross-shard report), and MergedDigest is
// the topology-independent seal: any shard count, completion order, or
// resume-after-loss re-hashing yields the same MergedDigest as long as
// every host contributed the same verdict exactly once.
type Report struct {
	Kind   fleet.SweepKind `json:"kind"`
	Shards int             `json:"shards"`
	Hosts  int             `json:"hosts"`

	ShardResults []ShardResult `json:"shardResults"`
	// LostShards lists shards whose journals did not survive the crash,
	// sorted. Provenance, excluded from digests.
	LostShards []int `json:"lostShards,omitempty"`

	// Aggregated host verdicts across every shard summary.
	Scanned          int `json:"scanned"`
	Infected         int `json:"infected"`
	HiddenTotal      int `json:"hiddenTotal"`
	Failed           int `json:"failed"`
	DegradedHosts    int `json:"degradedHosts"`
	QuarantinedHosts int `json:"quarantinedHosts"`
	Replayed         int `json:"replayed,omitempty"`
	NotScanned       int `json:"notScanned,omitempty"`

	Aborted     bool   `json:"aborted,omitempty"`
	AbortReason string `json:"abortReason,omitempty"`

	// VirtualNs is the fleet's total virtual scan cost; MakespanNs is
	// the sweep's virtual completion time — shards sweep in parallel,
	// so the makespan is the max over shards (plus that shard's retry
	// backoff), the quantity the 1→64 scaling curve tracks.
	VirtualNs  int64 `json:"virtualNs"`
	MakespanNs int64 `json:"makespanNs"`
	// PeakResident is the bounded-memory high-water mark: the most host
	// results in flight or awaiting aggregation at any instant, across
	// all shards.
	PeakResident int `json:"peakResident"`

	// Acc is the merged host-contribution accumulator.
	Acc fleet.Accumulator `json:"acc"`
	// MergedDigest seals the aggregate verdict + accumulator (fourth
	// layer, topology-independent).
	MergedDigest string `json:"mergedDigest"`
	// Digest seals the full report including the per-shard breakdown.
	Digest string `json:"digest"`
}

// Coordinator drives one sharded fleet.
type Coordinator struct {
	cfg  Config
	src  HostSource
	ring *Ring
}

// New builds a coordinator over the source's hosts.
func New(cfg Config, src HostSource) (*Coordinator, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("fleetshard: Config.Shards must be >= 1 (got %d)", cfg.Shards)
	}
	ring, err := NewRing(cfg.Shards)
	if err != nil {
		return nil, err
	}
	return &Coordinator{cfg: cfg, src: src, ring: ring}, nil
}

// partition assigns every host index to its shard on the given ring.
// O(hosts) ints — host descriptors, machines, and results stay lazy.
func (c *Coordinator) partition(r *Ring) map[int][]int {
	out := make(map[int][]int, c.cfg.Shards)
	for i, n := 0, c.src.Len(); i < n; i++ {
		s := r.Assign(c.src.Name(i))
		out[s] = append(out[s], i)
	}
	return out
}

// shardTask is one journal-scoped unit of a shard's work: its primary
// assignment or a recovery pass over hosts adopted from a lost shard.
type shardTask struct {
	indices []int
	path    string // "" = unjournaled
	resume  bool
	// replayOnly folds the journal's committed results without running
	// anything: how a resume accounts for a journal whose owner was
	// declared wedged — the unfinished hosts belong to the shards that
	// adopted them, so re-scanning them here would commit them twice.
	replayOnly bool
}

// shardJob is everything one shard must sweep this run.
type shardJob struct {
	shard   int
	tasks   []shardTask
	adopted int
}

func (j *shardJob) hostCount() int {
	n := 0
	for _, t := range j.tasks {
		n += len(t.indices)
	}
	return n
}

// shardJournalPath is shard i's primary journal; recoveryJournalPath
// the journal for hosts it adopts from lost shards.
func shardJournalPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.gbj", shard))
}

func recoveryJournalPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.recover.gbj", shard))
}

// failoverJournalPath is the n-th recovery journal for a shard: wedge
// failover can hand one adopter several distinct host sets over a run's
// lifetime (and a later resume may add more), and each needs its own
// journal so analyzeJournal's exact-host-set check keeps holding.
func failoverJournalPath(dir string, shard, n int) string {
	if n == 0 {
		return recoveryJournalPath(dir, shard)
	}
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.recover-%d.gbj", shard, n+1))
}

// wedgeMarkerPath is the sidecar recording a journal's wedge: written
// before any failover job is enqueued, so a crash mid-failover can
// reconstruct which hosts left the journal's ownership. The suffix is
// not .gbj, so VerifyJournals' glob never reads markers as journals.
func wedgeMarkerPath(journalPath string) string { return journalPath + ".wedged" }

// wedgeMarker is the marker's JSON body.
type wedgeMarker struct {
	Shard int `json:"shard"`
	// Unfinished lists the hosts that had no terminal record when the
	// watchdog fired — the ones adopted by survivors.
	Unfinished []string `json:"unfinished"`
}

// Sweep runs a fresh sharded sweep.
func (c *Coordinator) Sweep() (*Report, error) {
	dir := c.cfg.JournalDir
	if dir != "" {
		if err := c.writeManifest(dir); err != nil {
			return nil, err
		}
	}
	parts := c.partition(c.ring)
	jobs := make([]shardJob, 0, c.cfg.Shards)
	for s := 0; s < c.cfg.Shards; s++ {
		path := ""
		if dir != "" {
			path = shardJournalPath(dir, s)
		}
		jobs = append(jobs, shardJob{shard: s, tasks: []shardTask{{indices: parts[s], path: path}}})
	}
	return c.run(jobs, nil, nil)
}

// Resume continues an interrupted sharded sweep from JournalDir.
// Shards whose journal survived replay it; shards whose journal is gone
// are lost — their hosts are re-hashed across the surviving shards
// (consistent hashing keeps every surviving assignment in place) and
// re-run under recovery journals. Shards a watchdog had declared wedged
// before the crash (wedge marker present) are replay-only: their
// journals' committed results are folded without re-scanning, and the
// marker's unfinished hosts re-hash exactly as the live failover did.
// Committed results are never re-scanned, and the merged digest of a
// completed resume equals the uninterrupted run's.
func (c *Coordinator) Resume() (*Report, error) {
	dir := c.cfg.JournalDir
	if dir == "" {
		return nil, fmt.Errorf("fleetshard: Resume requires Config.JournalDir")
	}
	if err := c.readManifest(dir); err != nil {
		return nil, err
	}
	lost := map[int]bool{}
	var lostIDs []int
	for s := 0; s < c.cfg.Shards; s++ {
		if _, err := os.Stat(shardJournalPath(dir, s)); err != nil {
			lost[s] = true
			lostIDs = append(lostIDs, s)
		}
	}
	if len(lost) == c.cfg.Shards {
		// Every journal is gone: nothing to replay; start over under the
		// original topology.
		return c.Sweep()
	}

	// Wedge markers: journals whose owner was cancelled mid-sweep before
	// the crash. A marker whose journal is itself gone is stale — the
	// shard is simply lost and its whole assignment re-hashes.
	markers, err := readWedgeMarkers(dir)
	if err != nil {
		return nil, err
	}
	unavailable := map[int]bool{}
	for s := range lost {
		unavailable[s] = true
	}
	for path, m := range markers {
		if _, err := os.Stat(path); err != nil {
			delete(markers, path)
			continue
		}
		if lost[m.Shard] {
			delete(markers, path)
			continue
		}
		unavailable[m.Shard] = true
	}

	parts := c.partition(c.ring)
	nameIdx := make(map[string]int, c.src.Len())
	for i, n := 0, c.src.Len(); i < n; i++ {
		nameIdx[c.src.Name(i)] = i
	}
	if len(unavailable) == 0 {
		jobs := make([]shardJob, 0, c.cfg.Shards)
		for s := 0; s < c.cfg.Shards; s++ {
			job := shardJob{shard: s, tasks: []shardTask{
				{indices: parts[s], path: shardJournalPath(dir, s), resume: true},
			}}
			if err := c.appendRecoveryTasks(&job, dir, markers, nil, nameIdx); err != nil {
				return nil, err
			}
			jobs = append(jobs, job)
		}
		return c.run(jobs, nil, nil)
	}

	survivorRing, err := c.ring.Without(unavailable)
	if err != nil {
		return nil, err
	}
	committed, err := journalCommittedHosts(dir)
	if err != nil {
		return nil, err
	}
	// The adoption pool: every host needing a (re)scan — lost shards'
	// full assignments plus every marker's unfinished hosts. A host can
	// reach the pool through several routes (unfinished when its owner
	// wedged, then again when its adopter wedged), so entries dedupe; a
	// pooled host already committed in some sealed journal folds from
	// there instead, and one uncommitted but owned by a survivor's
	// recovery journal is claimed back by that journal's resume task
	// (appendRecoveryTasks marks it covered). Assignment over the final
	// unavailable set is deterministic, and consistent-hash monotonicity
	// makes it agree with whatever per-wedge-event assignments the live
	// run already journaled.
	adopted := map[int][]int{}
	pooled := map[int]bool{}
	assign := func(i int) {
		if pooled[i] {
			return
		}
		pooled[i] = true
		name := c.src.Name(i)
		if committed[name] {
			return
		}
		a := survivorRing.Assign(name)
		adopted[a] = append(adopted[a], i)
	}
	for s := range lost {
		for _, i := range parts[s] {
			assign(i)
		}
	}
	for _, m := range markers {
		for _, name := range m.Unfinished {
			i, ok := nameIdx[name]
			if !ok {
				return nil, fmt.Errorf("fleetshard: wedge marker for shard %d names unknown host %q", m.Shard, name)
			}
			assign(i)
		}
	}

	jobs := make([]shardJob, 0, c.cfg.Shards)
	for s := 0; s < c.cfg.Shards; s++ {
		if lost[s] {
			continue
		}
		primary := shardTask{indices: parts[s], path: shardJournalPath(dir, s), resume: true}
		if _, wedged := markers[primary.path]; wedged {
			primary.replayOnly = true
		}
		job := shardJob{shard: s, tasks: []shardTask{primary}}
		if err := c.appendRecoveryTasks(&job, dir, markers, adopted[s], nameIdx); err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	return c.run(jobs, lostIDs, unavailable)
}

// journalCommittedHosts scans every journal under dir for terminal
// records and returns the committed host set — the hosts Resume must
// never hand to a fresh recovery task, whatever markers claim.
func journalCommittedHosts(dir string) (map[string]bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.gbj"))
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, p := range paths {
		recs, _, err := journal.Read(p)
		if err != nil {
			continue // husk or torn head: nothing committed in it
		}
		for _, rec := range recs {
			if rec.State.Terminal() {
				out[rec.Host] = true
			}
		}
	}
	return out, nil
}

// readWedgeMarkers loads every wedge marker under dir, keyed by the
// journal path it marks.
func readWedgeMarkers(dir string) (map[string]wedgeMarker, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.gbj.wedged"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]wedgeMarker, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("fleetshard: reading wedge marker %s: %w", filepath.Base(p), err)
		}
		var m wedgeMarker
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("fleetshard: wedge marker %s unparseable: %w", filepath.Base(p), err)
		}
		out[strings.TrimSuffix(p, ".wedged")] = m
	}
	return out, nil
}

// appendRecoveryTasks rebuilds a shard's recovery work at resume time:
// every existing recovery journal becomes its own task (host set read
// from the journal header — the set the live run assigned it), and
// adopted hosts not yet covered by one get a fresh recovery journal.
// A headerless husk (the shard died before its recovery journal's
// header committed) is reused for the fresh task, or removed: nothing
// in it is trusted or replayable, and leaving it would trip
// VerifyJournals after the sweep completes.
func (c *Coordinator) appendRecoveryTasks(job *shardJob, dir string, markers map[string]wedgeMarker, adoptedIdx []int, nameIdx map[string]int) error {
	paths, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d.recover*.gbj", job.shard)))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	covered := map[string]bool{}
	var husks []string
	for _, p := range paths {
		names, readable := journalHeaderHosts(p)
		if !readable {
			husks = append(husks, p)
			continue
		}
		var indices []int
		for _, name := range names {
			i, ok := nameIdx[name]
			if !ok {
				return fmt.Errorf("fleetshard: recovery journal %s names unknown host %q", filepath.Base(p), name)
			}
			indices = append(indices, i)
			covered[name] = true
		}
		t := shardTask{indices: indices, path: p, resume: true}
		if _, wedged := markers[p]; wedged {
			t.replayOnly = true
		}
		job.tasks = append(job.tasks, t)
		job.adopted += len(indices)
	}
	var fresh []int
	for _, i := range adoptedIdx {
		if !covered[c.src.Name(i)] {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) > 0 {
		path := ""
		if len(husks) > 0 {
			path, husks = husks[0], husks[1:]
		} else {
			for n := 0; ; n++ {
				p := failoverJournalPath(dir, job.shard, n)
				if _, err := os.Stat(p); err != nil {
					path = p
					break
				}
			}
		}
		job.tasks = append(job.tasks, shardTask{indices: fresh, path: path})
		job.adopted += len(fresh)
	}
	for _, husk := range husks {
		if err := os.Remove(husk); err != nil {
			return fmt.Errorf("fleetshard: removing headerless recovery journal: %w", err)
		}
	}
	return nil
}

// journalHeaderHosts reads a journal's header host list; readable is
// false for husks that never committed a header.
func journalHeaderHosts(path string) (names []string, readable bool) {
	recs, _, err := journal.Read(path)
	if err != nil || len(recs) == 0 || recs[0].State != journal.StateSweep {
		return nil, false
	}
	return recs[0].Hosts, true
}

// liveJob is a shardJob in flight: its report row, the hosts it has
// committed terminal results for (fed by the manager sink), and the
// failover generation it belongs to. Rows are pointers so failover can
// add rows while earlier ones are still being filled in.
type liveJob struct {
	job shardJob
	row *ShardResult
	seq int

	mu        sync.Mutex
	committed map[string]bool
}

func (lj *liveJob) commit(name string) {
	lj.mu.Lock()
	lj.committed[name] = true
	lj.mu.Unlock()
}

func (lj *liveJob) done(name string) bool {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	return lj.committed[name]
}

// jobQueue is the dynamic shard work queue: mid-sweep failover pushes
// adopter jobs while workers are draining it, so the queue is done only
// when it is empty AND nothing in flight could push more.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*liveJob
	active int
}

func newJobQueue(initial []*liveJob) *jobQueue {
	q := &jobQueue{items: initial}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// pop blocks until a job is available; false means drained.
func (q *jobQueue) pop() (*liveJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.items) > 0 {
			lj := q.items[0]
			q.items = q.items[1:]
			q.active++
			return lj, true
		}
		if q.active == 0 {
			return nil, false
		}
		q.cond.Wait()
	}
}

func (q *jobQueue) push(lj *liveJob) {
	q.mu.Lock()
	q.items = append(q.items, lj)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// finish retires one popped job. Call it after any failover pushes the
// job makes: active stays >0 across the handoff, so idle workers never
// see a momentary empty-and-inactive queue and drain early.
func (q *jobQueue) finish() {
	q.mu.Lock()
	q.active--
	q.mu.Unlock()
	q.cond.Broadcast()
}

// sweepState is the run-scoped mutable state shared by shard workers:
// the report rows, which shards are unavailable for adoption (lost at
// resume, wedged in flight), which journal paths are spoken for, and
// the failover generation counter. One mutex serializes all of it —
// every access is O(shards), far off the per-host hot path.
type sweepState struct {
	mu          sync.Mutex
	rows        []*ShardResult
	unavailable map[int]bool
	claimed     map[string]bool
	seq         int
}

// run executes the shard jobs with bounded shard parallelism, watchdog
// supervision with mid-sweep failover, shard retries, and streaming
// aggregation, then seals the merged report.
func (c *Coordinator) run(jobs []shardJob, lostIDs []int, unavailable map[int]bool) (*Report, error) {
	rep := &Report{Kind: fleet.SweepInside, Shards: c.cfg.Shards, Hosts: c.src.Len(), LostShards: lostIDs}
	gauge := &fleet.ResidentGauge{}

	workers := c.cfg.ShardParallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var sup *supervise.Supervisor
	if c.cfg.Watchdog.Enabled() {
		sup = supervise.New(c.cfg.Watchdog)
		sup.Start()
		defer sup.Stop()
	}

	st := &sweepState{unavailable: map[int]bool{}, claimed: map[string]bool{}}
	for s := range unavailable {
		st.unavailable[s] = true
	}
	initial := make([]*liveJob, 0, len(jobs))
	for _, job := range jobs {
		row := &ShardResult{Shard: job.shard, Hosts: job.hostCount(), Adopted: job.adopted}
		st.rows = append(st.rows, row)
		initial = append(initial, &liveJob{job: job, row: row, committed: map[string]bool{}})
		for _, t := range job.tasks {
			if t.path != "" {
				st.claimed[t.path] = true
			}
		}
	}
	queue := newJobQueue(initial)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lj, ok := queue.pop()
				if !ok {
					return
				}
				sum, attempts, retryNs, wedged, err := c.runShardWithRetry(lj, sup, gauge)
				var failoverErr error
				if wedged {
					failoverErr = c.failoverWedged(lj, sum, st, queue)
				}
				st.mu.Lock()
				lj.row.Summary = sum
				lj.row.Attempts = attempts
				lj.row.RetryNs = retryNs
				lj.row.Resumed = len(lj.job.tasks) > 0 && lj.job.tasks[0].resume
				lj.row.Wedged = wedged
				if err != nil {
					lj.row.Err = err.Error()
				} else if failoverErr != nil {
					lj.row.Err = failoverErr.Error()
				}
				st.mu.Unlock()
				queue.finish()
			}
		}()
	}
	wg.Wait()

	// Lost shards get explicit rows: their hosts are accounted inside
	// the adopters' summaries, so the row carries provenance only.
	for _, id := range lostIDs {
		st.rows = append(st.rows, &ShardResult{Shard: id, Lost: true})
	}
	// Stable: primary rows sort before a shard's failover rows, and
	// failover rows keep their enqueue order.
	sort.SliceStable(st.rows, func(i, j int) bool {
		if st.rows[i].Shard != st.rows[j].Shard {
			return st.rows[i].Shard < st.rows[j].Shard
		}
		return !st.rows[i].Failover && st.rows[j].Failover
	})
	rep.ShardResults = make([]ShardResult, len(st.rows))
	for i, row := range st.rows {
		rep.ShardResults[i] = *row
	}

	// Fold: aggregate every summary; summary-less shards contribute
	// their host counts to NotScanned, never silently vanish.
	for i := range rep.ShardResults {
		sr := &rep.ShardResults[i]
		if sr.Summary == nil {
			// A lost shard's hosts are accounted by their adopters; any
			// other summary-less shard leaves its hosts unscanned.
			if !sr.Lost {
				rep.NotScanned += sr.Hosts
			}
			continue
		}
		s := sr.Summary
		rep.Scanned += s.Scanned
		rep.Infected += s.Infected
		rep.HiddenTotal += s.HiddenTotal
		rep.Failed += s.Failed
		rep.DegradedHosts += s.DegradedHosts
		rep.QuarantinedHosts += s.Quarantined
		rep.Replayed += s.Replayed
		rep.NotScanned += s.NotScanned
		if s.Aborted && !rep.Aborted {
			rep.Aborted = true
			rep.AbortReason = fmt.Sprintf("shard %d: %s", sr.Shard, s.AbortReason)
		}
		rep.VirtualNs += s.VirtualNs
		if span := s.VirtualNs + sr.RetryNs; span > rep.MakespanNs {
			rep.MakespanNs = span
		}
	}
	rep.PeakResident = gauge.Peak()
	rep.Acc = mergedAcc(rep)
	rep.Seal()
	return rep, nil
}

// failoverWedged re-homes a wedged job's unfinished hosts onto the
// surviving shards while the sweep is still running. The wedged job's
// journals are already sealed at their last committed records (the
// collector loop that owns terminal appends has exited); this method
// writes the wedge markers first (crash consistency: a resume that
// finds no marker simply resumes the journal, which is still correct —
// the failover jobs have not run yet), then shrinks the wedged summary
// to exactly the hosts it committed, then enqueues one failover job per
// adopting shard. An error means nothing was adopted: the summary keeps
// its NotScanned accounting and the unfinished hosts stay loudly
// unscanned in the merged report.
func (c *Coordinator) failoverWedged(lj *liveJob, sum *fleet.SweepSummary, st *sweepState, queue *jobQueue) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.unavailable[lj.job.shard] = true

	var unfinished []int
	for _, t := range lj.job.tasks {
		for _, i := range t.indices {
			if !lj.done(c.src.Name(i)) {
				unfinished = append(unfinished, i)
			}
		}
	}
	if len(unfinished) == 0 {
		// The watchdog fired between the last commit and the seal; there
		// is nothing to move.
		return nil
	}
	ring, err := c.ring.Without(st.unavailable)
	if err != nil {
		return fmt.Errorf("fleetshard: shard %d wedged with no survivors to adopt %d hosts: %w",
			lj.job.shard, len(unfinished), err)
	}

	// Markers before failover jobs: the adopters must never run before
	// the disk records that these hosts left the wedged journals.
	if c.cfg.JournalDir != "" {
		names := make([]string, 0, len(unfinished))
		for _, i := range unfinished {
			names = append(names, c.src.Name(i))
		}
		for ti, t := range lj.job.tasks {
			if t.path == "" {
				continue
			}
			if _, statErr := os.Stat(t.path); statErr != nil {
				continue // task never started; its hosts ride the first marker
			}
			m := wedgeMarker{Shard: lj.job.shard}
			if ti == 0 {
				m.Unfinished = names // the job's full unfinished set
			}
			data, err := json.Marshal(m)
			if err != nil {
				return err
			}
			if err := os.WriteFile(wedgeMarkerPath(t.path), append(data, '\n'), 0o644); err != nil {
				return fmt.Errorf("fleetshard: writing wedge marker: %w", err)
			}
		}
	}

	adopted := map[int][]int{}
	for _, i := range unfinished {
		a := ring.Assign(c.src.Name(i))
		adopted[a] = append(adopted[a], i)
	}
	st.seq++
	shards := make([]int, 0, len(adopted))
	for s := range adopted {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	for _, s := range shards {
		idx := adopted[s]
		path := ""
		if dir := c.cfg.JournalDir; dir != "" {
			for n := 0; ; n++ {
				p := failoverJournalPath(dir, s, n)
				if st.claimed[p] {
					continue
				}
				if _, statErr := os.Stat(p); statErr == nil {
					st.claimed[p] = true
					continue
				}
				path = p
				st.claimed[p] = true
				break
			}
		}
		row := &ShardResult{Shard: s, Hosts: len(idx), Adopted: len(idx), Failover: true}
		st.rows = append(st.rows, row)
		queue.push(&liveJob{
			job:       shardJob{shard: s, tasks: []shardTask{{indices: idx, path: path}}, adopted: len(idx)},
			row:       row,
			seq:       st.seq,
			committed: map[string]bool{},
		})
	}
	// Shrink the wedged summary to the hosts it actually accounts: the
	// adopters account the rest, so the fold counts every host exactly
	// once and the merged digest matches the uninterrupted run's.
	sum.Hosts = sum.Scanned
	sum.NotScanned = 0
	sum.Seal()
	return nil
}

// runShardWithRetry runs one shard's tasks under the shard-level retry
// policy — the same supervise.RetryPolicy the per-host loop drives
// (doubling capped backoff, deterministic full jitter when
// Config.BackoffJitterSeed is set) — with journal-aware retries: a
// retried journaled task resumes the journal its failed attempt left
// behind instead of re-scanning committed hosts. A wedged attempt
// returns immediately, never retried: its unfinished work is failing
// over to other shards, and re-running it here would commit those
// hosts twice.
func (c *Coordinator) runShardWithRetry(lj *liveJob, sup *supervise.Supervisor, gauge *fleet.ResidentGauge) (sum *fleet.SweepSummary, attempts int, retryNs int64, wedged bool, err error) {
	job := lj.job
	policy := supervise.RetryPolicy{
		MaxRetries: c.cfg.ShardMaxRetries,
		Backoff:    c.cfg.ShardRetryBackoff,
		JitterSeed: c.cfg.BackoffJitterSeed,
	}
	rt := policy.Begin(uint64(job.shard), 0, 0)
	for {
		attempts = rt.Next()
		sum, wedged, err = c.runShardOnce(lj, attempts, sup, gauge)
		verdict, wait := rt.After(err == nil, err != nil)
		switch {
		case verdict == supervise.Stand && err != nil:
			return nil, attempts, retryNs, false, err
		case verdict == supervise.Stand:
			return sum, attempts, retryNs, wedged, nil
		}
		// Virtual wait: the coordinator has no machine clock; the backoff
		// is charged to the shard's retry accounting.
		retryNs += int64(wait)
		// A failed journaled attempt may have committed progress; resume
		// what it left rather than re-scanning it.
		for i := range job.tasks {
			if job.tasks[i].path != "" {
				if _, statErr := os.Stat(job.tasks[i].path); statErr == nil {
					job.tasks[i].resume = true
				}
			}
		}
	}
}

// runShardOnce executes one attempt of a shard's tasks and merges the
// per-task summaries into one sealed shard summary. With a supervisor,
// each task runs under a watch beaten by every committed host result;
// when the watch expires the task's context is cancelled, the task
// returns its partial (Interrupted) summary, and the remaining tasks are
// skipped — their hosts join the failover pool with the interrupted
// task's unfinished ones.
func (c *Coordinator) runShardOnce(lj *liveJob, attempt int, sup *supervise.Supervisor, gauge *fleet.ResidentGauge) (*fleet.SweepSummary, bool, error) {
	job := lj.job
	if c.cfg.ShardFault != nil {
		if err := c.cfg.ShardFault(job.shard, attempt); err != nil {
			return nil, false, fmt.Errorf("fleetshard: shard %d attempt %d: %w", job.shard, attempt, err)
		}
	}
	var combined *fleet.SweepSummary
	wedged := false
	for ti, t := range job.tasks {
		ctx, cancel := context.Background(), func() {}
		watchID := ""
		if sup != nil {
			ctx, cancel = context.WithCancel(ctx)
			watchID = fmt.Sprintf("shard-%03d#%d.%d.%d", job.shard, lj.seq, attempt, ti)
			sup.Watch(watchID, cancel)
		}
		mgr := c.newShardManager(t.indices, gauge)
		shard := job.shard
		plan := fleet.Plan{Kind: fleet.SweepInside, Workers: c.shardWorkers(), Journal: t.path, Sink: func(res fleet.HostResult) {
			lj.commit(res.Host)
			if sup != nil {
				sup.Beat(watchID)
			}
			if c.cfg.OnResult != nil {
				c.cfg.OnResult(shard, res)
			}
		}}
		switch {
		case t.replayOnly:
			plan.Mode = fleet.ModeReplay
		case t.resume:
			plan.Mode = fleet.ModeResume
		}
		sum, err := mgr.Run(ctx, plan)
		if plan.Mode == fleet.ModeResume && errors.Is(err, fleet.ErrEmptyJournal) {
			// The shard died before its journal header committed: nothing
			// in the file is trusted or replayable, and this coordinator
			// owns the shard's host assignment, so restart the task's sweep
			// from scratch (a fresh journal truncates the husk).
			plan.Mode = fleet.ModeFresh
			sum, err = mgr.Run(ctx, plan)
		}
		if sup != nil {
			sup.Done(watchID)
		}
		cancel()
		if err != nil {
			return nil, false, fmt.Errorf("fleetshard: shard %d: %w", job.shard, err)
		}
		if t.replayOnly {
			// The journal's unfinished hosts belong to the shards that
			// adopted them; this summary accounts only what it replayed.
			sum.Hosts = sum.Scanned
			sum.NotScanned = 0
		}
		if combined == nil {
			combined = sum
		} else {
			combined.Merge(sum)
		}
		if sum.Interrupted && !t.replayOnly {
			// Watchdog cancellation. Skip the remaining tasks: their hosts
			// are unfinished too and fail over with this task's.
			wedged = true
			break
		}
	}
	if combined == nil {
		combined = &fleet.SweepSummary{Kind: fleet.SweepInside}
	}
	combined.Seal()
	return combined, wedged, nil
}

func (c *Coordinator) shardWorkers() int {
	if c.cfg.ShardWorkers <= 0 {
		return 1
	}
	return c.cfg.ShardWorkers
}

// newShardManager builds the fleet.Manager for one task's host subset,
// forwarding the host-level knobs (including the hedge policy and the
// host retry policy with its jitter seed) and lazy-building every host.
func (c *Coordinator) newShardManager(indices []int, gauge *fleet.ResidentGauge) *fleet.Manager {
	mgr := fleet.NewManager()
	mgr.HostParallelism = c.cfg.HostParallelism
	mgr.HostDeadline = c.cfg.HostDeadline
	mgr.Retry = supervise.RetryPolicy{
		MaxRetries:       c.cfg.MaxRetries,
		Backoff:          c.cfg.RetryBackoff,
		BreakerThreshold: c.cfg.BreakerThreshold,
		JitterSeed:       c.cfg.BackoffJitterSeed,
	}
	mgr.AbortAfterFailureFraction = c.cfg.AbortAfterFailureFraction
	mgr.ConfigureDetector = c.cfg.ConfigureDetector
	mgr.ScanHost = c.cfg.ScanHost
	mgr.Resident = gauge
	mgr.Hedge = c.cfg.Hedge
	for _, i := range indices {
		i := i
		mgr.AddLazy(c.src.Name(i), func() (*machine.Machine, error) { return c.src.Build(i) })
	}
	return mgr
}

// writeManifest records the sweep topology at the start of a journaled
// sweep; readManifest validates it on resume.
func (c *Coordinator) writeManifest(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleetshard: journal dir: %w", err)
	}
	m := manifest{Version: 1, Kind: string(fleet.SweepInside), Shards: c.cfg.Shards, Hosts: c.src.Len()}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestName), append(data, '\n'), 0o644)
}

func (c *Coordinator) readManifest(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return fmt.Errorf("fleetshard: reading coordinator manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("fleetshard: coordinator manifest unparseable: %w", err)
	}
	if m.Shards != c.cfg.Shards {
		return fmt.Errorf("fleetshard: manifest records %d shards, resuming with %d — shard topology must match", m.Shards, c.cfg.Shards)
	}
	if m.Kind != string(fleet.SweepInside) {
		return fmt.Errorf("fleetshard: manifest records a %q sweep, resuming as %q", m.Kind, fleet.SweepInside)
	}
	if m.Hosts != c.src.Len() {
		return fmt.Errorf("fleetshard: manifest records %d hosts, source has %d", m.Hosts, c.src.Len())
	}
	return nil
}
