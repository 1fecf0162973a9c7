// Package daemon is the resident monitoring service (`ghostbusterd`):
// the long-running process the one-shot cross-view diff grows into.
// Stealth software is a continuous threat — evasive samples behave
// differently while a visible scan runs — so the daemon re-scans
// registered hosts *incrementally* (generation counters short-circuit
// quiet hosts to a couple of verify passes) and *unpredictably*
// (jittered per-profile intervals, randomized scan ordering), journals
// every sweep for crash resume, and streams results over a JSON/HTTP
// API while sweeps are still running.
//
// Architecture: the daemon owns a registry of hosts (each with a
// long-lived incremental-scan cache), an active scan-policy profile
// (internal/profile, lockable), and a priority scheduler. Each
// scheduler pass collects hosts whose substrate generations moved
// (delta priority) and hosts whose jittered re-scan interval elapsed
// (interval priority), then runs one journaled sweep over them through
// a short-lived fleet.Manager (or, above the shard threshold, a
// fleetshard.Coordinator) — the daemon adds no second scan engine, it
// gives the existing ones a place to live. Every sweep journal lands
// in StateDir/sweeps; on restart, journals without a completion marker
// are resumed with digest equality to the uninterrupted run.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/profile"
	"ghostbuster/internal/supervise"
)

// Config tunes a Daemon.
type Config struct {
	// StateDir holds everything durable: registered host specs, the
	// active profile, and one journal per sweep. Required.
	StateDir string
	// ProfileDir is the custom-profile store directory; empty serves
	// built-ins only.
	ProfileDir string
	// Profile names the initial active profile (default "standard").
	// When the state directory already holds a persisted active
	// profile, that profile wins and this acts as a switch request —
	// subject to the locked-profile rules.
	Profile string
	// LockProfile locks the active profile at startup. Locking is
	// one-way: no API call or override can undo it.
	LockProfile bool
	// Override adjusts the resolved profile at startup, through the
	// same locked-profile enforcement as every other override path.
	Override *profile.Override
	// Shards >= 2 routes sweeps through the fleetshard coordinator
	// (one journal dir per sweep) instead of a single fleet manager.
	// Sharded sweeps trade the long-lived warm caches for scale: shard
	// managers materialize hosts per sweep.
	Shards int
	// Poll is the scheduler cadence (wall clock). Zero disables the
	// background loop; sweeps then run only via Tick/SweepNow — the
	// deterministic mode tests use.
	Poll time.Duration
	// Seed drives the scheduler's jitter and scan-order shuffle. The
	// randomness is adversarial (evasive ghostware must not predict
	// scan times), but a fixed seed keeps tests reproducible.
	Seed int64
	// Watchdog, when enabled, arms heartbeat supervision on sharded
	// sweeps: a shard missing its progress beacons is cancelled and its
	// unfinished hosts re-homed onto surviving shards mid-sweep.
	Watchdog supervise.Policy
	// Hedge, when set, duplicates straggling scans in sharded sweeps.
	// WARNING: the daemon serves its *live* registered machines to the
	// shard coordinator, so a hedged duplicate scans the same resident
	// machine concurrently with the straggler. That is only sound for
	// fleets without evasive scan-watchers (concurrent scans can trip
	// watcher state and diverge digests). Leave nil unless the fleet is
	// known passive.
	Hedge *fleet.HedgePolicy
	// BackoffJitterSeed enables deterministic full jitter on retry
	// backoff: host retries in local and sharded sweeps, and shard
	// retries in sharded ones (0 keeps the legacy doubling schedule).
	BackoffJitterSeed int64
	// AdmitQueue bounds how many sweep-triggering API requests may wait
	// behind the in-flight sweep; requests past the bound are shed with
	// 429 + Retry-After instead of piling up behind the sweep mutex.
	// Only one sweep runs at a time, so the gate has a single slot.
	AdmitQueue int
	// RequestDeadline caps how long a sweep request may wait in the
	// admission queue before timing out (503). Zero waits as long as
	// the client does.
	RequestDeadline time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// HostSpec describes a registered host so it can be rebuilt
// deterministically after a daemon restart — the same construction
// contract the CLI fleet uses, so resumed sweeps hash identically.
type HostSpec struct {
	Name       string  `json:"name"`
	Seed       int64   `json:"seed,omitempty"`
	DiskUsedGB float64 `json:"diskUsedGB,omitempty"`
	// Infect installs the named ghostware after build (tests, demos,
	// and red-team drills).
	Infect string `json:"infect,omitempty"`
}

// BuildHost constructs the machine a spec describes. Deterministic:
// the same spec always yields a machine whose scans hash identically.
func BuildHost(spec HostSpec) (*machine.Machine, error) {
	p := machine.DefaultProfile()
	p.DiskUsedGB = spec.DiskUsedGB
	if p.DiskUsedGB <= 0 {
		p.DiskUsedGB = 1
	}
	p.Churn = nil
	if spec.Seed != 0 {
		p.Seed = spec.Seed
	}
	m, err := machine.New(p)
	if err != nil {
		return nil, err
	}
	for _, f := range []string{`C:\Private\diary.txt`, `C:\Shared\docs.txt`} {
		if err := m.DropFile(f, []byte("user data")); err != nil {
			return nil, err
		}
	}
	if spec.Infect != "" {
		e, ok := ghostware.Lookup(spec.Infect)
		if !ok {
			return nil, fmt.Errorf("daemon: unknown ghostware %q", spec.Infect)
		}
		g := e.New()
		if err := g.Install(m); err != nil {
			return nil, err
		}
		if e.Arm != nil {
			if err := e.Arm(m, g); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// host is one registered host's runtime state.
type host struct {
	spec HostSpec
	m    *machine.Machine
	// cache is the long-lived incremental-scan cache: it outlives the
	// per-sweep fleet managers (AddWithCache), so a quiet host's
	// re-scan costs generation checks, not reparses.
	cache *core.ScanCache
	// ephemeral hosts were registered with a live machine instead of a
	// spec; they cannot be rebuilt after a restart and are excluded
	// from the persisted registry.
	ephemeral bool

	// genKey is the substrate generation key observed immediately
	// before the host's last completed sweep; a different current key
	// means bytes moved and the host is delta-due. Read-before-scan:
	// a mutation racing the scan leaves the keys different, so the
	// next pass re-sweeps — a delta can be scanned twice, never lost.
	genKey string
	// lastSweep/nextDue drive the interval trigger (wall clock;
	// nextDue carries the ±10% jitter).
	nextDue   time.Time
	lastSweep time.Time
	last      *fleet.HostResult
}

// HostStatus is the API view of one registered host.
type HostStatus struct {
	Name          string    `json:"name"`
	Seed          int64     `json:"seed,omitempty"`
	Infect        string    `json:"infect,omitempty"`
	Ephemeral     bool      `json:"ephemeral,omitempty"`
	GenerationKey string    `json:"generationKey"`
	Dirty         bool      `json:"dirty"` // substrates moved since last sweep
	LastSweep     time.Time `json:"lastSweep,omitempty"`
	NextDue       time.Time `json:"nextDue,omitempty"`
	Infected      bool      `json:"infected,omitempty"`
	Hidden        int       `json:"hidden,omitempty"`
	Degraded      int       `json:"degraded,omitempty"`
	Quarantined   bool      `json:"quarantined,omitempty"`
	Error         string    `json:"error,omitempty"`
}

// SweepInfo is one sweep's row in the daemon's history.
type SweepInfo struct {
	ID      int      `json:"id"`
	Trigger string   `json:"trigger"` // delta | interval | manual | resume
	Profile string   `json:"profile"`
	Hosts   []string `json:"hosts"`
	// Digest is the sealed fleet-report digest; MergedDigest the
	// cross-shard seal (sharded sweeps only).
	Digest       string    `json:"digest,omitempty"`
	MergedDigest string    `json:"mergedDigest,omitempty"`
	Infected     []string  `json:"infected,omitempty"`
	Scanned      int       `json:"scanned"`
	Aborted      bool      `json:"aborted,omitempty"`
	Resumed      bool      `json:"resumed,omitempty"`
	Err          string    `json:"error,omitempty"`
	Journal      string    `json:"journal,omitempty"`
	Started      time.Time `json:"started"`
	Finished     time.Time `json:"finished"`
}

// Event is one entry on the daemon's result stream.
type Event struct {
	Type   string            `json:"type"` // "result" | "sweep"
	Sweep  int               `json:"sweep"`
	Result *fleet.HostResult `json:"result,omitempty"`
	Info   *SweepInfo        `json:"info,omitempty"`
}

// Metrics is the /v1/metrics snapshot.
type Metrics struct {
	Hosts            int            `json:"hosts"`
	Sweeps           int            `json:"sweeps"`
	SweepsByTrigger  map[string]int `json:"sweepsByTrigger,omitempty"`
	Results          int            `json:"results"`
	InfectedResults  int            `json:"infectedResults"`
	CacheHits        int            `json:"cacheHits"`
	CacheMisses      int            `json:"cacheMisses"`
	LockedRejections int            `json:"lockedRejections"`
	ProfileSwitches  int            `json:"profileSwitches"`
	DroppedEvents    int            `json:"droppedEvents"`
	// Admission-gate counters for sweep-triggering requests.
	SweepRequestsAdmitted int64   `json:"sweepRequestsAdmitted"`
	SweepRequestsShed     int64   `json:"sweepRequestsShed"`
	SweepRequestsTimedOut int64   `json:"sweepRequestsTimedOut"`
	Profile               string  `json:"profile"`
	ProfileLocked         bool    `json:"profileLocked"`
	UptimeSeconds         float64 `json:"uptimeSeconds"`
}

// Daemon is the resident monitoring service.
type Daemon struct {
	cfg   Config
	store *profile.Store
	// admit is the overload valve for sweep-triggering API requests:
	// one slot (sweeps are serialized anyway), a bounded wait queue,
	// and fast 429s past the bound.
	admit *supervise.Admission

	mu     sync.Mutex
	hosts  map[string]*host
	active profile.Profile
	sweeps []SweepInfo
	events []Event
	subs   map[chan Event]struct{}
	seq    int
	rng    *rand.Rand
	closed bool

	counts struct {
		results, infected, lockedRejections, profileSwitches, dropped int
		byTrigger                                                     map[string]int
	}

	// sweepMu serializes sweep execution: one sweep at a time touches
	// the shared per-host caches and the journal sequence.
	sweepMu sync.Mutex

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	started  time.Time
}

// hostNameRE is the host-name grammar: like profile names it can never
// smuggle a path separator or dot-dot into a journal filename.
var hostNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ErrDuplicateHost marks a Register call whose name is already
// enrolled. Callers re-registering a persisted fleet on restart treat
// it as success.
var ErrDuplicateHost = errors.New("daemon: host already registered")

const (
	activeProfileFile = "profile.json"
	hostsFile         = "hosts.json"
	sweepsDirName     = "sweeps"
	maxEvents         = 512
)

// New builds a daemon over its state directory: loads (or initializes)
// the active profile through the locked-profile rules, rebuilds the
// persisted host registry, and finds the next sweep sequence number.
// It does not start the scheduler or resume dangling journals — Start
// does, so callers can inspect state between the two.
func New(cfg Config) (*Daemon, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("daemon: Config.StateDir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, sweepsDirName), 0o755); err != nil {
		return nil, fmt.Errorf("daemon: state dir: %w", err)
	}
	d := &Daemon{
		cfg:     cfg,
		store:   profile.NewStore(cfg.ProfileDir),
		admit:   supervise.NewAdmission(1, cfg.AdmitQueue),
		hosts:   map[string]*host{},
		subs:    map[chan Event]struct{}{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stopc:   make(chan struct{}),
		started: time.Now(),
	}
	d.counts.byTrigger = map[string]int{}
	if err := d.initProfile(); err != nil {
		return nil, err
	}
	if err := d.loadHosts(); err != nil {
		return nil, err
	}
	if err := d.initSeq(); err != nil {
		return nil, err
	}
	return d, nil
}

// initProfile resolves the startup profile: persisted state wins, the
// config's profile name acts as a switch request against it, and the
// lock flag plus overrides go through the single enforcement path.
func (d *Daemon) initProfile() error {
	var active profile.Profile
	persisted, err := os.ReadFile(filepath.Join(d.cfg.StateDir, activeProfileFile))
	switch {
	case err == nil:
		// A corrupted persisted profile is a loud startup failure; the
		// daemon never silently reverts to a default posture.
		active, err = profile.Decode(persisted)
		if err != nil {
			return fmt.Errorf("daemon: persisted active profile: %w", err)
		}
		if d.cfg.Profile != "" && d.cfg.Profile != active.Name {
			next, rerr := d.store.Resolve(d.cfg.Profile)
			if rerr != nil {
				return rerr
			}
			active, rerr = profile.Switch(active, next)
			if rerr != nil {
				return rerr
			}
		}
	case os.IsNotExist(err):
		name := d.cfg.Profile
		if name == "" {
			name = "standard"
		}
		active, err = d.store.Resolve(name)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("daemon: reading active profile: %w", err)
	}
	if d.cfg.LockProfile {
		active.Locked = true
	}
	if d.cfg.Override != nil {
		active, err = active.Apply(*d.cfg.Override)
		if err != nil {
			return err
		}
	}
	d.active = active
	return d.persistProfile()
}

// persistProfile writes the active profile atomically. Callers hold no
// locks or d.mu; the write is serialized by whoever mutates d.active.
func (d *Daemon) persistProfile() error {
	path := filepath.Join(d.cfg.StateDir, activeProfileFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, profile.Encode(d.active), 0o644); err != nil {
		return fmt.Errorf("daemon: persisting profile: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("daemon: persisting profile: %w", err)
	}
	return nil
}

// loadHosts rebuilds the persisted host registry.
func (d *Daemon) loadHosts() error {
	data, err := os.ReadFile(filepath.Join(d.cfg.StateDir, hostsFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("daemon: reading host registry: %w", err)
	}
	var specs []HostSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return fmt.Errorf("daemon: host registry corrupt: %w", err)
	}
	for _, spec := range specs {
		if err := d.Register(spec); err != nil {
			return fmt.Errorf("daemon: rebuilding host %q: %w", spec.Name, err)
		}
	}
	return nil
}

// persistHosts writes the non-ephemeral host specs. Caller holds d.mu.
func (d *Daemon) persistHosts() error {
	specs := []HostSpec{}
	for _, name := range d.hostNamesLocked() {
		if h := d.hosts[name]; !h.ephemeral {
			specs = append(specs, h.spec)
		}
	}
	data, err := json.MarshalIndent(specs, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(d.cfg.StateDir, hostsFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("daemon: persisting host registry: %w", err)
	}
	return os.Rename(tmp, path)
}

// initSeq finds the next sweep sequence number from the journals
// already on disk, so a restarted daemon never reuses a journal path.
func (d *Daemon) initSeq() error {
	ids, err := d.journaledSweepIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if id >= d.seq {
			d.seq = id + 1
		}
	}
	return nil
}

// journaledSweepIDs lists the sweep ids that have a journal on disk
// (single-node .gbj files and sharded .shards dirs), ascending.
func (d *Daemon) journaledSweepIDs() ([]int, error) {
	entries, err := os.ReadDir(d.sweepDir())
	if err != nil {
		return nil, fmt.Errorf("daemon: listing sweeps: %w", err)
	}
	var ids []int
	for _, e := range entries {
		var id int
		if n, _ := fmt.Sscanf(e.Name(), "sweep-%06d.gbj", &id); n == 1 && strings.HasSuffix(e.Name(), ".gbj") {
			ids = append(ids, id)
		} else if n, _ := fmt.Sscanf(e.Name(), "sweep-%06d.shards", &id); n == 1 && strings.HasSuffix(e.Name(), ".shards") && e.IsDir() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

func (d *Daemon) sweepDir() string { return filepath.Join(d.cfg.StateDir, sweepsDirName) }

func (d *Daemon) journalPath(id int) string {
	return filepath.Join(d.sweepDir(), fmt.Sprintf("sweep-%06d.gbj", id))
}
func (d *Daemon) shardDir(id int) string {
	return filepath.Join(d.sweepDir(), fmt.Sprintf("sweep-%06d.shards", id))
}
func (d *Daemon) doneMarker(id int) string {
	return filepath.Join(d.sweepDir(), fmt.Sprintf("sweep-%06d.done", id))
}
func (d *Daemon) sidecarPath(id int) string {
	return filepath.Join(d.sweepDir(), fmt.Sprintf("sweep-%06d.hosts.json", id))
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// --- host registry --------------------------------------------------------

// Register enrolls a host built from a deterministic spec; it survives
// daemon restarts (the spec is persisted and the machine rebuilt).
// The new host is immediately due for its first sweep.
func (d *Daemon) Register(spec HostSpec) error {
	if !hostNameRE.MatchString(spec.Name) || strings.Contains(spec.Name, "..") {
		return fmt.Errorf("daemon: invalid host name %q", spec.Name)
	}
	m, err := BuildHost(spec)
	if err != nil {
		return err
	}
	return d.enroll(&host{spec: spec, m: m, cache: core.NewScanCache(m)})
}

// RegisterMachine enrolls a live machine directly. Ephemeral: it
// cannot be rebuilt after a restart, so it is excluded from the
// persisted registry (and resume of its sweeps fails loudly).
func (d *Daemon) RegisterMachine(name string, m *machine.Machine) error {
	if !hostNameRE.MatchString(name) || strings.Contains(name, "..") {
		return fmt.Errorf("daemon: invalid host name %q", name)
	}
	return d.enroll(&host{spec: HostSpec{Name: name}, m: m, cache: core.NewScanCache(m), ephemeral: true})
}

func (d *Daemon) enroll(h *host) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("daemon: shut down")
	}
	if _, dup := d.hosts[h.spec.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateHost, h.spec.Name)
	}
	d.hosts[h.spec.Name] = h
	if h.ephemeral {
		return nil
	}
	return d.persistHosts()
}

// Deregister removes a host. Its in-flight results (if a sweep is
// running) still commit; it is simply never scheduled again.
func (d *Daemon) Deregister(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.hosts[name]; !ok {
		return fmt.Errorf("daemon: unknown host %q", name)
	}
	delete(d.hosts, name)
	return d.persistHosts()
}

// hostNamesLocked returns the registered names sorted. Caller holds d.mu.
func (d *Daemon) hostNamesLocked() []string {
	names := make([]string, 0, len(d.hosts))
	for n := range d.hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Hosts returns the API view of every registered host, sorted by name.
func (d *Daemon) Hosts() []HostStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]HostStatus, 0, len(d.hosts))
	for _, name := range d.hostNamesLocked() {
		h := d.hosts[name]
		cur := core.GenerationKey(h.m)
		st := HostStatus{
			Name: name, Seed: h.spec.Seed, Infect: h.spec.Infect,
			Ephemeral: h.ephemeral, GenerationKey: cur,
			Dirty: cur != h.genKey, LastSweep: h.lastSweep, NextDue: h.nextDue,
		}
		if r := h.last; r != nil {
			st.Infected, st.Hidden, st.Degraded, st.Quarantined, st.Error =
				r.Infected, r.Hidden, r.Degraded, r.Quarantined, r.Err
		}
		out = append(out, st)
	}
	return out
}

// --- profile management ---------------------------------------------------

// ActiveProfile returns the current scan policy.
func (d *Daemon) ActiveProfile() profile.Profile {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.active
}

// SwitchProfile makes the named profile active, through the
// locked-profile transition rules (a lock follows the switch and
// refuses lower-ranked targets).
func (d *Daemon) SwitchProfile(name string) (profile.Profile, error) {
	next, err := d.store.Resolve(name)
	if err != nil {
		return profile.Profile{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switched, err := profile.Switch(d.active, next)
	if err != nil {
		d.counts.lockedRejections++
		return profile.Profile{}, err
	}
	d.active = switched
	d.counts.profileSwitches++
	if err := d.persistProfile(); err != nil {
		return profile.Profile{}, err
	}
	return switched, nil
}

// OverrideProfile applies a runtime override to the active profile —
// the single enforcement point rejects anything that would weaken a
// locked profile, and the rejection is counted and explicit.
func (d *Daemon) OverrideProfile(o profile.Override) (profile.Profile, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	next, err := d.active.Apply(o)
	if err != nil {
		d.counts.lockedRejections++
		return profile.Profile{}, err
	}
	d.active = next
	if err := d.persistProfile(); err != nil {
		return profile.Profile{}, err
	}
	return next, nil
}

// --- events and metrics ---------------------------------------------------

// Subscribe returns a channel of live sweep events and a cancel
// function. The channel is closed on cancel or daemon shutdown. Slow
// subscribers drop events (counted) rather than stall sweeps.
func (d *Daemon) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 64)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	d.subs[ch] = struct{}{}
	d.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			d.mu.Lock()
			if _, ok := d.subs[ch]; ok {
				delete(d.subs, ch)
				close(ch)
			}
			d.mu.Unlock()
		})
	}
	return ch, cancel
}

func (d *Daemon) broadcast(ev Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.events = append(d.events, ev)
	if len(d.events) > maxEvents {
		d.events = d.events[len(d.events)-maxEvents:]
	}
	if ev.Type == "result" && ev.Result != nil {
		d.counts.results++
		if ev.Result.Infected {
			d.counts.infected++
		}
	}
	for ch := range d.subs {
		select {
		case ch <- ev:
		default:
			d.counts.dropped++
		}
	}
}

// Events returns the retained event ring (most recent maxEvents).
func (d *Daemon) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Event(nil), d.events...)
}

// Sweeps returns the sweep history.
func (d *Daemon) Sweeps() []SweepInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]SweepInfo(nil), d.sweeps...)
}

// Snapshot returns the metrics snapshot.
func (d *Daemon) Snapshot() Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := Metrics{
		Hosts:            len(d.hosts),
		Sweeps:           len(d.sweeps),
		SweepsByTrigger:  map[string]int{},
		Results:          d.counts.results,
		InfectedResults:  d.counts.infected,
		LockedRejections: d.counts.lockedRejections,
		ProfileSwitches:  d.counts.profileSwitches,
		DroppedEvents:    d.counts.dropped,
		Profile:          d.active.Name,
		ProfileLocked:    d.active.Locked,
		UptimeSeconds:    time.Since(d.started).Seconds(),
	}
	for k, v := range d.counts.byTrigger {
		m.SweepsByTrigger[k] = v
	}
	for _, h := range d.hosts {
		s := h.cache.Stats()
		m.CacheHits += s.Hits
		m.CacheMisses += s.Misses
	}
	as := d.admit.Stats()
	m.SweepRequestsAdmitted, m.SweepRequestsShed, m.SweepRequestsTimedOut =
		as.Admitted, as.Shed, as.TimedOut
	return m
}

// Readiness is the /v1/readyz snapshot: Live while the process serves
// requests at all, Ready while the admission gate accepts new sweep
// work, Draining once shutdown has begun.
type Readiness struct {
	Live     bool `json:"live"`
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
}

// Readiness reports the daemon's admission state.
func (d *Daemon) Readiness() Readiness {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	return Readiness{
		Live:     !closed,
		Ready:    !closed && d.admit.Ready(),
		Draining: d.admit.Draining(),
	}
}

// --- lifecycle ------------------------------------------------------------

// Start resumes any sweep journals a previous process left dangling
// (kill -9 mid-sweep), then starts the scheduler loop if Poll > 0.
// The resumed sweeps' merged reports carry the same digests an
// uninterrupted run would have.
func (d *Daemon) Start() ([]SweepInfo, error) {
	resumed, err := d.resumeDangling()
	if err != nil {
		return resumed, err
	}
	if d.cfg.Poll > 0 {
		d.wg.Add(1)
		go d.loop()
	}
	return resumed, nil
}

// Shutdown drains gracefully: new sweep requests are refused (503 via
// the admission gate), the scheduler stops, the in-flight sweep (if
// any) completes and seals its journal, and every subscriber stream is
// closed. Idempotent.
func (d *Daemon) Shutdown() {
	d.admit.Drain()
	d.stopOnce.Do(func() { close(d.stopc) })
	d.wg.Wait()
	// Drain a manual (API-triggered) sweep still in flight.
	d.sweepMu.Lock()
	d.sweepMu.Unlock() //nolint:staticcheck // acquire-release is the drain
	d.mu.Lock()
	d.closed = true
	for ch := range d.subs {
		delete(d.subs, ch)
		close(ch)
	}
	d.mu.Unlock()
}
