// The priority scheduler and sweep executor. Two triggers feed it:
//
//   - delta: a host whose substrate generation key moved since its last
//     completed sweep carries fresh bytes the last verdict never saw —
//     it goes to the front of the next sweep. The key is read *before*
//     the sweep scans the host, so a mutation racing the scan leaves
//     the keys unequal and the host re-triggers next pass: a delta can
//     be scanned twice, never lost.
//   - interval: every host re-scans on the active profile's cadence
//     even when quiet (cross-view diffs only catch what scans run into,
//     and a generation counter can't see a dormant sample that wrote
//     nothing). Intervals are jittered ±10% and the scan order within
//     each priority class is shuffled, so evasive ghostware cannot
//     learn the schedule and sleep through it.
//
// Every sweep is journaled under StateDir/sweeps with a sidecar pinning
// the exact host subset and the exact profile bytes in force; a `.done`
// marker seals completion. Resume rebuilds the manager from the sidecar
// (same hosts, same profile), so the merged report's digest equals the
// uninterrupted run's.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/fleetshard"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/profile"
)

// sweepMeta is the journal sidecar: everything Resume needs to rebuild
// the sweep exactly — the host subset (registry order is not enough,
// the sweep may cover a shuffled strict subset) and the profile bytes
// in force when the sweep started (the active profile may have been
// switched between crash and restart; resumed re-scans must use the
// original policy or the digests diverge).
type sweepMeta struct {
	ID      int             `json:"id"`
	Trigger string          `json:"trigger"`
	Hosts   []string        `json:"hosts"`
	Sharded bool            `json:"sharded,omitempty"`
	Shards  int             `json:"shards,omitempty"`
	Profile json.RawMessage `json:"profile"`
}

// loop is the background scheduler: each poll tick collects due hosts
// and sweeps them. It exits on Shutdown.
func (d *Daemon) loop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-d.stopc:
			return
		case now := <-t.C:
			if _, err := d.Tick(now); err != nil {
				d.logf("daemon: sweep failed: %v", err)
			}
		}
	}
}

// Tick runs one scheduler pass at the given instant: collects the due
// hosts (delta priority first, then interval, shuffled within each
// class) and sweeps them. Returns nil info when nothing is due — the
// quiet-fleet steady state, which costs only one generation-key read
// per host. Exported so tests drive the scheduler deterministically.
func (d *Daemon) Tick(now time.Time) (*SweepInfo, error) {
	due, trigger := d.collectDue(now)
	if len(due) == 0 {
		return nil, nil
	}
	return d.runSweep(due, trigger, now)
}

// SweepNow sweeps every registered host immediately (API trigger).
func (d *Daemon) SweepNow() (*SweepInfo, error) {
	d.mu.Lock()
	names := d.hostNamesLocked()
	d.mu.Unlock()
	if len(names) == 0 {
		return nil, fmt.Errorf("daemon: no hosts registered")
	}
	return d.runSweep(names, "manual", time.Now())
}

// collectDue partitions the fleet into delta-due and interval-due
// hosts, shuffles each class (unpredictable order within the priority),
// and returns delta hosts first. The sweep trigger is "delta" when any
// generation moved — that is the signal an operator pages on.
func (d *Daemon) collectDue(now time.Time) ([]string, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var delta, interval []string
	for _, name := range d.hostNamesLocked() {
		h := d.hosts[name]
		switch {
		case h.genKey == "":
			// Never swept: first scan establishes the baseline.
			delta = append(delta, name)
		case core.GenerationKey(h.m) != h.genKey:
			delta = append(delta, name)
		case !h.nextDue.IsZero() && !now.Before(h.nextDue):
			interval = append(interval, name)
		}
	}
	d.rng.Shuffle(len(delta), func(i, j int) { delta[i], delta[j] = delta[j], delta[i] })
	d.rng.Shuffle(len(interval), func(i, j int) { interval[i], interval[j] = interval[j], interval[i] })
	trigger := "interval"
	if len(delta) > 0 {
		trigger = "delta"
	}
	return append(delta, interval...), trigger
}

// runSweep executes one journaled sweep over the named hosts. One
// sweep runs at a time (the per-host caches and the journal sequence
// are shared); the sidecar is written before the first scan so a crash
// at any point leaves enough on disk to resume.
func (d *Daemon) runSweep(names []string, trigger string, now time.Time) (*SweepInfo, error) {
	d.sweepMu.Lock()
	defer d.sweepMu.Unlock()

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, fmt.Errorf("daemon: shut down")
	}
	id := d.seq
	d.seq++
	prof := d.active
	var hosts []dueHost
	for _, name := range names {
		h, ok := d.hosts[name]
		if !ok {
			continue // deregistered since collection
		}
		// Pre-scan baseline read: see the package comment's race rule.
		hosts = append(hosts, dueHost{name, h.m, h.cache, core.GenerationKey(h.m)})
	}
	d.mu.Unlock()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("daemon: sweep %d: no hosts left to scan", id)
	}

	sharded := d.cfg.Shards >= 2
	meta := sweepMeta{ID: id, Trigger: trigger, Sharded: sharded, Shards: d.cfg.Shards, Profile: profile.Encode(prof)}
	for _, h := range hosts {
		meta.Hosts = append(meta.Hosts, h.name)
	}
	if err := d.writeSidecar(meta); err != nil {
		return nil, err
	}

	info := &SweepInfo{ID: id, Trigger: trigger, Profile: prof.Name, Hosts: meta.Hosts, Started: now}
	var err error
	if sharded {
		err = d.sweepSharded(info, prof, hostSet(hosts), false)
	} else {
		err = d.sweepLocal(info, prof, hosts, false)
	}
	if err != nil {
		info.Err = err.Error()
		d.commitSweep(info, trigger, nil)
		return info, err
	}
	if err := d.markDone(id); err != nil {
		return info, err
	}

	// Advance host baselines to the pre-scan keys and schedule the next
	// jittered interval. A host whose scan errored keeps its old key so
	// the delta trigger fires again next pass.
	pre := map[string]string{}
	for _, h := range hosts {
		pre[h.name] = h.preKey
	}
	d.commitSweep(info, trigger, pre)
	return info, nil
}

// dueHost is one host snapshot a sweep scans: the live machine, its
// long-lived cache, and its pre-scan generation baseline.
type dueHost struct {
	name   string
	m      *machine.Machine
	cache  *core.ScanCache
	preKey string
}

// hostSet adapts the due slice to a fleetshard host source.
func hostSet(hosts []dueHost) memSource {
	var src memSource
	for _, h := range hosts {
		src.names = append(src.names, h.name)
		src.machines = append(src.machines, h.m)
	}
	return src
}

// memSource serves the daemon's live registered machines to the shard
// coordinator. Sharded sweeps rebuild per-shard managers each run, so
// they trade the daemon's long-lived warm caches for horizontal scale.
type memSource struct {
	names    []string
	machines []*machine.Machine
}

func (s memSource) Len() int                              { return len(s.names) }
func (s memSource) Name(i int) string                     { return s.names[i] }
func (s memSource) Build(i int) (*machine.Machine, error) { return s.machines[i], nil }

// shardConfig maps the scan-policy profile onto the fleet-of-fleets
// coordinator (the same knobs one tier up).
func (d *Daemon) shardConfig(id int, prof profile.Profile, info *SweepInfo) fleetshard.Config {
	sink := d.resultSink(id, info)
	return fleetshard.Config{
		Kind:                      fleet.SweepInside,
		Shards:                    d.cfg.Shards,
		ShardWorkers:              prof.Workers,
		JournalDir:                d.shardDir(id),
		HostParallelism:           prof.HostParallelism,
		MaxRetries:                prof.MaxRetries,
		RetryBackoff:              prof.RetryBackoff,
		HostDeadline:              prof.Deadline,
		BreakerThreshold:          prof.BreakerThreshold,
		AbortAfterFailureFraction: prof.AbortAfterFailureFraction,
		ConfigureDetector:         prof.ConfigureDetector,
		// Supervision knobs pass through verbatim; see the Config doc
		// comments (Hedge in particular duplicates scans of the same
		// resident machine).
		Watchdog:          d.cfg.Watchdog,
		Hedge:             d.cfg.Hedge,
		BackoffJitterSeed: d.cfg.BackoffJitterSeed,
		OnResult:          func(_ int, res fleet.HostResult) { sink(res) },
	}
}

// sweepLocal runs (or resumes) sweep info.ID on one fleet.Manager over
// the daemon's live machines and long-lived per-host caches, so a quiet
// host's re-scan charges only the cache's verify passes. Each committed
// result is journaled, then streamed to API subscribers, then kept for
// the sealed report. A resume whose journal committed nothing (crash
// before the header landed) restarts the sweep fresh under the same id.
func (d *Daemon) sweepLocal(info *SweepInfo, prof profile.Profile, hosts []dueHost, resume bool) error {
	mgr := fleet.NewManager()
	prof.ConfigureManager(mgr)
	for _, h := range hosts {
		mgr.AddWithCache(h.name, h.m, h.cache)
	}
	col := fleet.NewCollector(mgr)
	stream := d.resultSink(info.ID, info)
	plan := fleet.Plan{Kind: fleet.SweepInside, Workers: prof.Workers, Journal: d.journalPath(info.ID),
		Sink: func(res fleet.HostResult) {
			stream(res)
			col.Add(res)
		}}
	if resume {
		plan.Mode = fleet.ModeResume
	}
	sum, err := mgr.Run(context.Background(), plan)
	if resume && errors.Is(err, fleet.ErrEmptyJournal) {
		plan.Mode = fleet.ModeFresh // a fresh journal truncates the husk
		sum, err = mgr.Run(context.Background(), plan)
	}
	if err != nil {
		return err
	}
	rep := col.Report(sum)
	info.Digest, info.Infected, info.Scanned, info.Aborted = rep.Digest, rep.Infected(), len(rep.Results), rep.Aborted
	return nil
}

// sweepSharded runs (or resumes) sweep id through the coordinator.
func (d *Daemon) sweepSharded(info *SweepInfo, prof profile.Profile, src memSource, resume bool) error {
	c, err := fleetshard.New(d.shardConfig(info.ID, prof, info), src)
	if err != nil {
		return err
	}
	var rep *fleetshard.Report
	if resume {
		rep, err = c.Resume()
	} else {
		rep, err = c.Sweep()
	}
	if rep != nil {
		info.Digest, info.MergedDigest = rep.Digest, rep.MergedDigest
		info.Scanned, info.Aborted = rep.Scanned, rep.Aborted
		info.Resumed = info.Resumed || rep.Replayed > 0
	}
	return err
}

// resultSink returns the result sink for sweep id: it broadcasts each
// committed result to API subscribers the moment it lands and records
// the per-host last verdict. Fleet serializes the calls.
func (d *Daemon) resultSink(id int, info *SweepInfo) func(fleet.HostResult) {
	return func(res fleet.HostResult) {
		r := res
		d.mu.Lock()
		if h, ok := d.hosts[r.Host]; ok {
			h.last = &r
		}
		if r.Infected {
			info.Infected = appendUnique(info.Infected, r.Host)
		}
		d.mu.Unlock()
		d.broadcast(Event{Type: "result", Sweep: id, Result: &r})
	}
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// commitSweep records the finished sweep, reschedules the swept hosts,
// and broadcasts the sweep event. pre maps host name to its pre-scan
// generation key; nil skips baseline advancement (failed sweep).
func (d *Daemon) commitSweep(info *SweepInfo, trigger string, pre map[string]string) {
	info.Finished = time.Now()
	if info.Journal == "" {
		if info.Sharded() {
			info.Journal = d.shardDir(info.ID)
		} else {
			info.Journal = d.journalPath(info.ID)
		}
	}
	d.mu.Lock()
	d.sweeps = append(d.sweeps, *info)
	d.counts.byTrigger[trigger]++
	now := info.Finished
	for name, key := range pre {
		h, ok := d.hosts[name]
		if !ok {
			continue
		}
		if h.last == nil || h.last.Err == "" {
			h.genKey = key
		}
		h.lastSweep = now
		h.nextDue = now.Add(d.jitterLocked(d.active.Interval))
	}
	d.mu.Unlock()
	cp := *info
	d.broadcast(Event{Type: "sweep", Sweep: info.ID, Info: &cp})
	d.logf("daemon: sweep %d (%s, profile %s): %d hosts, %d infected, digest %.12s",
		info.ID, trigger, info.Profile, len(info.Hosts), len(info.Infected), info.Digest)
}

// Sharded reports whether the sweep ran through the shard coordinator.
func (s *SweepInfo) Sharded() bool { return s.MergedDigest != "" }

// jitterLocked spreads an interval over [0.9, 1.1) of itself so scan
// times drift unpredictably. Caller holds d.mu (the rng is shared).
func (d *Daemon) jitterLocked(iv time.Duration) time.Duration {
	if iv <= 0 {
		return iv
	}
	return time.Duration(float64(iv) * (0.9 + 0.2*d.rng.Float64()))
}

// writeSidecar persists the sweep's resume metadata before any scan.
func (d *Daemon) writeSidecar(meta sweepMeta) error {
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(d.sidecarPath(meta.ID), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("daemon: sweep %d sidecar: %w", meta.ID, err)
	}
	return nil
}

// markDone seals a completed sweep's journal with a marker file; on
// restart, journals without one are the crash victims to resume.
func (d *Daemon) markDone(id int) error {
	if err := os.WriteFile(d.doneMarker(id), []byte("done\n"), 0o644); err != nil {
		return fmt.Errorf("daemon: sweep %d done marker: %w", id, err)
	}
	return nil
}

// resumeDangling finds sweep journals left without a completion marker
// by a crashed predecessor and resumes each: committed results replay
// hash-verified from the journal, in-flight hosts re-scan, and the
// merged report's digest equals the uninterrupted run's. An empty
// journal (crash before the first commit) restarts the sweep fresh.
// Resume failures are loud — a dangling journal that cannot be resumed
// (corrupt sidecar, host no longer registered) fails daemon startup
// rather than silently dropping a half-finished sweep.
func (d *Daemon) resumeDangling() ([]SweepInfo, error) {
	ids, err := d.journaledSweepIDs()
	if err != nil {
		return nil, err
	}
	var resumed []SweepInfo
	for _, id := range ids {
		if _, err := os.Stat(d.doneMarker(id)); err == nil {
			continue
		}
		info, err := d.resumeSweep(id)
		if err != nil {
			return resumed, fmt.Errorf("daemon: resuming sweep %d: %w", id, err)
		}
		resumed = append(resumed, *info)
	}
	return resumed, nil
}

// resumeSweep resumes one dangling journal from its sidecar.
func (d *Daemon) resumeSweep(id int) (*SweepInfo, error) {
	d.sweepMu.Lock()
	defer d.sweepMu.Unlock()

	data, err := os.ReadFile(d.sidecarPath(id))
	if err != nil {
		return nil, fmt.Errorf("reading sweep sidecar: %w", err)
	}
	var meta sweepMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("sweep sidecar corrupt: %w", err)
	}
	// The sidecar pins the profile in force when the sweep started; a
	// corrupted pin fails loudly like every other profile on disk.
	prof, err := profile.Decode(meta.Profile)
	if err != nil {
		return nil, fmt.Errorf("sweep sidecar profile: %w", err)
	}

	var hosts []dueHost
	d.mu.Lock()
	for _, name := range meta.Hosts {
		h, ok := d.hosts[name]
		if !ok {
			d.mu.Unlock()
			return nil, fmt.Errorf("journaled host %q is not registered (ephemeral hosts cannot be resumed)", name)
		}
		hosts = append(hosts, dueHost{name, h.m, h.cache, core.GenerationKey(h.m)})
	}
	d.mu.Unlock()

	info := &SweepInfo{ID: id, Trigger: "resume", Profile: prof.Name, Hosts: meta.Hosts, Resumed: true, Started: time.Now()}
	if meta.Sharded {
		err = d.sweepSharded(info, prof, hostSet(hosts), true)
	} else {
		err = d.sweepLocal(info, prof, hosts, true)
	}
	if err != nil {
		info.Err = err.Error()
		d.commitSweep(info, "resume", nil)
		return info, err
	}
	if err := d.markDone(id); err != nil {
		return info, err
	}
	pre := map[string]string{}
	for _, h := range hosts {
		pre[h.name] = h.preKey
	}
	d.commitSweep(info, "resume", pre)
	return info, nil
}
