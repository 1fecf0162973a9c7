package ghostfuzz

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ghostbuster/internal/faultinject"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/fleetshard"
	"ghostbuster/internal/journal"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/supervise"
)

// The fleet level of the matrix: for each fleet seed, one generated
// fleet is swept once, uninterrupted, as the reference, and every
// selected fleet row — a different sweep topology, crash, or live
// supervision fault — must reproduce it: the same per-host verdicts and
// content hashes, the same fleet digest (and, for coordinator rows, the
// same topology-independent merged digest), with no committed host
// scanned twice, or else fail loudly where the row declares it must.

// fleetSeedBase offsets fleet host seeds away from single-case seeds so
// `-seed 1 -n 200` never builds a fleet host's machine.
const fleetSeedBase = 1 << 20

// Every fleet row sweeps the same fleet: three shards of four hosts, so
// a mid-sweep kill leaves committed, in-flight and unvisited hosts at
// once, and a wedged shard has committed work to seal as well as
// unfinished hosts to re-home.
const (
	fleetShards   = 3
	hostsPerShard = 4
	fleetHosts    = fleetShards * hostsPerShard
)

// fleetExpect is how a fleet row must end.
type fleetExpect uint8

const (
	// reproduces: the row's run equals the reference at every
	// verification layer.
	reproduces fleetExpect = iota
	// loud: the row resumes a damaged journal, which must surface —
	// the resume errors, a shard reports an error, or hosts stay
	// unscanned — never be absorbed silently.
	loud
	// wedged: a shard must have been declared wedged, and the healed
	// run reproduces the reference.
	wedged
	// hedged: a duplicate scan must have been launched, and the healed
	// run reproduces the reference.
	hedged
)

// fleetRow is one sweep topology of the fleet table.
type fleetRow struct {
	name string
	// shards is the coordinator's shard count; zero sweeps the fleet
	// with one fleet.Manager.
	shards int
	// lanes and workers size a manager row's hosts and pool (workers
	// zero means one, a single sweeper process).
	lanes, workers int
	// journal journals a fresh sweep under the row's own path.
	journal bool

	// from names the row whose journals this row wrecks as a crash would
	// and resumes on a freshly rebuilt fleet.
	from string
	// keep is how many records of the victim journal — the manager
	// journal, or the busiest surviving shard journal — survive the
	// kill; negative counts from the end.
	keep int
	// torn leaves a partial record after the kept ones.
	torn bool
	// flip rots a bit in the victim journal instead.
	flip bool
	// kill lists the shard journals the crash destroyed.
	kill []int
	// dropRecovery also loses the recovery journals a live failover
	// wrote: the resume must honor the wedge markers alone.
	dropRecovery bool

	// The last host (its shard commits progress beats first) is the
	// victim of the supervision faults: a one-shot disk:lag stall gate
	// on its first build, which blocks in wall-clock time with no
	// virtual charge — a dying spindle or a wedged fsync.
	// wedge stalls it until the sweep returns, with the watchdog armed.
	wedge bool
	// straggle stalls it this long, with straggler hedging armed.
	straggle time.Duration
	// jitter fails the first shard attempt transiently, retried under
	// deterministic full jitter.
	jitter bool

	expect fleetExpect
}

// referenceRow is the uninterrupted run every fleet row is judged
// against; its journal is what the manager crash rows wreck.
var referenceRow = fleetRow{name: "fleet/reference", journal: true}

// fleetRows is the fleet table, in run order: a row runs after any row
// it wrecks.
var fleetRows = []fleetRow{
	{name: "fleet/plain", lanes: 4, workers: 2},
	{name: "fleet/sharded", shards: fleetShards, journal: true},

	// Killed before any host ran: the resume re-runs the whole fleet.
	{name: "crash/kill@sched", from: "fleet/reference", keep: 1 + fleetHosts},
	// Killed mid-sweep: one host committed, one in flight, the rest
	// unvisited.
	{name: "crash/kill@mid", from: "fleet/reference", keep: 1 + fleetHosts + 3},
	// Killed after the last host started but before it committed.
	{name: "crash/kill@last", from: "fleet/reference", keep: -1},
	{name: "crash/torn", from: "fleet/reference", keep: 1 + fleetHosts + 3, torn: true},
	{name: "crash/flip", from: "fleet/reference", flip: true, expect: loud},

	{name: "shardcrash/lose-one", shards: fleetShards, from: "fleet/sharded", kill: []int{2}},
	{name: "shardcrash/lose-half", shards: fleetShards, from: "fleet/sharded", kill: []int{0}},
	{name: "shardcrash/lose-all", shards: fleetShards, from: "fleet/sharded", kill: []int{0, 1, 2}},
	{name: "shardcrash/lose-one+torn", shards: fleetShards, from: "fleet/sharded", kill: []int{2}, keep: -1, torn: true},
	{name: "shardcrash/flip-survivor", shards: fleetShards, from: "fleet/sharded", flip: true, expect: loud},

	{name: "supervise/wedge-live", shards: fleetShards, journal: true, wedge: true, expect: wedged},
	{name: "supervise/wedge-resume", shards: fleetShards, from: "supervise/wedge-live", dropRecovery: true},
	{name: "supervise/wedge-unjournaled", shards: fleetShards, wedge: true, expect: wedged},
	{name: "supervise/hedge", shards: fleetShards, straggle: 400 * time.Millisecond, expect: hedged},
	{name: "supervise/jitter-retry", shards: fleetShards, jitter: true},
}

// fleetSource builds a fleet seed's hosts on demand, deterministically,
// so every rebuilt host hashes like the reference's. With stall set,
// the victim's first build — and only the first: a failover or hedge
// rebuild must come up clean — arms the stall gate.
type fleetSource struct {
	seed  int64
	stall func()
	armed *atomic.Bool
}

func (s fleetSource) Len() int { return fleetHosts }

func (s fleetSource) Name(i int) string { return fmt.Sprintf("fuzz-%03d", i) }

func (s fleetSource) spec(i int) CaseSpec { return Generate(CaseSeed(s.seed, fleetSeedBase+i)) }

func (s fleetSource) Build(i int) (*machine.Machine, error) {
	c, err := Build(s.spec(i))
	if err != nil {
		return nil, err
	}
	if s.stall != nil && i == fleetHosts-1 && s.armed.CompareAndSwap(false, true) {
		inj, err := faultinject.New(c.M, faultinject.Plan{Seed: s.seed, Faults: []faultinject.Fault{
			{Source: faultinject.SourceDisk, Kind: faultinject.KindLag, After: 1, Count: 1},
		}})
		if err != nil {
			return nil, err
		}
		inj.SetStall(func(faultinject.Source) { s.stall() })
		inj.Arm()
	}
	return c.M, nil
}

// manager enrolls the source's hosts lazily in a fresh fleet.Manager.
func (s fleetSource) manager() *fleet.Manager {
	mgr := fleet.NewManager()
	for i := 0; i < s.Len(); i++ {
		mgr.AddLazy(s.Name(i), func() (*machine.Machine, error) { return s.Build(i) })
	}
	return mgr
}

// fleetRun is one fleet seed's pass over the fleet table.
type fleetRun struct {
	seed int64
	dir  string
	b    *Breaker
	// planted is the ledger: each host's hidden-finding count, from its
	// generator's ground truth.
	planted map[string]int
	// paths maps a journaled row to its journal (a file for a manager
	// row, a directory for a coordinator row).
	paths     map[string]string
	ref       *fleet.Report
	refMerged string
	// watchdog is the wedge rows' policy, sized from the reference sweep.
	watchdog supervise.Policy
}

// watchdogFloor is the shortest beacon interval the wedge rows arm.
// Healthy host scans take milliseconds of wall time on an idle machine;
// under a loaded -race run one host can take longer than the whole
// floor window, so the interval also scales with the reference sweep.
const watchdogFloor = 150 * time.Millisecond

// judgeFleet sweeps one fleet seed through every selected fleet row.
// The only I/O is journals under a private temp directory, removed
// before return; the violations are deterministic.
func judgeFleet(seed int64, sel *regexp.Regexp, b *Breaker, ran map[string]int) ([]Violation, error) {
	dir, err := os.MkdirTemp("", "ghostfuzz-fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fr := &fleetRun{seed: seed, dir: dir, b: b, planted: map[string]int{}, paths: map[string]string{}}
	src := fleetSource{seed: seed}
	for i := 0; i < fleetHosts; i++ {
		fr.planted[src.Name(i)] = expectationFor(composite(src.spec(i))).HiddenTotal()
	}

	o, err := fr.sweep(referenceRow)
	if err = errors.Join(err, o.err); err != nil {
		return nil, fmt.Errorf("ghostfuzz: reference sweep: %w", err)
	}
	mode := referenceRow.name
	if err := errors.Join(o.rep.Verify(), o.audit); err != nil {
		return []Violation{{InvDurability, mode, err.Error()}}, nil
	}
	fr.ref, fr.refMerged = o.rep, mergedDigest(o.sum)
	// A beacon interval of twice the reference's slowest host commit
	// (the watch fires after two silent intervals) keeps a healthy but
	// loaded shard from being declared wedged: a spurious wedge of every
	// shard leaves no survivor to adopt the hosts.
	fr.watchdog = supervise.Policy{Deadline: max(watchdogFloor, 2*o.slowestCommit), Misses: 2}
	out := fr.ledger(mode, o.rep)
	// A selected row also runs the row it wrecks, which the table lists
	// earlier.
	run := map[string]bool{}
	for i := len(fleetRows) - 1; i >= 0; i-- {
		if row := fleetRows[i]; run[row.name] || sel.MatchString(row.name) {
			run[row.name], run[row.from] = true, true
		}
	}
	for _, row := range fleetRows {
		if !run[row.name] {
			continue
		}
		ran[row.name]++
		o, err := fr.sweep(row)
		if err != nil {
			return nil, err
		}
		out = append(out, fr.judge(row, o)...)
	}
	return out, nil
}

// outcome is what a fleet row's run reduces to for judging.
type outcome struct {
	// err: the sweep or resume failed outright.
	err error
	// rep seals every committed result in host order.
	rep *fleet.Report
	sum *fleet.SweepSummary // manager rows
	// shard is a coordinator row's fleet-of-fleets report.
	shard *fleetshard.Report
	// audit is the row's own deep verification: the committed-once
	// journal audit, or the coordinator report (and its journals).
	audit error
	// slowestCommit is a manager row's longest wall-clock wait for a
	// host commit, from the sweep's start or the previous commit.
	slowestCommit time.Duration
}

// sweep lays out the row's journals — wrecking its source's first, for
// a crash row — and runs it. The error return covers harness I/O only.
func (fr *fleetRun) sweep(row fleetRow) (outcome, error) {
	path := filepath.Join(fr.dir, strings.ReplaceAll(row.name, "/", "-"))
	switch {
	case row.from != "":
		if err := fr.wreck(row, path); err != nil {
			return outcome{}, err
		}
	case !row.journal:
		path = ""
	}
	if path != "" {
		fr.paths[row.name] = path
	}
	if row.shards == 0 {
		return fr.sweepManager(row, path), nil
	}
	return fr.sweepShards(row, path), nil
}

func (fr *fleetRun) sweepManager(row fleetRow, path string) outcome {
	mgr := fleetSource{seed: fr.seed}.manager()
	mgr.HostParallelism = row.lanes
	mode := fleet.ModeFresh
	if row.from != "" {
		mode = fleet.ModeResume
	}
	col := fleet.NewCollector(mgr)
	var slowest time.Duration
	last := time.Now()
	sink := func(res fleet.HostResult) {
		now := time.Now()
		slowest, last = max(slowest, now.Sub(last)), now
		col.Add(res)
	}
	sum, err := mgr.Run(context.Background(), fleet.Plan{Workers: max(row.workers, 1), Journal: path, Mode: mode, Sink: sink})
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{rep: col.Report(sum), sum: sum, slowestCommit: slowest}
	if path != "" {
		o.audit = auditJournal(path, mgr.Hosts())
	}
	return o
}

func (fr *fleetRun) sweepShards(row fleetRow, dir string) outcome {
	src := fleetSource{seed: fr.seed}
	col := fleet.NewCollector(src.manager())
	var mu sync.Mutex
	cfg := fleetshard.Config{Shards: row.shards, JournalDir: dir, OnResult: func(_ int, res fleet.HostResult) {
		mu.Lock()
		defer mu.Unlock()
		col.Add(res)
	}}
	release := func() {}
	switch {
	case row.wedge:
		gate := make(chan struct{})
		src.stall, src.armed = func() { <-gate }, &atomic.Bool{}
		release = func() { close(gate) } // free the stuck scan; its result is discarded
		cfg.Watchdog = fr.watchdog
	case row.straggle > 0:
		src.stall, src.armed = func() { time.Sleep(row.straggle) }, &atomic.Bool{}
		cfg.Hedge = &fleet.HedgePolicy{MinSamples: 1, Multiplier: 1, Floor: 30 * time.Millisecond}
	case row.jitter:
		var fired atomic.Bool
		cfg.BackoffJitterSeed = fr.seed | 1
		cfg.ShardMaxRetries = 2
		cfg.ShardFault = func(shard, attempt int) error {
			if attempt == 1 && fired.CompareAndSwap(false, true) {
				return fmt.Errorf("injected transient shard fault")
			}
			return nil
		}
	}
	coord, err := fleetshard.New(cfg, src)
	if err != nil {
		return outcome{err: err}
	}
	var rep *fleetshard.Report
	if row.from != "" {
		rep, err = coord.Resume()
	} else {
		rep, err = coord.Sweep()
	}
	release()
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{shard: rep, audit: rep.Verify()}
	o.rep = col.Report(&fleet.SweepSummary{Kind: rep.Kind, Aborted: rep.Aborted, AbortReason: rep.AbortReason})
	if dir != "" {
		o.audit = rep.VerifyJournals(dir)
	}
	return o
}

// wreck lays out under path what a crash of row.from's run left behind,
// then damages the victim journal: the manager journal itself, or the
// busiest surviving shard journal.
func (fr *fleetRun) wreck(row fleetRow, path string) error {
	from, victim := fr.paths[row.from], path
	if row.shards == 0 {
		if err := copyFile(from, path); err != nil {
			return err
		}
	} else {
		killed := map[string]bool{}
		for _, k := range row.kill {
			killed[shardJournalName(k)] = true
		}
		entries, err := os.ReadDir(from)
		if err := errors.Join(err, os.MkdirAll(path, 0o755)); err != nil {
			return err
		}
		for _, e := range entries {
			recovery, _ := filepath.Match("*.recover*.gbj", e.Name()) // a constant, well-formed pattern
			if killed[e.Name()] || row.dropRecovery && recovery {
				continue
			}
			if err := copyFile(filepath.Join(from, e.Name()), filepath.Join(path, e.Name())); err != nil {
				return err
			}
		}
		if row.keep == 0 && !row.flip {
			return nil
		}
		if victim, err = busiestJournal(path, row.shards, killed); err != nil {
			return err
		}
	}
	if row.flip {
		return journal.Corrupt(victim, faultinject.KindFlip, fr.seed)
	}
	keep := row.keep
	if keep < 0 {
		recs, _, err := journal.Read(victim)
		if err != nil {
			return err
		}
		keep += len(recs)
	}
	_, err := journal.TruncateRecords(victim, keep, row.torn)
	return err
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, data, 0o644)
}

// judge is the fleet judge: the row's outcome against the reference.
func (fr *fleetRun) judge(row fleetRow, o outcome) []Violation {
	var out []Violation
	fail := func(inv, format string, args ...any) {
		out = append(out, Violation{inv, row.name, fmt.Sprintf(format, args...)})
	}
	if row.expect == loud {
		surfaced := o.err != nil
		if o.shard != nil {
			errs, _, _ := shardEvents(o.shard)
			surfaced = surfaced || errs > 0 || o.shard.NotScanned > 0
		}
		if !surfaced {
			fail(InvDurability, "damaged journal resumed without any reported damage")
		}
		return out
	}
	if o.err != nil {
		fail(InvDurability, "run failed: %v", o.err)
		return out
	}
	if err := errors.Join(o.rep.Verify(), o.audit); err != nil {
		fail(InvDurability, "verification: %v", err)
	}
	if o.rep.Digest != fr.ref.Digest {
		fail(InvDurability, "fleet digest %.12s != reference %.12s", o.rep.Digest, fr.ref.Digest)
	}
	if len(o.rep.Results) != len(fr.ref.Results) {
		fail(InvDurability, "%d results, reference has %d", len(o.rep.Results), len(fr.ref.Results))
	} else {
		for i, hr := range o.rep.Results {
			if want := fr.ref.Results[i]; hr.Host != want.Host || hr.Hash != want.Hash || hr.Infected != want.Infected {
				fail(InvConsistency, "host %s diverged: hash %.12s vs %.12s, infected %v vs %v",
					want.Host, hr.Hash, want.Hash, hr.Infected, want.Infected)
			}
		}
	}
	out = append(out, fr.ledger(row.name, o.rep)...)
	// A wreck that destroyed nothing would let every crash row pass
	// without testing recovery.
	if row.from != "" && len(o.rep.Replayed) == fleetHosts {
		fail(InvDurability, "the crash lost nothing: the resume replayed every host")
	}
	s := o.shard
	if s == nil {
		return out
	}
	if s.MergedDigest != fr.refMerged {
		fail(InvDurability, "merged digest %.12s != reference %.12s", s.MergedDigest, fr.refMerged)
	}
	lost := len(row.kill)
	if row.from != "" && lost < row.shards && s.Replayed == 0 {
		fail(InvDurability, "resume replayed nothing — committed work was re-scanned or lost")
	}
	if lost > 0 && lost < row.shards && len(s.LostShards) != lost {
		fail(InvDurability, "report names %d lost shards, crash destroyed %d", len(s.LostShards), lost)
	}
	_, wedges, hedges := shardEvents(s)
	if row.expect == wedged && wedges == 0 {
		fail(InvDurability, "victim shard stalled forever yet no shard was declared wedged")
	}
	if row.expect == hedged && hedges == 0 {
		fail(InvDurability, "victim straggled %v yet no hedge was launched", row.straggle)
	}
	return out
}

// ledger checks each host's verdict, in host order, against what its
// generator planted: the exact hidden-finding count, and infected iff
// anything was planted.
func (fr *fleetRun) ledger(mode string, rep *fleet.Report) []Violation {
	var out []Violation
	for _, hr := range rep.Results {
		want := fr.planted[hr.Host]
		hidden := 0
		for _, r := range fr.b.apply(mode, hr.Reports) {
			hidden += len(r.Hidden)
		}
		switch {
		case hr.Err != "":
			out = append(out, Violation{InvError, mode, fmt.Sprintf("host %s: %s", hr.Host, hr.Err)})
		case hidden != want:
			inv := InvCoverage
			if hidden > want {
				inv = InvInnocent
			}
			out = append(out, Violation{inv, mode, fmt.Sprintf("host %s: %d hidden findings, planted %d", hr.Host, hidden, want)})
		case want > 0 && !hr.Infected:
			out = append(out, Violation{InvCoverage, mode, fmt.Sprintf("host %s not reported infected (planted %d)", hr.Host, want)})
		}
	}
	return out
}

// mergedDigest seals an unsharded sweep the way a coordinator seals its
// merged report: the topology-independent digest every coordinator row
// must reproduce.
func mergedDigest(s *fleet.SweepSummary) string {
	r := fleetshard.Report{Kind: s.Kind, Hosts: s.Hosts, Scanned: s.Scanned, Infected: s.Infected,
		HiddenTotal: s.HiddenTotal, Failed: s.Failed, DegradedHosts: s.DegradedHosts,
		QuarantinedHosts: s.Quarantined, NotScanned: s.NotScanned, Aborted: s.Aborted, Acc: s.Acc}
	return r.ComputeMergedDigest()
}

// auditJournal proves a finished manager journal committed every host
// exactly once, with no attempt started after its terminal record —
// committed work is never re-scanned.
func auditJournal(path string, hosts []string) error {
	recs, dropped, err := journal.Read(path)
	if err != nil || dropped != 0 {
		return fmt.Errorf("final journal unreadable: %v (dropped %d)", err, dropped)
	}
	committed := map[string]bool{}
	for _, rec := range recs {
		switch {
		case rec.State == journal.StateRunning && committed[rec.Host]:
			return fmt.Errorf("host %s re-scanned after its terminal record (seq %d)", rec.Host, rec.Seq)
		case rec.State.Terminal() && committed[rec.Host]:
			return fmt.Errorf("host %s committed twice (seq %d)", rec.Host, rec.Seq)
		case rec.State.Terminal():
			committed[rec.Host] = true
		}
	}
	for _, h := range hosts {
		if !committed[h] {
			return fmt.Errorf("host %s has no terminal record", h)
		}
	}
	return nil
}

// shardJournalName mirrors the coordinator's journal naming so a crash
// row can destroy specific shards' journals.
func shardJournalName(shard int) string { return fmt.Sprintf("shard-%03d.gbj", shard) }

// busiestJournal returns the surviving shard journal with the most
// records — torn/flip damage must land on a journal that actually
// committed work, or the row degenerates (a host-poor shard's journal
// can be header-only).
func busiestJournal(dir string, shards int, killed map[string]bool) (string, error) {
	best, bestRecs := "", 0
	for s := 0; s < shards; s++ {
		name := shardJournalName(s)
		if killed[name] {
			continue
		}
		recs, _, err := journal.Read(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		if len(recs) > bestRecs {
			best, bestRecs = filepath.Join(dir, name), len(recs)
		}
	}
	if bestRecs < 3 {
		return "", fmt.Errorf("ghostfuzz: no surviving shard journal has committed records to damage")
	}
	return best, nil
}

// shardEvents tallies what the coordinator did along the way: shards
// that reported an error, shards declared wedged, hedges launched.
func shardEvents(rep *fleetshard.Report) (errs, wedges int, hedges int64) {
	for _, sr := range rep.ShardResults {
		if sr.Err != "" {
			errs++
		}
		if sr.Wedged {
			wedges++
		}
		if sr.Summary != nil {
			hedges += sr.Summary.Hedged
		}
	}
	return errs, wedges, hedges
}
