// Command ghostbuster is the interactive face of the reproduction: it
// builds a simulated Windows machine, optionally infects it with any of
// the paper's ghostware corpus, and runs the inside-the-box GhostBuster
// scans, printing the cross-view diff report. With -fleet it sweeps a
// whole simulated fleet, optionally journaling every host state
// transition so an interrupted sweep can be resumed with -resume.
//
// Usage:
//
//	ghostbuster -list-ghostware
//	ghostbuster -infect "Hacker Defender 1.0" -scan all -advanced
//	ghostbuster -infect FU -scan procs            # shows the normal-mode miss
//	ghostbuster -infect FU -scan procs -advanced  # and the advanced-mode catch
//	ghostbuster -infect Vanquish -inject          # scan from inside every process
//	ghostbuster -infect Chameleon -scan all -advanced             # adaptive evasion: fixed order misses
//	ghostbuster -infect Chameleon -scan all -advanced -order-seed 2   # randomized order catches
//	ghostbuster -infect PhantomProc -profile paranoid             # memory-only: kmem pool carve
//	ghostbuster -infect BootViper -profile paranoid               # bootkit: boot-chain pair
//	ghostbuster -infect USBcat -profile standard                  # removable-device truth source
//	ghostbuster -fleet 8 -journal sweep.gbj -json # durable fleet sweep
//	ghostbuster -fleet 8 -journal sweep.gbj -resume
//	ghostbuster -fleet 64 -shards 4 -shard-journal-dir sweepdir  # fleet of fleets
//	ghostbuster -fleet 64 -shards 4 -shard-journal-dir sweepdir -resume
//	ghostbuster -fleet 64 -shards 4 -watchdog 2s  # wedged shards fail over mid-sweep
//	ghostbuster -fleet 64 -hedge 500ms            # stragglers get a duplicate scan
//	ghostbuster -list-profiles
//	ghostbuster -fleet 8 -profile paranoid -lock-profile          # scan-policy profile
//	ghostbuster -verify-report report.json        # check tamper evidence
//
// Exit codes (stable, for scripted callers):
//
//	0  clean — every scan completed, nothing hidden
//	1  findings — hidden resources detected
//	2  degraded but clean — no findings, but some scan units or hosts
//	   were lost (faults, deadlines, quarantine), so absence of findings
//	   is not proof of absence; OR a usage error — invalid flags or a
//	   locked-profile violation rejected before any scan started. The
//	   two cannot be confused: a usage error prints to stderr and emits
//	   no report, a degraded sweep emits a full report.
//	3  sweep aborted — the fleet error budget stopped the sweep early
//	4  runtime error
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/fleetshard"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/injection"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/profile"
	"ghostbuster/internal/supervise"
	"ghostbuster/internal/vtime"
	"ghostbuster/internal/workload"
)

// The exit-code contract. Documented in the package comment and README;
// scripted callers branch on these.
const (
	exitClean    = 0
	exitFindings = 1
	exitDegraded = 2
	exitAborted  = 3
	exitError    = 4
	// exitUsage shares 2 with exitDegraded deliberately: a usage error
	// is rejected before any scan starts, so there is never a report to
	// confuse it with (see the package comment's exit-code table).
	exitUsage = 2
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghostbuster:", err)
		if code == exitClean {
			code = exitError
		}
	}
	os.Exit(code)
}

// catalogOrdered lists every installable program: the paper's 12-sample
// corpus followed by the extension adversaries, all from the shared
// ghostware catalog.
func catalogOrdered() []ghostware.CatalogEntry {
	return append(ghostware.Catalog(), ghostware.Extensions()...)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("ghostbuster", flag.ContinueOnError)
	listGW := fs.Bool("list-ghostware", false, "list the installable ghostware corpus and exit")
	infect := fs.String("infect", "", "install the named ghostware before scanning (fleet mode: on the first host)")
	scan := fs.String("scan", "all", "what to scan: files|aseps|procs|mods|drivers|all")
	advanced := fs.Bool("advanced", false, "use the CID-table traversal for the process low-level scan (catches DKOM)")
	orderSeed := fs.Int64("order-seed", 0, "randomize scan-unit execution order with this seed (0 = the paper's fixed order); defeats scan-detecting adversaries")
	inject := fs.Bool("inject", false, "run the scans from inside every process (the §5 DLL-injection extension)")
	contain := fs.Bool("contain", false, "contain per-unit faults as degraded reports instead of failing the scan")
	jsonOut := fs.Bool("json", false, "emit reports as JSON instead of text")
	verbose := fs.Bool("v", false, "print every finding, not just the summary")
	fleetN := fs.Int("fleet", 0, "sweep a simulated fleet of this many hosts instead of one machine")
	workers := fs.Int("workers", 1, "fleet mode: concurrent host scans")
	journalPath := fs.String("journal", "", "fleet mode: journal every host state transition to this file")
	resume := fs.Bool("resume", false, "fleet mode: resume the interrupted sweep recorded in -journal")
	breaker := fs.Int("breaker", 0, "fleet mode: quarantine a host after this many consecutive failed attempts")
	abortFraction := fs.Float64("abort-fraction", 0, "fleet mode: abort the sweep when more than this fraction of hosts fail")
	maxRetries := fs.Int("max-retries", 0, "fleet mode: extra scan attempts per failed or degraded host")
	shards := fs.Int("shards", 0, "fleet mode: consistent-hash the hosts across this many sweeper shards (the fleet-of-fleets control plane)")
	shardJournalDir := fs.String("shard-journal-dir", "", "sharded fleet mode: directory holding one journal per shard plus the coordinator manifest; enables -resume after losing any subset of shards")
	watchdog := fs.Duration("watchdog", 0, "sharded fleet mode: declare a shard wedged after this much heartbeat silence and fail its unfinished hosts over to surviving shards mid-sweep (0 disables)")
	hedge := fs.Duration("hedge", 0, "fleet mode: launch a duplicate scan for any host still running this far past the fleet's observed latency; the first sealed result wins (0 disables)")
	verifyReport := fs.String("verify-report", "", "verify a saved fleet report's tamper-evidence chain and exit")
	profName := fs.String("profile", "", "scan-policy profile: quick|standard|paranoid|forensic or an imported name")
	profDir := fs.String("profile-dir", "", "directory of imported custom profiles (checksummed JSON)")
	lockProfile := fs.Bool("lock-profile", false, "lock the profile: overrides that would weaken it are rejected")
	listProfiles := fs.Bool("list-profiles", false, "list the resolvable scan-policy profiles and exit")
	if err := fs.Parse(args); err != nil {
		return exitUsage, err
	}

	// Flag-value validation: rejected before any scan starts, so the
	// caller gets a usage error, not a half-run sweep.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["shards"] && *shards < 1 {
		return exitUsage, fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	if explicit["workers"] && *workers < 1 {
		return exitUsage, fmt.Errorf("-workers must be >= 1, got %d", *workers)
	}
	if *abortFraction < 0 || *abortFraction > 1 {
		return exitUsage, fmt.Errorf("-abort-fraction must be within [0,1], got %v", *abortFraction)
	}
	if *watchdog < 0 {
		return exitUsage, fmt.Errorf("-watchdog must be >= 0, got %s", *watchdog)
	}
	if *watchdog > 0 && *shards < 2 {
		return exitUsage, fmt.Errorf("-watchdog requires -shards >= 2 (the watchdog supervises shard heartbeats)")
	}
	if *hedge < 0 {
		return exitUsage, fmt.Errorf("-hedge must be >= 0, got %s", *hedge)
	}

	if *listProfiles {
		ps, err := profile.NewStore(*profDir).List()
		if err != nil {
			return exitError, err
		}
		for _, p := range ps {
			lock := ""
			if p.Locked {
				lock = "  [locked]"
			}
			fmt.Printf("  %-12s rank %d  %s%s\n", p.Name, p.Rank, p.Description, lock)
		}
		return exitClean, nil
	}

	// Resolve the scan-policy profile and fold the explicit tuning flags
	// into it as overrides — the same profile.Apply path the daemon API
	// uses, so a locked profile rejects weakening identically here.
	var prof *profile.Profile
	if *profName != "" || *lockProfile {
		name := *profName
		if name == "" {
			name = "standard"
		}
		p, err := profile.NewStore(*profDir).Resolve(name)
		if err != nil {
			return exitUsage, err
		}
		if *lockProfile {
			p.Locked = true
		}
		var ov profile.Override
		if explicit["advanced"] {
			ov.Advanced = advanced
		}
		if explicit["contain"] {
			ov.Contain = contain
		}
		if explicit["workers"] {
			ov.Workers = workers
		}
		if explicit["max-retries"] {
			ov.MaxRetries = maxRetries
		}
		if explicit["breaker"] {
			ov.BreakerThreshold = breaker
		}
		if explicit["abort-fraction"] {
			ov.AbortAfterFailureFraction = abortFraction
		}
		p, err = p.Apply(ov)
		if err != nil {
			return exitUsage, err
		}
		prof = &p
	}

	if *listGW {
		for _, e := range catalogOrdered() {
			fmt.Printf("  %-24s %-28s hides: %s\n", e.Name, e.Class, hideSummary(e.New()))
		}
		return exitClean, nil
	}
	if *verifyReport != "" {
		return runVerifyReport(*verifyReport)
	}
	if *resume && *journalPath == "" && *shardJournalDir == "" {
		return exitError, fmt.Errorf("-resume requires -journal (or -shards with -shard-journal-dir)")
	}
	if *shards > 0 && *fleetN <= 0 {
		return exitError, fmt.Errorf("-shards requires -fleet")
	}
	if *fleetN > 0 {
		opts := fleetOptions{
			hosts: *fleetN, workers: *workers, infect: *infect,
			journal: *journalPath, resume: *resume,
			breaker: *breaker, abortFraction: *abortFraction, maxRetries: *maxRetries,
			jsonOut: *jsonOut,
			shards:  *shards, shardJournalDir: *shardJournalDir,
			watchdog: *watchdog, hedge: *hedge,
			prof: prof,
		}
		if *shards > 0 {
			return runShardedFleet(opts)
		}
		return runFleet(opts)
	}

	p := workload.SmallProfile()
	fmt.Printf("building machine %q (%s, %.0f GB used, %d MHz)...\n", p.Name, p.Kind, p.DiskUsedGB, p.CPUMHz)
	m, err := workload.NewPaperMachine(p)
	if err != nil {
		return exitError, err
	}
	// Content the commercial hiders protect, so every corpus entry works.
	for _, f := range []string{`C:\Private\diary.txt`, `C:\Shared\docs.txt`} {
		if err := m.DropFile(f, []byte("user data")); err != nil {
			return exitError, err
		}
	}

	if *infect != "" {
		if err := installGhostware(m, *infect); err != nil {
			return exitError, err
		}
	}

	if *inject {
		return runInjected(m, *verbose)
	}
	return runPlain(m, *scan, *advanced, *contain, *verbose, *jsonOut, *orderSeed, prof)
}

func installGhostware(m *machine.Machine, name string) error {
	e, ok := ghostware.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown ghostware %q (try -list-ghostware)", name)
	}
	g := e.New()
	fmt.Printf("installing %s (%s)...\n", g.Name(), g.Class())
	if err := g.Install(m); err != nil {
		return err
	}
	if e.Arm != nil {
		if err := e.Arm(m, g); err != nil {
			return err
		}
		fmt.Printf("armed %s (post-install step)\n", g.Name())
	}
	return nil
}

func runPlain(m *machine.Machine, scan string, advanced, contain, verbose, jsonOut bool, orderSeed int64, prof *profile.Profile) (int, error) {
	d := core.NewDetector(m)
	d.Advanced = advanced
	d.Contain = contain
	if prof != nil {
		// The explicit flags were already folded into the profile as
		// overrides (through the locked-profile check), so the profile
		// is the single source of truth for the detector.
		prof.ConfigureDetector(d)
	}
	// An explicit -order-seed wins over the profile's auto-drawn seed:
	// the operator is pinning a reproducible execution order.
	if orderSeed != 0 {
		d.OrderSeed = orderSeed
	}
	var reports []*core.Report
	runScan := func(name string, f func() (*core.Report, error)) error {
		r, err := f()
		if err != nil {
			return fmt.Errorf("%s scan: %w", name, err)
		}
		reports = append(reports, r)
		return nil
	}
	switch scan {
	case "files":
		if err := runScan("file", d.ScanFiles); err != nil {
			return exitError, err
		}
	case "aseps":
		if err := runScan("ASEP", d.ScanASEPs); err != nil {
			return exitError, err
		}
	case "procs":
		if err := runScan("process", d.ScanProcesses); err != nil {
			return exitError, err
		}
	case "mods":
		if err := runScan("module", d.ScanModules); err != nil {
			return exitError, err
		}
	case "drivers":
		if err := runScan("driver", d.ScanDrivers); err != nil {
			return exitError, err
		}
	case "all":
		all, err := d.ScanAll()
		if err != nil {
			return exitError, err
		}
		reports = all
		if err := runScan("driver", d.ScanDrivers); err != nil {
			return exitError, err
		}
	default:
		return exitError, fmt.Errorf("unknown scan kind %q", scan)
	}
	infected, degraded := false, false
	for _, r := range reports {
		if r.Infected() {
			infected = true
		}
		if r.Degraded() {
			degraded = true
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return exitError, err
		}
		return verdictCode(infected, degraded, false), nil
	}
	for _, r := range reports {
		fmt.Println(r.Summary())
		fmt.Printf("           scan time: %s\n", vtime.String(r.Elapsed))
		if r.MassHiding != nil {
			fmt.Println("           " + r.MassHiding.String())
		}
		if verbose || len(r.Hidden) <= 10 {
			for _, f := range r.Hidden {
				fmt.Printf("    HIDDEN %s  (%s)\n", strings.ReplaceAll(f.Display, "\x00", `\0`), f.Detail)
			}
		} else {
			fmt.Printf("    (%d hidden entries; rerun with -v to list)\n", len(r.Hidden))
		}
	}
	printVerdict(infected, degraded, false)
	return verdictCode(infected, degraded, false), nil
}

func runInjected(m *machine.Machine, verbose bool) (int, error) {
	fmt.Println("injecting GhostBuster DLL into every running process...")
	files, err := injection.ScanFilesEverywhere(m)
	if err != nil {
		return exitError, err
	}
	procs, err := injection.ScanProcsEverywhere(m)
	if err != nil {
		return exitError, err
	}
	union := append(append([]core.Finding(nil), files.Union...), procs.Union...)
	for _, pp := range append(files.PerProc, procs.PerProc...) {
		fmt.Printf("  via %-20s %d hidden\n", pp.Process, len(pp.Hidden))
		if verbose {
			for _, f := range pp.Hidden {
				fmt.Printf("      HIDDEN %s\n", f.Display)
			}
		}
	}
	if len(union) > 0 {
		fmt.Printf("\nVERDICT: INFECTED — %d hidden resources across all identities\n", len(union))
		return exitFindings, nil
	}
	fmt.Println("\nVERDICT: no hidden resources detected from any process identity")
	return exitClean, nil
}

type fleetOptions struct {
	hosts, workers, breaker, maxRetries int
	infect, journal                     string
	resume, jsonOut                     bool
	abortFraction                       float64
	shards                              int
	shardJournalDir                     string
	// watchdog is the heartbeat-silence budget before a shard is
	// declared wedged and failed over (sharded mode only); hedge is the
	// straggler floor past which a duplicate scan launches.
	watchdog, hedge time.Duration
	// prof, when set, is the resolved scan policy (flag overrides
	// already folded in); it configures the sweep end to end.
	prof *profile.Profile
}

// buildCLIFleet assembles the simulated fleet deterministically: host i
// is seeded with i+1, so -resume on a new process rebuilds the same
// hosts the crashed sweep journaled. Hosts enroll lazily (the same
// on-demand construction the sharded control plane uses), which also
// makes them hedge-capable: a straggler's duplicate scan gets its own
// clean rebuild instead of racing the original's machine.
func buildCLIFleet(opts fleetOptions) (*fleet.Manager, error) {
	mgr := fleet.NewManager()
	mgr.Retry.MaxRetries = opts.maxRetries
	mgr.Retry.BreakerThreshold = opts.breaker
	mgr.AbortAfterFailureFraction = opts.abortFraction
	if opts.hedge > 0 {
		mgr.Hedge = hedgePolicy(opts.hedge)
	}
	src := cliHostSource{n: opts.hosts, infect: opts.infect}
	for i := 0; i < opts.hosts; i++ {
		i := i
		mgr.AddLazy(src.Name(i), func() (*machine.Machine, error) { return src.Build(i) })
	}
	return mgr, nil
}

// hedgePolicy maps the -hedge floor onto the straggler policy: after a
// few observed completions, any scan running past max(floor, 2x the
// fleet's median latency) gets a duplicate; the first sealed result
// wins.
func hedgePolicy(floor time.Duration) *fleet.HedgePolicy {
	return &fleet.HedgePolicy{MinSamples: 3, Multiplier: 2, Floor: floor}
}

func runFleet(opts fleetOptions) (int, error) {
	mgr, err := buildCLIFleet(opts)
	if err != nil {
		return exitError, err
	}
	workers := opts.workers
	if opts.prof != nil {
		opts.prof.ConfigureManager(mgr)
		workers = opts.prof.Workers
	}
	// Every fleet run is sealed: the collector sink builds the report
	// whether or not the sweep is journaled.
	col := fleet.NewCollector(mgr)
	plan := fleet.Plan{Kind: fleet.SweepInside, Workers: workers, Journal: opts.journal, Sink: col.Add}
	switch {
	case opts.resume:
		plan.Mode = fleet.ModeResume
		fmt.Fprintf(os.Stderr, "resuming journaled sweep from %s...\n", opts.journal)
	case opts.journal != "":
		fmt.Fprintf(os.Stderr, "sweeping %d hosts (journal: %s)...\n", opts.hosts, opts.journal)
	default:
		fmt.Fprintf(os.Stderr, "sweeping %d hosts...\n", opts.hosts)
	}
	sum, err := mgr.Run(context.Background(), plan)
	if err != nil {
		return exitError, err
	}
	rep := col.Report(sum)

	infected := len(rep.Infected()) > 0
	if opts.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return exitError, err
		}
		return verdictCode(infected, rep.Degraded(), rep.Aborted), nil
	}
	for _, hr := range rep.Results {
		status := "clean"
		switch {
		case hr.Quarantined:
			status = "QUARANTINED"
		case hr.Err != "":
			status = "error: " + hr.Err
		case hr.Infected:
			status = fmt.Sprintf("INFECTED (%d hidden)", hr.Hidden)
		case hr.Degraded > 0:
			status = fmt.Sprintf("degraded (%d units lost)", hr.Degraded)
		}
		replayed := ""
		for _, h := range rep.Replayed {
			if h == hr.Host {
				replayed = "  [replayed from journal]"
			}
		}
		fmt.Printf("  %-10s %-28s %s%s\n", hr.Host, status, vtime.String(hr.Elapsed), replayed)
	}
	if rep.Aborted {
		fmt.Printf("\nSWEEP ABORTED: %s (unscanned: %s)\n", rep.AbortReason, strings.Join(rep.NotScanned, ", "))
	}
	if mgr.Hedge != nil {
		fmt.Printf("hedging: %d straggler scans duplicated, %d won (floor %s)\n", sum.Hedged, sum.HedgeWins, opts.hedge)
	}
	fmt.Printf("report digest: %s\n", rep.Digest)
	printVerdict(infected, rep.Degraded(), rep.Aborted)
	return verdictCode(infected, rep.Degraded(), rep.Aborted), nil
}

// cliHostSource builds CLI fleet hosts on demand for the sharded
// control plane: the same deterministic construction as buildCLIFleet
// (host i seeded with i+1), so a -resume after losing shards rebuilds
// hosts whose scans hash identically to the journaled ones.
type cliHostSource struct {
	n      int
	infect string
}

func (s cliHostSource) Len() int { return s.n }

func (s cliHostSource) Name(i int) string { return fmt.Sprintf("host-%03d", i) }

func (s cliHostSource) Build(i int) (*machine.Machine, error) {
	p := machine.DefaultProfile()
	p.DiskUsedGB = 1
	p.Churn = nil
	p.Seed = int64(i + 1)
	m, err := machine.New(p)
	if err != nil {
		return nil, err
	}
	for _, f := range []string{`C:\Private\diary.txt`, `C:\Shared\docs.txt`} {
		if err := m.DropFile(f, []byte("user data")); err != nil {
			return nil, err
		}
	}
	if i == 0 && s.infect != "" {
		e, ok := ghostware.Lookup(s.infect)
		if !ok {
			return nil, fmt.Errorf("unknown ghostware %q (try -list-ghostware)", s.infect)
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

// runShardedFleet sweeps the fleet through the fleet-of-fleets control
// plane: hosts consistent-hashed across -shards sweeper shards, results
// streamed and folded shard by shard, the merged report sealed with the
// cross-shard digest layer.
func runShardedFleet(opts fleetOptions) (int, error) {
	src := cliHostSource{n: opts.hosts, infect: opts.infect}
	cfg := fleetshard.Config{
		Shards:                    opts.shards,
		ShardWorkers:              opts.workers,
		JournalDir:                opts.shardJournalDir,
		MaxRetries:                opts.maxRetries,
		BreakerThreshold:          opts.breaker,
		AbortAfterFailureFraction: opts.abortFraction,
	}
	if opts.watchdog > 0 {
		// Three missed beacons on a one-third cadence: a shard gets the
		// full -watchdog window of silence before failover fires.
		cfg.Watchdog = supervise.Policy{Deadline: opts.watchdog / 3, Misses: 3}
	}
	if opts.hedge > 0 {
		cfg.Hedge = hedgePolicy(opts.hedge)
	}
	if p := opts.prof; p != nil {
		cfg.ShardWorkers = p.Workers
		cfg.HostParallelism = p.HostParallelism
		cfg.MaxRetries = p.MaxRetries
		cfg.RetryBackoff = p.RetryBackoff
		cfg.HostDeadline = p.Deadline
		cfg.BreakerThreshold = p.BreakerThreshold
		cfg.AbortAfterFailureFraction = p.AbortAfterFailureFraction
		cfg.ConfigureDetector = p.ConfigureDetector
	}
	coord, err := fleetshard.New(cfg, src)
	if err != nil {
		return exitError, err
	}
	var rep *fleetshard.Report
	if opts.resume {
		if opts.shardJournalDir == "" {
			return exitError, fmt.Errorf("-resume with -shards requires -shard-journal-dir")
		}
		fmt.Fprintf(os.Stderr, "resuming sharded sweep from %s...\n", opts.shardJournalDir)
		rep, err = coord.Resume()
	} else {
		fmt.Fprintf(os.Stderr, "sweeping %d hosts across %d shards...\n", opts.hosts, opts.shards)
		rep, err = coord.Sweep()
	}
	if err != nil {
		return exitError, err
	}

	infected := rep.Infected > 0
	if opts.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return exitError, err
		}
		return verdictCode(infected, rep.Degraded(), rep.Aborted), nil
	}
	for _, sr := range rep.ShardResults {
		status := "clean"
		switch {
		case sr.Lost:
			status = "LOST (hosts re-hashed to survivors)"
		case sr.Err != "":
			status = "error: " + sr.Err
		case sr.Summary != nil && sr.Summary.Infected > 0:
			status = fmt.Sprintf("INFECTED (%d hosts, %d hidden)", sr.Summary.Infected, sr.Summary.HiddenTotal)
		case sr.Summary != nil && sr.Summary.Failed+sr.Summary.DegradedHosts > 0:
			status = "degraded"
		}
		extra := ""
		if sr.Resumed {
			extra += "  [resumed]"
		}
		if sr.Adopted > 0 {
			extra += fmt.Sprintf("  [+%d adopted]", sr.Adopted)
		}
		scanned := 0
		if sr.Summary != nil {
			scanned = sr.Summary.Scanned
		}
		fmt.Printf("  shard %03d  %4d hosts  %4d scanned  %-36s%s\n", sr.Shard, sr.Hosts, scanned, status, extra)
	}
	if rep.Aborted {
		fmt.Printf("\nSWEEP ABORTED: %s (%d hosts unscanned)\n", rep.AbortReason, rep.NotScanned)
	}
	fmt.Printf("virtual makespan: %s (total scan cost %s, peak resident results %d)\n",
		vtime.String(time.Duration(rep.MakespanNs)), vtime.String(time.Duration(rep.VirtualNs)), rep.PeakResident)
	fmt.Printf("merged digest: %s\n", rep.MergedDigest)
	fmt.Printf("report digest: %s\n", rep.Digest)
	printVerdict(infected, rep.Degraded(), rep.Aborted)
	return verdictCode(infected, rep.Degraded(), rep.Aborted), nil
}

// runVerifyReport checks a saved fleet report's tamper-evidence chain:
// fleet digest, per-host result hashes, per-report digests.
func runVerifyReport(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return exitError, err
	}
	var rep fleet.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return exitError, fmt.Errorf("parsing %s: %w", path, err)
	}
	if err := rep.Verify(); err != nil {
		return exitError, fmt.Errorf("%s FAILS verification: %w", path, err)
	}
	fmt.Printf("%s verifies: %d hosts, digest %s\n", path, len(rep.Results), rep.Digest)
	return exitClean, nil
}

func verdictCode(infected, degraded, aborted bool) int {
	switch {
	case aborted:
		return exitAborted
	case infected:
		return exitFindings
	case degraded:
		return exitDegraded
	default:
		return exitClean
	}
}

func printVerdict(infected, degraded, aborted bool) {
	switch {
	case aborted && infected:
		fmt.Println("\nVERDICT: INFECTED (sweep aborted early — findings are a lower bound)")
	case aborted:
		fmt.Println("\nVERDICT: sweep aborted before completion — no verdict for unscanned hosts")
	case infected:
		fmt.Println("\nVERDICT: machine is INFECTED with resource-hiding software")
	case degraded:
		fmt.Println("\nVERDICT: no hidden resources detected, but the scan was degraded — absence of findings is not proof of absence")
	default:
		fmt.Println("\nVERDICT: no hidden resources detected")
	}
}

func hideSummary(g ghostware.Ghostware) string {
	var parts []string
	if n := len(g.HiddenFiles()); n > 0 {
		parts = append(parts, fmt.Sprintf("%d files", n))
	}
	if n := len(g.HiddenASEPs()); n > 0 {
		parts = append(parts, fmt.Sprintf("%d ASEP hooks", n))
	}
	if n := len(g.HiddenProcs()); n > 0 {
		parts = append(parts, fmt.Sprintf("%d processes", n))
	}
	if len(parts) == 0 {
		return "configured at runtime"
	}
	return strings.Join(parts, ", ")
}
