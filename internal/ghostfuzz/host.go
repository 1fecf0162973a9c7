package ghostfuzz

import (
	"fmt"
	"regexp"

	"ghostbuster/internal/core"
	"ghostbuster/internal/crashdump"
	"ghostbuster/internal/crosstime"
	"ghostbuster/internal/faultinject"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/winpe"
)

// class is a spec's shape: which adversary traits a host row must
// handle. Generated specs are clean or faulted; evasive ones enter only
// through the corpus.
type class uint8

const (
	clean class = 1 << iota
	faulted
	evasive
	faultedEvasive
)

func classOf(s CaseSpec) class {
	switch ev := hasEvasive(s.Atoms); {
	case len(s.Faults) > 0 && ev:
		return faultedEvasive
	case len(s.Faults) > 0:
		return faulted
	case ev:
		return evasive
	}
	return clean
}

// hostExpect is what a host row's reports must show.
type hostExpect uint8

const (
	// truth: exactly the planted artifacts, judged through the unit
	// table. The first row that scans a spec is its reference.
	truth hostExpect = iota
	// sameBytes: byte-equal to the reference row's reports — lanes must
	// not change a single byte.
	sameBytes
	// sameModuloElapsed: equal once virtual scan time is zeroed — a
	// cache legitimately makes a scan cheaper, never different.
	sameModuloElapsed
	// contained: the spec's fault plan is armed and contained. Under
	// fire the scan must not fail and may lose artifacts only in damaged
	// reports; once the plan is exhausted the still-armed layer, and
	// after disarming a fresh detector, must scan the full truth.
	contained
	// crossTime: a cross-time diff against the pre-infection checkpoint
	// names every evasive payload, whatever the hooks say at scan time.
	crossTime
)

// hostRow is one detector topology of the host table.
type hostRow struct {
	name string
	// on lists the spec classes the row applies to.
	on     class
	lanes  int
	cached bool
	// warmup runs ScanAll once before the judged scan (a warm cache).
	warmup bool
	// ordered draws the process pair before the file walk (evasiveSeed),
	// the order that beats a scan-watching adversary. Every fixed-order
	// row declares the evasive miss instead: its truth leaves the evasive
	// payload out, so reporting it trips innocence.
	ordered bool
	// outside, when set, is an outside-the-box scan judged as one unit.
	outside func(*machine.Machine) (*core.Report, error)
	unit    int
	expect  hostExpect
}

// hostRows is the host table, in run order. Rows of one spec share its
// machine unless they build their own (see judgeSpec); the WinPE rows
// reboot it (churn, ASEP refire), so they run after every other shared
// row.
var hostRows = []hostRow{
	{name: "inside-seq", on: clean},
	{name: "inside-par2", on: clean, lanes: 2, expect: sameBytes},
	{name: "inside-par8", on: clean, lanes: 8, expect: sameBytes},
	{name: "inside-cached-cold", on: clean, cached: true, expect: sameModuloElapsed},
	{name: "inside-cached-warm", on: clean, cached: true, warmup: true, expect: sameModuloElapsed},
	{name: "crashdump-procs", on: clean, unit: unitProcs, outside: func(m *machine.Machine) (*core.Report, error) {
		return crashdump.OutsideProcessCheck(m, true)
	}},
	{name: "crashdump-mods", on: clean, unit: unitMods, outside: crashdump.OutsideModuleCheck},
	{name: "winpe-files", on: clean, unit: unitFiles, outside: func(m *machine.Machine) (*core.Report, error) {
		return winpe.OutsideFileCheck(m, core.DiffOptions{})
	}},
	{name: "winpe-aseps", on: clean, unit: unitASEPs, outside: func(m *machine.Machine) (*core.Report, error) {
		return winpe.OutsideASEPCheck(m, core.DiffOptions{})
	}},
	// Parallel lanes run the file walk and the process pair
	// concurrently, racing an evasive atom's scan watcher in host time,
	// so no lane row applies to an evasive spec.
	{name: "faulted-seq", on: faulted | faultedEvasive, expect: contained},
	{name: "faulted-par2", on: faulted, lanes: 2, expect: contained},
	{name: "faulted-par8", on: faulted, lanes: 8, expect: contained},
	// The exhausted pass reuses this row's now-warm cache, proving a
	// fired fault never poisons it.
	{name: "faulted-cached", on: faulted | faultedEvasive, cached: true, expect: contained},
	{name: "evasive-naive", on: evasive},
	{name: "evasive-crosstime", on: evasive, expect: crossTime},
	{name: "evasive-ordered", on: evasive, ordered: true},
}

// allUnits enables every next-gen scan unit: host rows always judge the
// full seven-report sweep.
const allUnits = core.UnitCrossMem | core.UnitBootChain | core.UnitRemovable

func (row hostRow) detector(m *machine.Machine) *core.Detector {
	d := core.NewDetector(m)
	if row.cached {
		d = core.NewCachedDetector(m)
	}
	d.Advanced = true
	d.Units = allUnits
	d.Parallelism = row.lanes
	d.Contain = row.expect == contained
	if row.ordered {
		d.OrderSeed = evasiveSeed(fullUnitCount)
	}
	return d
}

// judgeSpec runs every selected host row that applies to the spec, in
// table order, and returns all violations (nil means the spec passed).
// ran counts the rows run.
func judgeSpec(spec CaseSpec, sel *regexp.Regexp, b *Breaker, ran map[string]int) []Violation {
	var (
		out    []Violation
		shared *Case
		ref    hostRun
	)
	for _, row := range hostRows {
		if row.on&classOf(spec) == 0 || !sel.MatchString(row.name) {
			continue
		}
		ran[row.name]++
		// Contained and ordered rows build their own machine: fault side
		// effects (a dropped file, a warmed cache) must not leak across
		// rows, and the first build's evasion watcher stays tripped for
		// the whole evasion window.
		fresh := row.expect == contained || row.ordered
		c := shared
		if c == nil || fresh {
			var err error
			if c, err = Build(spec); err != nil {
				return append(out, Violation{InvError, row.name, "build: " + err.Error()})
			}
			if !fresh {
				shared = c
			}
		}
		out = append(out, row.run(c, &ref, b)...)
	}
	return out
}

// hostRun is a row's judged scan: the reference the sameBytes and
// sameModuloElapsed rows compare against.
type hostRun struct {
	row     string
	reports []*core.Report
}

func (row hostRow) run(c *Case, ref *hostRun, b *Breaker) []Violation {
	mode := row.name
	switch {
	case row.outside != nil:
		r, err := row.outside(c.M)
		if err != nil {
			return []Violation{{InvError, mode, err.Error()}}
		}
		return judgeUnit(c.Expect, mode, row.unit, b.apply(mode, []*core.Report{r})[0], false)
	case row.expect == crossTime:
		return crossTimeCheck(c, mode)
	case row.expect == contained:
		return row.runContained(c, b)
	}
	d := row.detector(c.M)
	if row.warmup {
		if _, err := d.ScanAll(); err != nil {
			return []Violation{{InvError, mode, "warmup: " + err.Error()}}
		}
	}
	reports, err := d.ScanAll()
	if err != nil {
		return []Violation{{InvError, mode, err.Error()}}
	}
	reports = b.apply(mode, reports)
	if row.expect != truth && ref.reports != nil {
		zero := row.expect == sameModuloElapsed
		want, got := canonicalJSON(ref.reports, zero), canonicalJSON(reports, zero)
		if got != want {
			return []Violation{{InvConsistency, mode,
				fmt.Sprintf("reports diverge from %s: %s", ref.row, firstDiff(want, got))}}
		}
		return nil
	}
	if ref.reports == nil {
		*ref = hostRun{mode, reports}
	}
	return judge(row.truth(c), mode, reports, false)
}

// truth is the expectation the row's full sweeps are judged against:
// the planted artifacts, with the evasive payload caught only by an
// order that beats its watcher.
func (row hostRow) truth(c *Case) Expectation {
	e := c.Expect
	if row.ordered {
		e.Procs = append(append([]string(nil), e.Procs...), e.Evasive...)
	}
	return e
}

// runContained arms the spec's fault plan on the row's fresh machine
// and judges three passes: under fire, exhausted, and disarmed.
func (row hostRow) runContained(c *Case, b *Breaker) []Violation {
	inj, err := faultinject.New(c.M, faultinject.Plan{Seed: c.Spec.Seed, Faults: c.Spec.Faults})
	if err != nil {
		return []Violation{{InvError, row.name, "plan: " + err.Error()}}
	}
	inj.Arm()
	pass := func(d *core.Detector, mode string, underFire bool) []Violation {
		reports, err := d.ScanAll()
		if err != nil {
			return []Violation{{InvError, mode, err.Error()}}
		}
		return judge(row.truth(c), mode, b.apply(mode, reports), underFire)
	}
	d := row.detector(c.M)
	out := pass(d, row.name, true)
	if inj.Exhausted() {
		out = append(out, pass(d, row.name+"/exhausted", false)...)
	}
	inj.Disarm()
	return append(out, pass(row.detector(c.M), row.name+"/disarmed", false)...)
}

// crossTimeCheck diffs the machine against the case's pre-infection
// checkpoint: every evasive payload image must appear.
func crossTimeCheck(c *Case, mode string) []Violation {
	if c.Baseline == nil {
		return []Violation{{InvError, mode, "no pre-infection baseline checkpoint"}}
	}
	after, err := crosstime.TakeCheckpoint(c.M)
	if err != nil {
		return []Violation{{InvError, mode, err.Error()}}
	}
	diff := crosstime.Compare(c.Baseline, after)
	var out []Violation
	for _, name := range c.Expect.Evasive {
		if len(diff.PathsMatching(name)) == 0 {
			out = append(out, Violation{InvCoverage, mode, "cross-time diff missed evasive payload: " + name})
		}
	}
	return out
}

// The evasive rows name units by their fixed sweep positions: unit 2i
// is pair i's high scan, and a full sweep with every next-gen unit
// enabled runs seven pairs.
const (
	unitFileHigh  = 0
	unitProcHigh  = 4
	fullUnitCount = 14
)

// evasiveSeed returns the smallest positive order seed whose
// permutation draws the process high scan before the file high walk —
// the order that beats a scan-detecting adversary. A pure function of
// the unit count, so every run picks the same seed.
func evasiveSeed(n int) int64 {
	for seed := int64(1); ; seed++ {
		procAt, fileAt := 0, 0
		for at, u := range core.ScanOrder(seed, n) {
			switch u {
			case unitProcHigh:
				procAt = at
			case unitFileHigh:
				fileAt = at
			}
		}
		if procAt < fileAt {
			return seed
		}
	}
}
