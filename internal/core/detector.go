package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ghostbuster/internal/machine"
	"ghostbuster/internal/vtime"
	"ghostbuster/internal/winapi"
)

// Detector is the inside-the-box GhostBuster tool: it runs paired
// high/low scans for each resource type on one machine and diffs them.
type Detector struct {
	M *machine.Machine
	// Advanced selects the CID-table traversal for the process low scan
	// (needed against DKOM rootkits like FU; paper §4).
	Advanced bool
	// AsProcess overrides the identity the high-level scans run under
	// (default explorer.exe). The §5 DLL-injection extension runs the
	// same scans as every process in turn.
	AsProcess string
	// Diff tuning (noise filters apply to outside scans; inside scans
	// are expected to be clean).
	Opts DiffOptions
	// Cache, when set, memoizes the low-level (truth-side) parses across
	// repeated sweeps, keyed on the truth sources' mutation generations.
	// The high-level scans are never cached: they must re-traverse the
	// hookable API chain every sweep. Must be a cache built on M.
	Cache *ScanCache
	// Parallelism bounds how many scan units of one ScanAll sweep run
	// concurrently. A sweep has two units (the high and low scan) per
	// enabled pair: eight for the paper's four, up to fourteen with every
	// next-generation pair. Larger values are clamped to the sweep's unit
	// count. Zero or one runs the units inline on the machine clock.
	// Reports are byte-identical either way: units are statically
	// assigned to virtual-time lanes, so per-scan charges never depend on
	// goroutine interleaving.
	Parallelism int
	// Contain turns on per-scan-unit error containment: a unit that
	// fails (or panics) no longer aborts ScanAll; its resource pair's
	// report records the loss in DegradedUnits and carries whatever the
	// surviving views support. Fleet sweeps and chaos runs set this; the
	// default (off) preserves strict fail-fast semantics.
	Contain bool
	// Deadline, when positive, bounds one ScanAll sweep in virtual time.
	// Units not yet started when the budget is exhausted are abandoned:
	// degraded under Contain, an error otherwise.
	Deadline time.Duration
	// Cancel, when non-nil, is an external abort seam checked at every
	// unit boundary: once the channel closes, units not yet started are
	// abandoned (degraded under Contain, an error otherwise), exactly
	// like a spent Deadline but on a wall-clock trigger. A unit already
	// inside a wedged read is not interrupted — the watchdog layer
	// abandons the whole scan instead, the same way an OS cannot unstick
	// a D-state thread.
	Cancel <-chan struct{}
	// OnReport, when set, receives each report as soon as it is
	// assembled. Fleet sweeps use it to retain partial results when a
	// later unit panics or the host scan is cut short.
	OnReport func(*Report)
	// Units enables next-generation scan units beyond the paper's eight
	// (see nextgen.go). Their reports follow the paper's four, in
	// UnitCrossMem, UnitBootChain, UnitRemovable order.
	Units UnitSet
	// OrderSeed, when nonzero, permutes the EXECUTION order of the scan
	// units (Fisher-Yates keyed on the seed). Report order and content
	// are unchanged for honest machines — but adaptive ghostware that
	// watches for scan-shaped API traffic and unhides mid-sweep can only
	// win against a predictable order, so randomized sweeps deny it the
	// timing oracle. Zero keeps the paper's fixed order.
	OrderSeed int64

	// intern is the detector's string-interning table: every snapshot the
	// detector builds indexes it, so the two sides of each diff share
	// symbols and the merge-join engine applies. Lazily created; when
	// Cache is set the cache's table is used instead (cached snapshots
	// must outlive any one sweep's table).
	intern *InternTable
}

// NewDetector builds a detector with default settings on m: inside-the-
// box scans with only the baseline noise filters (benign ADS markers).
func NewDetector(m *machine.Machine) *Detector {
	return &Detector{M: m, Opts: DiffOptions{NoiseFilters: BaselineNoiseFilters()}}
}

// NewCachedDetector builds a detector like NewDetector but with an
// incremental-scan cache attached — the configuration a fleet's daily
// sweep loop uses.
func NewCachedDetector(m *machine.Machine) *Detector {
	d := NewDetector(m)
	d.Cache = NewScanCache(m)
	return d
}

// table returns the interning table all of this detector's snapshots
// share. Not safe to call first from concurrent goroutines — the sweep
// paths resolve it once before forking lanes.
func (d *Detector) table() *InternTable {
	if d.Cache != nil {
		return d.Cache.table()
	}
	if d.intern == nil {
		d.intern = NewInternTable()
	}
	return d.intern
}

// ScanFiles runs the inside-the-box hidden-file detection (§2).
func (d *Detector) ScanFiles() (*Report, error) { return d.scanPair(&pairTable[0]) }

// ScanASEPs runs the inside-the-box hidden-Registry detection (§3).
func (d *Detector) ScanASEPs() (*Report, error) { return d.scanPair(&pairTable[1]) }

// ScanProcesses runs the inside-the-box hidden-process detection (§4).
func (d *Detector) ScanProcesses() (*Report, error) { return d.scanPair(&pairTable[2]) }

// ScanModules runs the inside-the-box hidden-module detection (§4). The
// pid set comes from the kernel truth so hidden processes' modules are
// covered.
func (d *Detector) ScanModules() (*Report, error) { return d.scanPair(&pairTable[3]) }

// scanPair runs one pair's high unit, then its low unit, on the machine
// clock and diffs them. This is the per-resource methods' contract:
// errors come back unwrapped, and OnReport, Contain and Deadline do not
// apply.
func (d *Detector) scanPair(p *pairSpec) (*Report, error) {
	s := &sweep{d: d, t: d.table(), lanes: 1}
	high, err := p.high(s, d.M.Clock)
	if err != nil {
		return nil, err
	}
	low, err := p.low(s, d.M.Clock)
	if err != nil {
		return nil, err
	}
	return SealedDiffColumnar(high, low, d.Opts)
}

// ScanAll runs every enabled pair and returns the reports in the paper's
// order — files, ASEP hooks, processes, modules — followed by the
// enabled next-generation pairs. With Parallelism > 1 the units fan out
// across that many lanes, clamped to the sweep's unit count (twice the
// number of enabled pairs); see sweep.run. Reports are byte-identical
// for any lane count, and — absent faults, deadlines, and panics —
// identical whether or not Contain is set.
func (d *Detector) ScanAll() ([]*Report, error) {
	genStart := d.M.Disk.Generation()
	s := &sweep{d: d, t: d.table(), start: d.M.Clock.Now()}
	s.specs = d.pairSpecs(s.specBuf[:0])
	n := 2 * len(s.specs)
	s.order = s.orderBuf[:n]
	scanOrder(s.order, d.OrderSeed)
	s.lanes = min(max(d.Parallelism, 1), n)
	if err := s.run(); err != nil {
		return nil, err
	}
	return d.assemble(s.specs, s.snaps[:n], s.errs[:n], genStart)
}

// scanUnit runs one side of a resource pair, charging clk.
type scanUnit func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error)

// pairSpec is one resource pair: its report identity and the
// constructors of its high (API) and low (truth) scan units. In a sweep,
// unit 2i is pair i's high scan and unit 2i+1 its low scan.
type pairSpec struct {
	name     string
	unit     UnitSet // zero for the paper's always-on pairs
	kind     ResourceKind
	highView View
	lowView  View
	high     scanUnit
	low      scanUnit
}

// pairTable holds every pair a sweep can run, in report order: the
// paper's four (§2 files, §3 ASEPs, §4 processes and modules), then the
// next-generation pairs of nextgen.go, each enabled by its Detector.Units
// bit.
var pairTable = [numPairs]pairSpec{
	{"files", 0, KindFiles, ViewWin32Inside, ViewRawMFT, apiUnit(ScanFilesHighC), (*sweep).filesLow},
	{"ASEPs", 0, KindASEPHooks, ViewWin32Inside, ViewRawHive, apiUnit(ScanASEPHighC), (*sweep).asepsLow},
	{"processes", 0, KindProcesses, ViewWin32Inside, ViewKernelAPL, apiUnit(ScanProcsHighC), (*sweep).procsLow},
	{"modules", 0, KindModules, ViewWin32Inside, ViewKernelVAD, (*sweep).modsHigh, (*sweep).modsLow},
	{"kmem-carve", UnitCrossMem, KindProcesses, ViewKernelCID, ViewKernelCarve, rawUnit(scanCrossMemHighC), rawUnit(scanCrossMemLowC)},
	{"boot-chain", UnitBootChain, KindBootChain, ViewBootAPI, ViewBootRaw, apiUnit(scanBootHighC), rawUnit(scanBootLowC)},
	{"removable", UnitRemovable, KindFiles, ViewWin32Inside, ViewRawRemovable, apiUnit(scanRemovableHighC), (*sweep).removableLow},
}

// numPairs is the size of pairTable. maxScanUnits bounds one sweep's
// unit count: execution-order permutations live in a fixed-size array
// of this bound, so randomized ordering allocates nothing.
const (
	numPairs     = 7
	maxScanUnits = 2 * numPairs
)

// pairSpecs appends the sweep's pairs to buf in report order: the
// paper's four, then the enabled next-generation pairs.
func (d *Detector) pairSpecs(buf []pairSpec) []pairSpec {
	for _, p := range pairTable {
		if p.unit != 0 && !d.Units.Has(p.unit) {
			continue
		}
		if p.lowView == ViewKernelAPL && d.Advanced {
			p.lowView = ViewKernelCID // the process truth view follows Advanced
		}
		buf = append(buf, p)
	}
	return buf
}

// apiUnit adapts a high scan that reads through the hookable API chain:
// it runs under the detector's identity, its traffic charged to clk.
func apiUnit(scan func(*machine.Machine, *winapi.Call, *InternTable) (*ColumnarSnapshot, error)) scanUnit {
	return func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error) {
		call, err := s.callOn(clk)
		if err != nil {
			return nil, err
		}
		return scan(s.d.M, call, s.t)
	}
}

// rawUnit adapts a scan that reads its source directly, charging clk.
func rawUnit(scan func(*machine.Machine, *vtime.Clock, *InternTable) (*ColumnarSnapshot, error)) scanUnit {
	return func(s *sweep, clk *vtime.Clock) (*ColumnarSnapshot, error) { return scan(s.d.M, clk, s.t) }
}

// sweep is one run of scan units: what the units share (the intern
// table, resolved before any forking because Detector.table's lazy init
// is not concurrency-safe; the lane count; the caller identity of the
// API units; the truth pid list) and, for ScanAll, the execution order
// and per-unit results.
type sweep struct {
	d *Detector
	t *InternTable
	// lanes is the sweep's lane count. The raw-MFT unit dominates a cold
	// sweep, so it also shards its record decode across this bound (the
	// other lanes' units are small and finish early, freeing cores).
	lanes int

	caller     winapi.Proc
	callerErr  error
	callerDone bool

	pids     []uint64
	pidsErr  error
	pidsDone bool

	start    time.Duration
	specs    []pairSpec
	order    []int
	specBuf  [numPairs]pairSpec
	orderBuf [maxScanUnits]int
	snaps    [maxScanUnits]*ColumnarSnapshot
	errs     [maxScanUnits]error
}

// run executes the sweep's units: the k-th unit of the execution order
// runs on lane k mod lanes. One lane runs inline on the machine clock.
// More fork a virtual-time region, run one goroutine per lane charging
// the lane's clock, and join it, which advances the machine clock by the
// longest lane — the wall clock a set of concurrent scanners would have
// cost. The assignment never depends on goroutine scheduling, so every
// unit's virtual cost and Elapsed are the same at any lane count.
//
// Without Contain the sweep fails fast: one lane stops at the first
// error in execution order, before later units charge any time, and at
// any lane count the first failed unit in report order is returned.
func (s *sweep) run() error {
	d := s.d
	if s.lanes == 1 {
		s.lane(d.M.Clock, 0)
	} else {
		// Both module units read the truth pid list, and every API unit
		// the caller identity: resolve both once before forking, on the
		// machine clock. One lane resolves them lazily instead, inside the
		// first unit that needs each. A caller error fails the API units
		// themselves, so it surfaces under the first of them.
		if _, err := s.truthPids(); err != nil && !d.Contain {
			return fmt.Errorf("core: modules scan: %w", err)
		}
		_ = s.resolveCaller()
		region := d.M.Clock.Fork(s.lanes)
		var wg sync.WaitGroup
		for lane := 0; lane < s.lanes; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				s.lane(region.Lane(lane), lane)
			}(lane)
		}
		wg.Wait()
		region.Join()
	}
	if !d.Contain {
		for u, err := range s.errs[:len(s.order)] {
			if err != nil {
				return fmt.Errorf("core: %s scan: %w", s.specs[u/2].name, err)
			}
		}
	}
	return nil
}

// lane runs units order[lane], order[lane+lanes], ... on clk. A unit not
// yet started when the virtual-time budget is spent or Cancel closes is
// abandoned with the marker error instead.
func (s *sweep) lane(clk *vtime.Clock, lane int) {
	for k := lane; k < len(s.order); k += s.lanes {
		u := s.order[k]
		if s.errs[u] = s.d.abandonUnit(clk, s.start); s.errs[u] == nil {
			s.snaps[u], s.errs[u] = s.runUnit(u, clk)
		}
		if s.errs[u] != nil && s.lanes == 1 && !s.d.Contain {
			return
		}
	}
}

// runUnit executes unit u with panic recovery: a panicking scanner
// becomes a unit error (degrading the pair under Contain) instead of
// tearing down the whole sweep.
func (s *sweep) runUnit(u int, clk *vtime.Clock) (snap *ColumnarSnapshot, err error) {
	spec := &s.specs[u/2]
	unit, side := spec.high, "high"
	if u%2 == 1 {
		unit, side = spec.low, "low"
	}
	defer func() {
		if r := recover(); r != nil {
			snap, err = nil, fmt.Errorf("core: scan unit %s/%s panicked: %v", spec.name, side, r)
		}
	}()
	return unit(s, clk)
}

// callOn builds a fresh call under the sweep's caller identity whose
// API traffic charges clk.
func (s *sweep) callOn(clk *vtime.Clock) (*winapi.Call, error) {
	if err := s.resolveCaller(); err != nil {
		return nil, err
	}
	return &winapi.Call{Proc: s.caller, Clock: clk}, nil
}

// resolveCaller looks up the process the API units run as (the
// detector's AsProcess, default explorer.exe), once per sweep. The
// lookup reads the unfaulted kernel truth and charges no virtual time.
func (s *sweep) resolveCaller() error {
	if !s.callerDone {
		if s.d.AsProcess == "" {
			s.caller = s.d.M.SystemCall().Proc
		} else if call, err := s.d.M.CallAs(s.d.AsProcess); err != nil {
			s.callerErr = err
		} else {
			s.caller = call.Proc
		}
		s.callerDone = true
	}
	return s.callerErr
}

// truthPids returns the pid list of the kernel truth (TruthPids), read
// once per sweep.
func (s *sweep) truthPids() ([]uint64, error) {
	if !s.pidsDone {
		s.pids, s.pidsErr = TruthPids(s.d.M)
		s.pidsDone = true
	}
	return s.pids, s.pidsErr
}

// filesLow, asepsLow and removableLow are the truth parses a ScanCache
// memoizes; with a cache attached they go through its memo slot.
func (s *sweep) filesLow(clk *vtime.Clock) (*ColumnarSnapshot, error) {
	parse := func() (*ColumnarSnapshot, error) { return ScanFilesLowC(s.d.M, clk, s.lanes, s.t) }
	if c := s.d.Cache; c != nil {
		return c.files.scan(c, clk, parse)
	}
	return parse()
}

func (s *sweep) asepsLow(clk *vtime.Clock) (*ColumnarSnapshot, error) {
	parse := func() (*ColumnarSnapshot, error) { return ScanASEPLowC(s.d.M, clk, s.t) }
	if c := s.d.Cache; c != nil {
		return c.aseps.scan(c, clk, parse)
	}
	return parse()
}

func (s *sweep) removableLow(clk *vtime.Clock) (*ColumnarSnapshot, error) {
	parse := func() (*ColumnarSnapshot, error) { return scanRemovableLowC(s.d.M, clk, s.t) }
	if c := s.d.Cache; c != nil {
		return c.rem.scan(c, clk, parse)
	}
	return parse()
}

func (s *sweep) procsLow(clk *vtime.Clock) (*ColumnarSnapshot, error) {
	return scanProcsLowC(s.d.M, s.d.Advanced, clk, s.t)
}

func (s *sweep) modsHigh(clk *vtime.Clock) (*ColumnarSnapshot, error) {
	call, err := s.callOn(clk)
	if err != nil {
		return nil, err
	}
	pids, err := s.truthPids()
	if err != nil {
		return nil, err
	}
	return ScanModsHighC(s.d.M, call, pids, s.t)
}

func (s *sweep) modsLow(clk *vtime.Clock) (*ColumnarSnapshot, error) {
	pids, err := s.truthPids()
	if err != nil {
		return nil, err
	}
	return scanModsLowC(s.d.M, pids, clk, s.t)
}

// scanOrder fills perm with the unit execution order: identity for seed
// zero, a seeded Fisher-Yates shuffle otherwise (splitmix64 steps, so
// the order is a pure function of the seed and unit count).
func scanOrder(perm []int, seed int64) {
	for i := range perm {
		perm[i] = i
	}
	if seed == 0 {
		return
	}
	x := uint64(seed)
	for i := len(perm) - 1; i > 0; i-- {
		x += 0x9E3779B97F4A7C15
		z := x
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		j := int(z % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// ScanOrder returns the execution order a sweep of n units runs under
// the given seed. Exposed so tests and oracles can pick seeds that put
// chosen units ahead of the evasion trigger.
func ScanOrder(seed int64, n int) []int {
	perm := make([]int, n)
	scanOrder(perm, seed)
	return perm
}

// errDeadline marks units abandoned because the sweep's virtual-time
// budget ran out before they started.
var errDeadline = errors.New("core: scan deadline exceeded")

// ErrCancelled marks units abandoned because the sweep's Cancel channel
// closed before they started. Exported so the fleet layer can recognize
// a cancellation casualty (its text survives both the fail-fast error
// and a contained unit's DegradedUnit fault) and discard it instead of
// committing a partial verdict.
var ErrCancelled = errors.New("core: scan cancelled")

// abandonUnit reports whether the next unit should be abandoned rather
// than started, and with which marker error: virtual-time budget spent,
// or external cancellation.
func (d *Detector) abandonUnit(clk *vtime.Clock, sweepStart time.Duration) error {
	if d.Deadline > 0 && clk.Now()-sweepStart > d.Deadline {
		return errDeadline
	}
	if d.Cancel != nil {
		select {
		case <-d.Cancel:
			return ErrCancelled
		default:
		}
	}
	return nil
}

// assemble diffs the unit snapshots into the per-pair reports. Under
// Contain, pairs with failed units yield degraded reports instead of
// errors, and a files pair whose disk generation moved mid-sweep is
// demoted: its findings may be mutation races, not hiding, so they are
// dropped and the demotion is recorded.
func (d *Detector) assemble(specs []pairSpec, snaps []*ColumnarSnapshot, errs []error, genStart uint64) ([]*Report, error) {
	diskMoved := d.Contain && d.M.Disk.Generation() != genStart
	out := make([]*Report, 0, len(specs))
	for i, spec := range specs {
		name := spec.name
		high, low := snaps[2*i], snaps[2*i+1]
		highErr, lowErr := errs[2*i], errs[2*i+1]
		var r *Report
		if highErr == nil && lowErr == nil {
			var err error
			r, err = DiffColumnar(high, low, d.Opts)
			if err != nil {
				if !d.Contain {
					return nil, fmt.Errorf("core: %s scan: %w", name, err)
				}
				r = stubReport(spec, high, low)
				r.DegradedUnits = append(r.DegradedUnits, DegradedUnit{
					Unit: name + "/pair", Fault: err.Error(), Compared: comparedViews(high, low),
				})
			}
		} else {
			r = stubReport(spec, high, low)
			if highErr != nil {
				r.DegradedUnits = append(r.DegradedUnits, DegradedUnit{
					Unit: name + "/high", Fault: highErr.Error(), Compared: comparedViews(high, low),
				})
			}
			if lowErr != nil {
				r.DegradedUnits = append(r.DegradedUnits, DegradedUnit{
					Unit: name + "/low", Fault: lowErr.Error(), Compared: comparedViews(high, low),
				})
			}
		}
		if i == 0 && diskMoved && r != nil && len(r.DegradedUnits) == 0 {
			// The filesystem changed under the sweep: a file created
			// between the high walk and the raw parse shows up low-only
			// without being hidden. Cross-view findings from this pair
			// are unreliable, so drop them and surface the race.
			r.Hidden, r.Noise, r.Phantom = nil, nil, nil
			r.MassHiding = nil
			r.DegradedUnits = append(r.DegradedUnits, DegradedUnit{
				Unit: "files/pair", Fault: "mid-scan filesystem mutation (device generation changed)",
				Compared: comparedViews(high, low),
			})
		}
		// Stub reports never went through Diff, and the demotion above
		// rewrites findings after sealing — re-seal so every report the
		// detector emits carries a digest matching its final content.
		r.Seal()
		if d.OnReport != nil {
			d.OnReport(r)
		}
		out = append(out, r)
	}
	return out, nil
}

// stubReport builds the degraded report for a pair from whatever
// snapshots survived; the spec supplies the nominal kind and views for
// snapshots that never materialized.
func stubReport(spec pairSpec, high, low *ColumnarSnapshot) *Report {
	r := &Report{Kind: spec.kind, HighView: spec.highView, LowView: spec.lowView}
	if high != nil {
		r.HighView = high.View
		r.HighSkipped = high.Skipped
		r.Elapsed += high.Elapsed
	}
	if low != nil {
		r.LowView = low.View
		r.LowSkipped = low.Skipped
		r.Elapsed += low.Elapsed
	}
	return r
}

// comparedViews lists the views that produced usable snapshots.
func comparedViews(high, low *ColumnarSnapshot) []View {
	var out []View
	if high != nil {
		out = append(out, high.View)
	}
	if low != nil {
		out = append(out, low.View)
	}
	return out
}
