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
	// concurrently. A sweep has eight units (the high/low pair of each of
	// the four resource detections); values above eight are clamped.
	// Zero or one keeps the sequential path. Reports are byte-identical
	// either way: units are statically assigned to virtual-time lanes, so
	// per-scan charges never depend on goroutine interleaving.
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

func (d *Detector) lowFilesC(clk *vtime.Clock, workers int, t *InternTable) (*ColumnarSnapshot, error) {
	if d.Cache != nil {
		return d.Cache.scanFilesLowOn(clk, workers)
	}
	return ScanFilesLowC(d.M, clk, workers, t)
}

func (d *Detector) lowASEPsC(clk *vtime.Clock, t *InternTable) (*ColumnarSnapshot, error) {
	if d.Cache != nil {
		return d.Cache.scanASEPLowOn(clk)
	}
	return ScanASEPLowC(d.M, clk, t)
}

func (d *Detector) call() (*winapi.Call, error) {
	name := d.AsProcess
	if name == "" {
		return d.M.SystemCall(), nil
	}
	return d.M.CallAs(name)
}

// callOn builds a fresh call whose API traffic charges the given lane
// clock instead of the machine clock.
func (d *Detector) callOn(clk *vtime.Clock) (*winapi.Call, error) {
	call, err := d.call()
	if err != nil {
		return nil, err
	}
	laned := *call
	laned.Clock = clk
	return &laned, nil
}

// ScanFiles runs the inside-the-box hidden-file detection (§2).
func (d *Detector) ScanFiles() (*Report, error) {
	call, err := d.call()
	if err != nil {
		return nil, err
	}
	t := d.table()
	high, err := ScanFilesHighC(d.M, call, t)
	if err != nil {
		return nil, err
	}
	low, err := d.lowFilesC(d.M.Clock, 1, t)
	if err != nil {
		return nil, err
	}
	return SealedDiffColumnar(high, low, d.Opts)
}

// ScanASEPs runs the inside-the-box hidden-Registry detection (§3).
func (d *Detector) ScanASEPs() (*Report, error) {
	call, err := d.call()
	if err != nil {
		return nil, err
	}
	t := d.table()
	high, err := ScanASEPHighC(d.M, call, t)
	if err != nil {
		return nil, err
	}
	low, err := d.lowASEPsC(d.M.Clock, t)
	if err != nil {
		return nil, err
	}
	return SealedDiffColumnar(high, low, d.Opts)
}

// ScanProcesses runs the inside-the-box hidden-process detection (§4).
func (d *Detector) ScanProcesses() (*Report, error) {
	call, err := d.call()
	if err != nil {
		return nil, err
	}
	t := d.table()
	high, err := ScanProcsHighC(d.M, call, t)
	if err != nil {
		return nil, err
	}
	low, err := scanProcsLowC(d.M, d.Advanced, d.M.Clock, t)
	if err != nil {
		return nil, err
	}
	return SealedDiffColumnar(high, low, d.Opts)
}

// ScanModules runs the inside-the-box hidden-module detection (§4). The
// pid set comes from the kernel truth so hidden processes' modules are
// covered.
func (d *Detector) ScanModules() (*Report, error) {
	call, err := d.call()
	if err != nil {
		return nil, err
	}
	pids, err := TruthPids(d.M)
	if err != nil {
		return nil, err
	}
	t := d.table()
	high, err := ScanModsHighC(d.M, call, pids, t)
	if err != nil {
		return nil, err
	}
	low, err := scanModsLowC(d.M, pids, d.M.Clock, t)
	if err != nil {
		return nil, err
	}
	return SealedDiffColumnar(high, low, d.Opts)
}

// ScanAll runs all four detections and returns the reports in the
// paper's order: files, ASEP hooks, processes, modules. With
// Parallelism > 1, the eight scan units fan out across that many
// goroutines (clamped to eight); see scanAllParallel. Reports are
// byte-identical for any lane count, and — absent faults, deadlines,
// and panics — identical whether or not Contain is set.
func (d *Detector) ScanAll() ([]*Report, error) {
	genStart := d.M.Disk.Generation()
	sweepStart := d.M.Clock.Now()
	if d.Parallelism > 1 {
		lanes := d.Parallelism
		if max := 2 * len(d.pairSpecs()); lanes > max {
			lanes = max
		}
		return d.scanAllParallel(lanes, genStart, sweepStart)
	}
	return d.scanAllSequential(genStart, sweepStart)
}

// numScanUnits is the number of always-on scan units in one sweep: the
// high and low scan of each of the paper's four resource detections.
// Detector.Units can enable up to three more pairs.
const numScanUnits = 8

// maxScanUnits bounds one sweep's unit count: the paper eight plus the
// three next-generation pairs. Execution-order permutations live in a
// fixed-size array of this bound, so randomized ordering allocates
// nothing.
const maxScanUnits = numScanUnits + 6

// pairSpec describes one resource pair of a sweep: unit 2i is pair i's
// high scan, unit 2i+1 its low scan.
type pairSpec struct {
	name     string
	kind     ResourceKind
	highView View
	lowView  View
}

// pairSpecs lists the sweep's pairs in report order: the paper's four,
// then the enabled next-generation pairs.
func (d *Detector) pairSpecs() []pairSpec {
	procLow := ViewKernelAPL
	if d.Advanced {
		procLow = ViewKernelCID
	}
	specs := make([]pairSpec, 0, maxScanUnits/2)
	specs = append(specs,
		pairSpec{"files", KindFiles, ViewWin32Inside, ViewRawMFT},
		pairSpec{"ASEPs", KindASEPHooks, ViewWin32Inside, ViewRawHive},
		pairSpec{"processes", KindProcesses, ViewWin32Inside, procLow},
		pairSpec{"modules", KindModules, ViewWin32Inside, ViewKernelVAD},
	)
	if d.Units.Has(UnitCrossMem) {
		specs = append(specs, pairSpec{"kmem-carve", KindProcesses, ViewKernelCID, ViewKernelCarve})
	}
	if d.Units.Has(UnitBootChain) {
		specs = append(specs, pairSpec{"boot-chain", KindBootChain, ViewBootAPI, ViewBootRaw})
	}
	if d.Units.Has(UnitRemovable) {
		specs = append(specs, pairSpec{"removable", KindFiles, ViewWin32Inside, ViewRawRemovable})
	}
	return specs
}

// unitName labels unit u for errors and DegradedUnits entries.
func unitName(specs []pairSpec, u int) string {
	side := "high"
	if u%2 == 1 {
		side = "low"
	}
	return specs[u/2].name + "/" + side
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

// scanUnits builds the eight unit closures in report order, high before
// low within each pair. Every unit interns into the shared table t
// (resolved by the caller before any forking — the table itself is
// concurrency-safe, but the lazy init in d.table is not). pids resolves
// the truth pid list both module units share: the parallel path
// precomputes it before forking (on the machine clock, as before), the
// sequential path computes it lazily so the call/pids charge order of
// the original ScanModules is preserved.
func (d *Detector) scanUnits(workers int, t *InternTable, pids func() ([]uint64, error), specs []pairSpec) []func(*vtime.Clock) (*ColumnarSnapshot, error) {
	highUnit := func(scan func(*machine.Machine, *winapi.Call, *InternTable) (*ColumnarSnapshot, error)) func(*vtime.Clock) (*ColumnarSnapshot, error) {
		return func(clk *vtime.Clock) (*ColumnarSnapshot, error) {
			call, err := d.callOn(clk)
			if err != nil {
				return nil, err
			}
			return scan(d.M, call, t)
		}
	}
	// The raw-MFT unit dominates a cold sweep, so it additionally shards
	// its record decode across the lane bound (the other lanes' units are
	// small and finish early, freeing cores for the decode shards).
	units := make([]func(*vtime.Clock) (*ColumnarSnapshot, error), 0, 2*len(specs))
	units = append(units,
		highUnit(ScanFilesHighC),
		func(clk *vtime.Clock) (*ColumnarSnapshot, error) { return d.lowFilesC(clk, workers, t) },
		highUnit(ScanASEPHighC),
		func(clk *vtime.Clock) (*ColumnarSnapshot, error) { return d.lowASEPsC(clk, t) },
		highUnit(ScanProcsHighC),
		func(clk *vtime.Clock) (*ColumnarSnapshot, error) { return scanProcsLowC(d.M, d.Advanced, clk, t) },
		func(clk *vtime.Clock) (*ColumnarSnapshot, error) {
			call, err := d.callOn(clk)
			if err != nil {
				return nil, err
			}
			p, err := pids()
			if err != nil {
				return nil, err
			}
			return ScanModsHighC(d.M, call, p, t)
		},
		func(clk *vtime.Clock) (*ColumnarSnapshot, error) {
			p, err := pids()
			if err != nil {
				return nil, err
			}
			return scanModsLowC(d.M, p, clk, t)
		},
	)
	for _, s := range specs[numScanUnits/2:] {
		switch s.name {
		case "kmem-carve":
			units = append(units,
				func(clk *vtime.Clock) (*ColumnarSnapshot, error) { return scanCrossMemHighC(d.M, clk, t) },
				func(clk *vtime.Clock) (*ColumnarSnapshot, error) { return scanCrossMemLowC(d.M, clk, t) },
			)
		case "boot-chain":
			units = append(units,
				highUnit(scanBootHighC),
				func(clk *vtime.Clock) (*ColumnarSnapshot, error) { return scanBootLowC(d.M, clk, t) },
			)
		case "removable":
			units = append(units,
				highUnit(scanRemovableHighC),
				func(clk *vtime.Clock) (*ColumnarSnapshot, error) { return d.lowRemovableC(clk, t) },
			)
		}
	}
	return units
}

// lowRemovableC routes the removable truth scan through the cache when
// one is attached.
func (d *Detector) lowRemovableC(clk *vtime.Clock, t *InternTable) (*ColumnarSnapshot, error) {
	if d.Cache != nil {
		return d.Cache.scanRemovableLowOn(clk)
	}
	return scanRemovableLowC(d.M, clk, t)
}

// runUnit executes one unit with panic recovery: a panicking scanner
// becomes a unit error (degrading the pair under Contain) instead of
// tearing down the whole sweep.
func runUnit(name string, clk *vtime.Clock, run func(*vtime.Clock) (*ColumnarSnapshot, error)) (snap *ColumnarSnapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			snap, err = nil, fmt.Errorf("core: scan unit %s panicked: %v", name, r)
		}
	}()
	return run(clk)
}

// overDeadline reports whether the sweep's virtual-time budget is spent
// on the given clock.
func (d *Detector) overDeadline(clk *vtime.Clock, sweepStart time.Duration) bool {
	return d.Deadline > 0 && clk.Now()-sweepStart > d.Deadline
}

// abandonUnit reports whether the next unit should be abandoned rather
// than started, and with which marker error: virtual-time budget spent,
// or external cancellation.
func (d *Detector) abandonUnit(clk *vtime.Clock, sweepStart time.Duration) error {
	if d.overDeadline(clk, sweepStart) {
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

// scanAllSequential runs the eight units in order on the machine clock.
// Without Contain it fails fast — the first unit error aborts the sweep
// before later units charge any time, exactly as the historical
// per-resource scan methods did.
func (d *Detector) scanAllSequential(genStart uint64, sweepStart time.Duration) ([]*Report, error) {
	var pids []uint64
	var pidsErr error
	pidsDone := false
	pidsOnce := func() ([]uint64, error) {
		if !pidsDone {
			pids, pidsErr = TruthPids(d.M)
			pidsDone = true
		}
		return pids, pidsErr
	}
	specs := d.pairSpecs()
	units := d.scanUnits(1, d.table(), pidsOnce, specs)
	snaps := make([]*ColumnarSnapshot, len(units))
	errs := make([]error, len(units))
	var permBuf [maxScanUnits]int
	perm := permBuf[:len(units)]
	scanOrder(perm, d.OrderSeed)
	for _, u := range perm {
		if abandon := d.abandonUnit(d.M.Clock, sweepStart); abandon != nil {
			errs[u] = abandon
		} else {
			snaps[u], errs[u] = runUnit(unitName(specs, u), d.M.Clock, units[u])
		}
		if errs[u] != nil && !d.Contain {
			return nil, fmt.Errorf("core: %s scan: %w", specs[u/2].name, errs[u])
		}
	}
	return d.assemble(specs, snaps, errs, genStart)
}

// scanAllParallel is the fan-out sweep. The eight scan units are
// statically assigned round-robin to `lanes` virtual-time lanes
// (unit j runs on lane j mod lanes); each lane is one goroutine running
// its units in order and charging the lane's clock, so every unit's
// virtual cost and Elapsed are identical to the sequential path — the
// assignment never depends on goroutine scheduling. Joining the region
// advances the machine clock by the longest lane, which is exactly the
// wall-clock a set of concurrent scanners would have cost.
func (d *Detector) scanAllParallel(lanes int, genStart uint64, sweepStart time.Duration) ([]*Report, error) {
	// The truth pid list feeds both module units; compute it once before
	// forking, as the sequential ScanModules does.
	pids, pidsErr := TruthPids(d.M)
	if pidsErr != nil && !d.Contain {
		return nil, fmt.Errorf("core: modules scan: %w", pidsErr)
	}
	pidsOnce := func() ([]uint64, error) { return pids, pidsErr }
	specs := d.pairSpecs()
	units := d.scanUnits(lanes, d.table(), pidsOnce, specs)
	var permBuf [maxScanUnits]int
	perm := permBuf[:len(units)]
	scanOrder(perm, d.OrderSeed)
	var (
		snaps  = make([]*ColumnarSnapshot, len(units))
		errs   = make([]error, len(units))
		region = d.M.Clock.Fork(lanes)
		wg     sync.WaitGroup
	)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			clk := region.Lane(lane)
			for k := lane; k < len(units); k += lanes {
				u := perm[k]
				if abandon := d.abandonUnit(clk, sweepStart); abandon != nil {
					errs[u] = abandon
					continue
				}
				snaps[u], errs[u] = runUnit(unitName(specs, u), clk, units[u])
			}
		}(lane)
	}
	wg.Wait()
	region.Join()
	if !d.Contain {
		for u := range units {
			if errs[u] != nil {
				return nil, fmt.Errorf("core: %s scan: %w", specs[u/2].name, errs[u])
			}
		}
	}
	return d.assemble(specs, snaps, errs, genStart)
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
