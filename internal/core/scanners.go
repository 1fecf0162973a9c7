package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"ghostbuster/internal/hive"
	"ghostbuster/internal/kernel"
	"ghostbuster/internal/kmem"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/ntfs"
	"ghostbuster/internal/registry"
	"ghostbuster/internal/vtime"
	"ghostbuster/internal/winapi"
)

// Cost constants for the virtual-time model, calibrated so that the
// paper's reported ranges fall out of its machine profiles: high-level
// file scans are seek-bound (~4 ms per represented file), low-level MFT
// reads are sequential, full-hive parsing is CPU-bound per key, and
// process scans cost per process. See EXPERIMENTS.md for the mapping.
const (
	costPerRepFileHigh = 4 * time.Millisecond
	costPerRepFileLow  = 50 * time.Microsecond
	costPerRepKeyParse = 200 * time.Microsecond
	costPerRepKeyHigh  = 400 * time.Microsecond
	costPerProcess     = 40 * time.Millisecond
	costPerModule      = 2 * time.Millisecond
	costDiffPerEntry   = 1 * time.Microsecond
)

// clockFor returns the clock a scan charges: the call's lane clock when
// one is set (parallel sweeps), otherwise the machine clock.
func clockFor(m *machine.Machine, call *winapi.Call) *vtime.Clock {
	if call != nil && call.Clock != nil {
		return call.Clock
	}
	return m.Clock
}

// fileID canonicalizes a full path for diffing. Scanned paths are
// usually already canonical, so the common case returns the input
// without allocating (strings.ToUpper here used to dominate snapshot
// allocations on large file scans).
func fileID(path string) string {
	for i := 0; i < len(path); i++ {
		c := path[i]
		if c >= utf8.RuneSelf {
			return strings.ToUpper(path)
		}
		if 'a' <= c && c <= 'z' {
			b := make([]byte, 0, len(path))
			b = append(b, path[:i]...)
			return string(ntfs.AppendUpper(b, path[i:]))
		}
	}
	return path
}

// internFileID interns the canonical (uppercase) form of path without
// building an intermediate string: canonical paths intern directly, and
// mixed-case paths upcase into the reusable scratch buffer first. The
// returned buffer is the (possibly grown) scratch.
func internFileID(t *InternTable, buf []byte, path string) (Sym, []byte) {
	for i := 0; i < len(path); i++ {
		c := path[i]
		if c >= utf8.RuneSelf {
			return t.Intern(strings.ToUpper(path)), buf
		}
		if 'a' <= c && c <= 'z' {
			buf = append(buf[:0], path[:i]...)
			buf = ntfs.AppendUpper(buf, path[i:])
			return t.InternBytes(buf), buf
		}
	}
	return t.Intern(path), buf
}

// appendPidUpperID builds the "PID <n>: <UPPER>" diff identity into the
// scratch buffer.
func appendPidUpperID(b []byte, pid uint64, s string) []byte {
	b = append(b[:0], "PID "...)
	b = strconv.AppendUint(b, pid, 10)
	b = append(b, ':', ' ')
	return ntfs.AppendUpper(b, s)
}

func appendProcDisplay(b []byte, name string, pid uint64) []byte {
	b = append(b[:0], name...)
	b = append(b, " (pid "...)
	b = strconv.AppendUint(b, pid, 10)
	return append(b, ')')
}

func appendModDisplay(b []byte, pid uint64, path string) []byte {
	b = append(b[:0], "pid "...)
	b = strconv.AppendUint(b, pid, 10)
	b = append(b, ':', ' ')
	return append(b, path...)
}

func appendBaseDetail(b []byte, base uint64) []byte {
	b = append(b[:0], "base 0x"...)
	return strconv.AppendUint(b, base, 16)
}

// --- file scans -----------------------------------------------------------

// ScanFilesHighC performs the inside-the-box high-level file scan over
// the intern table t: the equivalent of "dir /s /b" issued by the given
// process through the FindFirst(Next)File chain.
func ScanFilesHighC(m *machine.Machine, call *winapi.Call, t *InternTable) (*ColumnarSnapshot, error) {
	clk := clockFor(m, call)
	sw := vtime.NewStopwatch(clk)
	entries, err := m.API.WalkTreeWin32(call, machine.Drive)
	if err != nil {
		return nil, fmt.Errorf("core: high-level file scan: %w", err)
	}
	bld := NewColumnarBuilder(t, KindFiles, ViewWin32Inside, len(entries))
	var idBuf, detBuf []byte
	for _, e := range entries {
		var sym Sym
		sym, idBuf = internFileID(t, idBuf, e.Path)
		detBuf = strconv.AppendUint(detBuf[:0], e.Size, 10)
		detBuf = append(detBuf, " bytes"...)
		bld.AddRow(sym, e.Path, t.InternStrBytes(detBuf))
	}
	snap := bld.Build()
	clk.ChargeOps(int64(float64(len(entries))*m.Profile.RepFileFactor()), costPerRepFileHigh)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// ScanFilesLowC performs the inside-the-box low-level file scan: parse
// the live device bytes (the Master File Table) directly, bypassing
// every API layer, charging clk (the machine clock, or a parallel sweep
// lane's). The raw parse holds the volume's read lock, so it sees a
// consistent device image even while mutators run on other goroutines,
// and the zero-copy record decode never outlives the lock. workers
// shards the MFT record decode (see ntfs.RawScanParallel); the snapshot
// and its virtual-time charges are identical for any count.
func ScanFilesLowC(m *machine.Machine, clk *vtime.Clock, workers int, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clk)
	var snap *ColumnarSnapshot
	err := m.Disk.WithDevice(func(dev []byte) error {
		var err error
		snap, err = scanImageC(dev, ViewRawMFT, workers, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	chargeLowFileScan(m, clk, snap.Len())
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

func chargeLowFileScan(m *machine.Machine, clk *vtime.Clock, entries int) {
	chargeRawMFTRead(clk, m.Profile, entries)
	clk.ChargeOps(int64(float64(entries)*m.Profile.RepFileFactor()), costPerRepFileLow)
}

// diskBytesPerSecond returns the profile's sequential read throughput in
// bytes per second, with the 30 MB/s fallback for unset profiles.
func diskBytesPerSecond(p machine.Profile) int64 {
	mbps := p.DiskMBps
	if mbps <= 0 {
		mbps = 30
	}
	return int64(mbps) << 20
}

// chargeRawMFTRead charges the sequential device read a raw MFT parse of
// the given entry count performs under profile p. Shared by the inside
// low-level scan and the outside image scans.
func chargeRawMFTRead(clock *vtime.Clock, p machine.Profile, entries int) {
	repBytes := int64(float64(entries)*p.RepFileFactor()) * ntfs.RecordSize
	clock.ChargeBytes(repBytes, diskBytesPerSecond(p))
}

// scanImageC raw-parses a disk image into a columnar file snapshot,
// labeling it with the given view. Used by the inside low-level scan,
// the WinPE outside scan, and the VM host scan.
func scanImageC(image []byte, view View, workers int, t *InternTable) (*ColumnarSnapshot, error) {
	return scanImageDriveC(image, view, machine.Drive, workers, t)
}

// scanImageDriveC is scanImageC with an explicit drive prefix, so the
// removable-device scan reconstructs E:\ paths instead of C:\ ones.
func scanImageDriveC(image []byte, view View, drive string, workers int, t *InternTable) (*ColumnarSnapshot, error) {
	raw, stats, err := ntfs.RawScanParallel(image, workers)
	if err != nil {
		return nil, fmt.Errorf("core: raw MFT scan: %w", err)
	}
	bld := NewColumnarBuilder(t, KindFiles, view, len(raw))
	snap := bld.Build() // placeholder; rebuilt below once rows are added
	// On a damaged MFT, parent chains may be severed: an entry that looks
	// orphaned could be an innocent file whose ancestor record was lost.
	// Its reconstructed \$OrphanFiles path would differ from the
	// high-level view and surface as a false positive, so a scan that saw
	// corrupt records drops orphan entries and counts them (plus the
	// corrupt records themselves) as skipped. On an undamaged MFT, orphan
	// entries are kept: rootkit orphan-hiding must stay detectable.
	dropOrphans := stats.CorruptRecords > 0
	skipped := stats.CorruptRecords
	var idBuf, dispBuf, detBuf []byte
	for _, e := range raw {
		if dropOrphans && e.Orphan {
			skipped++
			continue
		}
		dispBuf = append(dispBuf[:0], drive...)
		dispBuf = append(dispBuf, e.Path...)
		full := t.InternStrBytes(dispBuf)
		detBuf = strconv.AppendUint(detBuf[:0], e.Size, 10)
		detBuf = append(detBuf, " bytes, MFT record "...)
		detBuf = strconv.AppendUint(detBuf, uint64(e.Record), 10)
		if e.Orphan {
			detBuf = append(detBuf, " (orphaned parent chain)"...)
		}
		var sym Sym
		sym, idBuf = internFileID(t, idBuf, full)
		bld.AddRow(sym, full, t.InternStrBytes(detBuf))
	}
	snap = bld.Build()
	snap.Skipped = skipped
	return snap, nil
}

// ScanFilesImage is the outside-the-box file scan over a disk image
// obtained from a clean environment (WinPE boot or a powered-down VM's
// virtual disk), built over the table the inside scan used.
func ScanFilesImage(image []byte, view View, clock *vtime.Clock, p machine.Profile, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clock)
	snap, err := scanImageC(image, view, 1, t)
	if err != nil {
		return nil, err
	}
	chargeRawMFTRead(clock, p, snap.Len())
	snap.Taken = clock.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// --- ASEP hook scans ----------------------------------------------------------

// ScanASEPHighC collects ASEP hooks through the Win32 Registry chain
// (what RegEdit shows).
func ScanASEPHighC(m *machine.Machine, call *winapi.Call, t *InternTable) (*ColumnarSnapshot, error) {
	clk := clockFor(m, call)
	sw := vtime.NewStopwatch(clk)
	// CollectHooks treats a failed query as "key absent from this view"
	// and keeps going — correct for genuinely missing keys, but an
	// injected API fault swallowed that way would silently shrink the
	// high view and fabricate cross-view differences. Capture the
	// sentinel and fail the whole unit loudly instead.
	var injected error
	q := func(keyPath string) (registry.KeyView, error) {
		ks, err := m.API.QueryKeyWin32(call, keyPath)
		if err != nil {
			if injected == nil && errors.Is(err, winapi.ErrInjectedFault) {
				injected = err
			}
			return registry.KeyView{}, err
		}
		return keySnapshotToView(ks), nil
	}
	hooks, err := registry.CollectHooks(q, registry.StandardASEPs())
	if err == nil {
		err = injected
	}
	if err != nil {
		return nil, fmt.Errorf("core: high-level ASEP scan: %w", err)
	}
	bld := NewColumnarBuilder(t, KindASEPHooks, ViewWin32Inside, len(hooks))
	for _, h := range hooks {
		bld.Add(h.ID(), h.String(), h.ASEP)
	}
	snap := bld.Build()
	clk.ChargeOps(int64(float64(len(hooks))*m.Profile.RepRegFactor()),
		time.Duration(float64(costPerRepKeyHigh)*m.Profile.CPUScale()))
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

func keySnapshotToView(ks winapi.KeySnapshot) registry.KeyView {
	view := registry.KeyView{Subkeys: ks.Subkeys}
	for _, v := range ks.Values {
		view.Values = append(view.Values, registry.ValueView{
			Name: v.Name,
			Data: win32DataString(v),
		})
	}
	return view
}

// win32DataString renders value data under Win32 semantics: REG_SZ and
// REG_EXPAND_SZ strings terminate at the first NUL. Raw hive parsing
// reads the full counted data instead — the asymmetry behind the
// paper's one Registry false positive (§3: corrupted AppInit_DLLs data
// "did not show up in RegEdit, but appeared in the raw hive parsing").
func win32DataString(v winapi.KeyValue) string {
	s := hive.Value{Name: v.Name, Type: v.Type, Data: v.Data}.String()
	if v.Type == hive.RegSZ || v.Type == hive.RegExpandSZ {
		if i := strings.IndexByte(s, 0); i >= 0 {
			return s[:i]
		}
	}
	return s
}

// ScanASEPLowC collects ASEP hooks by copying each mounted hive file and
// parsing it directly — "truth approximation" (paper §3), since
// sufficiently privileged ghostware could interfere with the copy. It
// charges clk. Each hive is snapshot-copied under its own lock, so the
// offline parse is immune to concurrent Registry commits.
func ScanASEPLowC(m *machine.Machine, clk *vtime.Clock, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clk)
	images := map[string][]byte{}
	for _, root := range m.Reg.Roots() {
		h, ok := m.Reg.HiveAt(root)
		if !ok {
			continue
		}
		images[root] = h.Snapshot()
	}
	snap, parsed, err := scanASEPImagesC(images, ViewRawHive, t)
	if err != nil {
		return nil, err
	}
	// The low-level pass walks every cell of every hive; parsing is
	// CPU-bound, so the charge scales with the machine's CPU speed.
	perKey := time.Duration(float64(costPerRepKeyParse) * m.Profile.CPUScale())
	clk.ChargeOps(int64(float64(parsed)*m.Profile.RepRegFactor()), perKey)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// scanASEPImagesC parses hive images (root path -> file bytes) and
// collects ASEP hooks from the recovered trees. Used by the inside
// low-level scan and by the WinPE outside scan (which mounts the same
// files under a clean OS). The hive values are parsed zero-copy over
// the image bytes (hive.ParseBorrowed): every retained string is built
// here, so nothing borrowed escapes.
func scanASEPImagesC(images map[string][]byte, view View, t *InternTable) (*ColumnarSnapshot, int, error) {
	parsedKeys := 0
	// Recover each hive tree into a path-indexed map.
	type parsedHive struct {
		keys map[string]registry.KeyView // upper-cased hive-relative path
	}
	trees := map[string]parsedHive{} // upper-cased root
	for root, img := range images {
		raw, stats, err := hive.ParseBorrowed(img)
		if err != nil {
			return nil, 0, fmt.Errorf("core: parsing hive %s: %w", root, err)
		}
		parsedKeys += stats.KeysParsed
		ph := parsedHive{keys: make(map[string]registry.KeyView, len(raw)+1)}
		totalValues := 0
		for _, k := range raw {
			totalValues += len(k.Values)
		}
		// One value slab for the whole hive; each key's Values is a
		// capacity-clipped window into it, so building the tree costs one
		// allocation instead of one per value.
		slab := make([]registry.ValueView, 0, totalValues)
		for _, k := range raw {
			lo := len(slab)
			for _, v := range k.Values {
				slab = append(slab, registry.ValueView{Name: v.Name, Data: v.String()})
			}
			view := registry.KeyView{}
			if len(slab) > lo {
				view.Values = slab[lo:len(slab):len(slab)]
			}
			ph.keys[strings.ToUpper(k.Path)] = view
		}
		// Fill in subkey lists from the path structure: collect
		// (parent, name) edges, sort once, then write each parent's
		// fully-built subkey list with a single map store — the previous
		// per-path read-modify-write re-hashed every parent once per child
		// and re-sorted every key.
		type edge struct{ parent, name string }
		edges := make([]edge, 0, len(ph.keys))
		for path := range ph.keys {
			if path == "" {
				continue
			}
			parent := ""
			name := path
			if i := strings.LastIndexByte(path, '\\'); i >= 0 {
				parent, name = path[:i], path[i+1:]
			}
			edges = append(edges, edge{parent, name})
		}
		slices.SortFunc(edges, func(a, b edge) int {
			if a.parent != b.parent {
				return strings.Compare(a.parent, b.parent)
			}
			return strings.Compare(a.name, b.name)
		})
		names := make([]string, 0, len(edges))
		for _, e := range edges {
			names = append(names, e.name)
		}
		for lo := 0; lo < len(edges); {
			hi := lo + 1
			for hi < len(edges) && edges[hi].parent == edges[lo].parent {
				hi++
			}
			// Parents that only exist as path prefixes (no cell of their
			// own) are synthesized here, exactly as the map read on a
			// missing key used to do.
			pv := ph.keys[edges[lo].parent]
			pv.Subkeys = names[lo:hi:hi]
			ph.keys[edges[lo].parent] = pv
			lo = hi
		}
		trees[strings.ToUpper(root)] = ph
	}
	q := func(keyPath string) (registry.KeyView, error) {
		up := strings.ToUpper(keyPath)
		for root, ph := range trees {
			if up == root {
				return ph.keys[""], nil
			}
			if strings.HasPrefix(up, root+`\`) {
				rel := up[len(root)+1:]
				if kv, ok := ph.keys[rel]; ok {
					return kv, nil
				}
				return registry.KeyView{}, fmt.Errorf("core: key %s not in parsed hive", keyPath)
			}
		}
		return registry.KeyView{}, fmt.Errorf("core: no hive image covers %s", keyPath)
	}
	hooks, err := registry.CollectHooks(q, registry.StandardASEPs())
	if err != nil {
		return nil, 0, err
	}
	bld := NewColumnarBuilder(t, KindASEPHooks, view, len(hooks))
	for _, h := range hooks {
		bld.Add(h.ID(), h.String(), h.ASEP)
	}
	return bld.Build(), parsedKeys, nil
}

// ScanASEPImages is the outside-the-box ASEP scan over hive files read
// from the system drive under a clean OS, built over the table the
// inside scan used.
func ScanASEPImages(images map[string][]byte, view View, clock *vtime.Clock, p machine.Profile, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clock)
	snap, parsed, err := scanASEPImagesC(images, view, t)
	if err != nil {
		return nil, err
	}
	clock.ChargeOps(int64(float64(parsed)*p.RepRegFactor()), costPerRepKeyParse)
	snap.Taken = clock.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// --- process scans --------------------------------------------------------------

// ScanProcsHighC lists processes through the full API chain (what Task
// Manager and tlist see).
func ScanProcsHighC(m *machine.Machine, call *winapi.Call, t *InternTable) (*ColumnarSnapshot, error) {
	clk := clockFor(m, call)
	sw := vtime.NewStopwatch(clk)
	procs, err := m.API.EnumProcessesWin32(call)
	if err != nil {
		return nil, fmt.Errorf("core: high-level process scan: %w", err)
	}
	bld := NewColumnarBuilder(t, KindProcesses, ViewWin32Inside, len(procs))
	var idBuf, dispBuf []byte
	for _, p := range procs {
		idBuf = appendPidUpperID(idBuf, p.Pid, p.Name)
		dispBuf = appendProcDisplay(dispBuf, p.Name, p.Pid)
		bld.AddRow(t.InternBytes(idBuf), t.InternStrBytes(dispBuf), p.Path)
	}
	snap := bld.Build()
	clk.ChargeOps(int64(len(procs)), costPerProcess/8)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// scanProcsLowC traverses kernel structures directly via a driver. In
// normal mode it walks the Active Process List (sufficient for
// API-intercepting ghostware); in advanced mode it walks the CID table,
// which also exposes DKOM-hidden processes.
func scanProcsLowC(m *machine.Machine, advanced bool, clk *vtime.Clock, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clk)
	view := ViewKernelAPL
	walker := kernel.WalkActiveProcessList
	if advanced {
		view = ViewKernelCID
		walker = kernel.WalkCidProcesses
	}
	procs, err := walker(m.Kern.ScanMem(), m.Kern.Layout())
	if err != nil {
		return nil, fmt.Errorf("core: low-level process scan: %w", err)
	}
	snap := buildProcSnapshot(t, view, procs)
	clk.ChargeOps(int64(len(procs)), costPerProcess)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// ScanProcsFromDump applies the same traversal to a crash-dump memory
// image (the paper's outside-the-box scan for volatile state).
func ScanProcsFromDump(mem kmem.Reader, layout kernel.Layout, advanced bool, t *InternTable) (*ColumnarSnapshot, error) {
	walker := kernel.WalkActiveProcessList
	if advanced {
		walker = kernel.WalkCidProcesses
	}
	procs, err := walker(mem, layout)
	if err != nil {
		return nil, fmt.Errorf("core: crash-dump process scan: %w", err)
	}
	return buildProcSnapshot(t, ViewCrashDump, procs), nil
}

// buildProcSnapshot shapes process rows — every process view, live,
// carved or dumped, goes through here, so the views diff cleanly
// against each other. Exited processes are skipped.
func buildProcSnapshot(t *InternTable, view View, procs []kernel.ProcView) *ColumnarSnapshot {
	bld := NewColumnarBuilder(t, KindProcesses, view, len(procs))
	var idBuf, dispBuf []byte
	for _, p := range procs {
		if p.Exited {
			continue
		}
		idBuf = appendPidUpperID(idBuf, p.Pid, p.Name)
		dispBuf = appendProcDisplay(dispBuf, p.Name, p.Pid)
		bld.AddRow(t.InternBytes(idBuf), t.InternStrBytes(dispBuf), p.ImagePath)
	}
	return bld.Build()
}

// --- module scans ----------------------------------------------------------------

// ScanModsHighC enumerates the modules of every process on the given
// pid list through the API chain. Pids whose enumeration fails (the
// process may have exited mid-scan) are skipped and counted in
// snap.Skipped, so a sweep that lost half its processes is
// distinguishable from a clean one.
func ScanModsHighC(m *machine.Machine, call *winapi.Call, pids []uint64, t *InternTable) (*ColumnarSnapshot, error) {
	clk := clockFor(m, call)
	sw := vtime.NewStopwatch(clk)
	bld := NewColumnarBuilder(t, KindModules, ViewWin32Inside, 0)
	skipped := 0
	total := 0
	var idBuf, dispBuf, detBuf []byte
	for _, pid := range pids {
		mods, err := m.API.EnumModulesWin32(call, pid)
		if err != nil {
			// An injected fault must fail the unit, not shrink the high
			// view: a silently dropped pid's modules would all surface as
			// cross-view differences.
			if errors.Is(err, winapi.ErrInjectedFault) {
				return nil, fmt.Errorf("core: high-level module scan: %w", err)
			}
			skipped++
			continue
		}
		for _, mod := range mods {
			idBuf = appendPidUpperID(idBuf, pid, mod.Path)
			dispBuf = appendModDisplay(dispBuf, pid, mod.Path)
			detBuf = appendBaseDetail(detBuf, mod.Base)
			bld.AddRow(t.InternBytes(idBuf), t.InternStrBytes(dispBuf), t.InternStrBytes(detBuf))
			total++
		}
	}
	snap := bld.Build()
	snap.Skipped = skipped
	clk.ChargeOps(int64(total), costPerModule)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// scanModsLowC extracts the module truth for the same pids from the
// kernel's VAD image lists. Unreadable pids are skipped and counted,
// mirroring ScanModsHighC.
func scanModsLowC(m *machine.Machine, pids []uint64, clk *vtime.Clock, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clk)
	bld := NewColumnarBuilder(t, KindModules, ViewKernelVAD, 0)
	skipped := 0
	total := 0
	var idBuf, dispBuf, detBuf []byte
	for _, pid := range pids {
		mods, err := m.Kern.ModulesTruth(pid)
		if err != nil {
			skipped++
			continue
		}
		for _, mod := range mods {
			idBuf = appendPidUpperID(idBuf, pid, mod.Path)
			dispBuf = appendModDisplay(dispBuf, pid, mod.Path)
			detBuf = appendBaseDetail(detBuf, mod.Base)
			bld.AddRow(t.InternBytes(idBuf), t.InternStrBytes(dispBuf), t.InternStrBytes(detBuf))
			total++
		}
	}
	snap := bld.Build()
	snap.Skipped = skipped
	clk.ChargeOps(int64(total), costPerModule)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// ModuleBuilder shapes module rows the way the module scanners do, for
// a truth view assembled outside core (the crash-dump VAD walk).
type ModuleBuilder struct {
	bld                    *ColumnarBuilder
	idBuf, dispBuf, detBuf []byte
}

// NewModuleBuilder starts a module snapshot of the given view over t.
func NewModuleBuilder(t *InternTable, view View) *ModuleBuilder {
	return &ModuleBuilder{bld: NewColumnarBuilder(t, KindModules, view, 0)}
}

// Add records one module occurrence.
func (b *ModuleBuilder) Add(pid uint64, path string, base uint64) {
	t := b.bld.table
	b.idBuf = appendPidUpperID(b.idBuf, pid, path)
	b.dispBuf = appendModDisplay(b.dispBuf, pid, path)
	b.detBuf = appendBaseDetail(b.detBuf, base)
	b.bld.AddRow(t.InternBytes(b.idBuf), t.InternStrBytes(b.dispBuf), t.InternStrBytes(b.detBuf))
}

// Build sorts the recorded modules into a columnar snapshot.
func (b *ModuleBuilder) Build() *ColumnarSnapshot { return b.bld.Build() }

// TruthPids returns the pid set from the advanced (CID) view — the pid
// list GhostBuster feeds to the module scans so that modules of hidden
// processes are covered too.
func TruthPids(m *machine.Machine) ([]uint64, error) {
	procs, err := kernel.WalkCidProcesses(m.Kern.ScanMem(), m.Kern.Layout())
	if err != nil {
		return nil, err
	}
	pids := make([]uint64, 0, len(procs))
	for _, p := range procs {
		pids = append(pids, p.Pid)
	}
	return pids, nil
}

// --- map-form adapters ------------------------------------------------------------

// The map-form scanners below run their columnar scan over a fresh
// intern table and materialize the map-backed Snapshot. They exist only
// because bench/layers.go times each scan through these names; no
// detection path calls them.

// ScanFilesHigh is ScanFilesHighC in map form.
func ScanFilesHigh(m *machine.Machine, call *winapi.Call) (*Snapshot, error) {
	return mapForm(ScanFilesHighC(m, call, NewInternTable()))
}

// ScanFilesLow is ScanFilesLowC on the machine clock, in map form.
func ScanFilesLow(m *machine.Machine) (*Snapshot, error) {
	return mapForm(ScanFilesLowC(m, m.Clock, 1, NewInternTable()))
}

// ScanASEPHigh is ScanASEPHighC in map form.
func ScanASEPHigh(m *machine.Machine, call *winapi.Call) (*Snapshot, error) {
	return mapForm(ScanASEPHighC(m, call, NewInternTable()))
}

// ScanProcsHigh is ScanProcsHighC in map form.
func ScanProcsHigh(m *machine.Machine, call *winapi.Call) (*Snapshot, error) {
	return mapForm(ScanProcsHighC(m, call, NewInternTable()))
}

// ScanProcsLow is the low-level process scan on the machine clock, in
// map form.
func ScanProcsLow(m *machine.Machine, advanced bool) (*Snapshot, error) {
	return mapForm(scanProcsLowC(m, advanced, m.Clock, NewInternTable()))
}

// ScanModsHigh is ScanModsHighC in map form.
func ScanModsHigh(m *machine.Machine, call *winapi.Call, pids []uint64) (*Snapshot, error) {
	return mapForm(ScanModsHighC(m, call, pids, NewInternTable()))
}

// ScanModsLow is the low-level module scan on the machine clock, in map
// form.
func ScanModsLow(m *machine.Machine, pids []uint64) (*Snapshot, error) {
	return mapForm(scanModsLowC(m, pids, m.Clock, NewInternTable()))
}

func mapForm(c *ColumnarSnapshot, err error) (*Snapshot, error) {
	if err != nil {
		return nil, err
	}
	return c.Snapshot(), nil
}
