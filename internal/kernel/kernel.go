package kernel

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"ghostbuster/internal/kmem"
)

// SystemPid is the pid of the always-present System process, as on NT.
const SystemPid = 4

const cidCapacity = 4096

// ErrNoSuchProcess reports a pid that is not in the CID table.
var ErrNoSuchProcess = errors.New("kernel: no such process")

// ErrNoSuchModule reports a module lookup miss.
var ErrNoSuchModule = errors.New("kernel: no such module")

// Kernel owns the arena and the global structure addresses, and provides
// the mutation operations an OS performs: process/thread creation and
// exit, module load, driver load. Truth about what exists lives in the
// arena; the maps here are only an id convenience index (the CID table
// in arena memory is the authoritative id mapping).
//
// Mutators serialize on an internal lock so id allocation and compound
// structure updates stay consistent, and write the arena one access at a
// time. Every read-only walk runs inside one arena View: one read lock
// per walk, so concurrent traversal is memory-safe and never sees a torn
// word, though it can see a compound DKOM update half done between two
// of its writes.
type Kernel struct {
	Mem     *kmem.Arena
	mu      sync.Mutex // guards mutators and the id allocators below
	layout  Layout
	nextPid uint64
	nextTid uint64
	nextVA  uint64 // fake image base allocator for modules

	faultMu sync.RWMutex
	fault   ScanFault
}

// ScanFault is a fault-injection hook over scanner-facing kernel-memory
// access: cross-view scan reads (WithScanMem) and crash-dump images
// (DumpImage). The OS's own structure walks use the raw arena and are
// never faulted — the kernel does not fail against itself.
type ScanFault interface {
	// WrapReader interposes on the scan reads of one walk over mem, a
	// borrowed arena View; the wrapper must not outlive the walk.
	WrapReader(mem *kmem.ImageReader) kmem.Reader
	// CorruptDump may return a damaged replacement for a dump image
	// copy, or nil to leave it clean. It must not modify img in place
	// beyond returning it.
	CorruptDump(img []byte) []byte
}

// SetScanFault installs (or, with nil, removes) the scan fault hook.
func (k *Kernel) SetScanFault(f ScanFault) {
	k.faultMu.Lock()
	defer k.faultMu.Unlock()
	k.fault = f
}

func (k *Kernel) scanFault() ScanFault {
	k.faultMu.RLock()
	defer k.faultMu.RUnlock()
	return k.fault
}

// WithScanMem runs fn with the kernel-memory reader cross-view scanners
// must use — one View of the arena, wrapped by the scan fault hook when
// one is armed — and the arena's allocated size, the bound of a pool
// carve. Both describe the same image. The reader must not escape fn.
func (k *Kernel) WithScanMem(fn func(mem kmem.Reader, size int) error) error {
	return k.scanView(func(raw *kmem.ImageReader, scan kmem.Reader) error {
		return fn(scan, raw.Size())
	})
}

// scanView runs fn inside one arena View with both the raw reader (for
// the kernel's own lookups, never faulted) and the scan reader.
func (k *Kernel) scanView(fn func(raw *kmem.ImageReader, scan kmem.Reader) error) error {
	f := k.scanFault()
	return k.Mem.View(func(raw *kmem.ImageReader) error {
		if f != nil {
			return fn(raw, f.WrapReader(raw))
		}
		return fn(raw, raw)
	})
}

// DumpImage returns a crash-dump memory image: a snapshot of the arena,
// passed through the scan fault hook when one is armed.
func (k *Kernel) DumpImage() []byte {
	img := k.Mem.Snapshot()
	if f := k.scanFault(); f != nil {
		if c := f.CorruptDump(img); c != nil {
			img = c
		}
	}
	return img
}

// New boots a kernel: allocates the global lists and the System process.
func New() (*Kernel, error) {
	a := kmem.New()
	k := &Kernel{Mem: a, nextPid: SystemPid, nextTid: 100, nextVA: 0x10000000}
	k.layout.ActiveProcessHead = a.Alloc(kmem.ListEntrySize)
	k.layout.LoadedModuleHead = a.Alloc(kmem.ListEntrySize)
	if err := a.ListInit(k.layout.ActiveProcessHead); err != nil {
		return nil, err
	}
	if err := a.ListInit(k.layout.LoadedModuleHead); err != nil {
		return nil, err
	}
	k.layout.CidTable = a.Alloc(cidHdrSize + cidCapacity*cidSlotSize)
	if err := a.WriteU64(k.layout.CidTable+cidHdrCapacity, cidCapacity); err != nil {
		return nil, err
	}
	if _, err := k.createProcess("System", "", 0); err != nil {
		return nil, err
	}
	return k, nil
}

// Layout returns the global structure addresses (stored in crash dumps).
func (k *Kernel) Layout() Layout { return k.layout }

func (k *Kernel) writeStringCell(s string) (uint64, error) {
	addr := k.Mem.Alloc(4 + len(s))
	if err := k.Mem.WriteU32(addr, uint32(len(s))); err != nil {
		return 0, err
	}
	if err := k.Mem.WriteBytes(addr+4, []byte(s)); err != nil {
		return 0, err
	}
	return addr, nil
}

func (k *Kernel) cidInsert(id, obj, typ uint64) error {
	for i := uint64(0); i < cidCapacity; i++ {
		slot := k.layout.CidTable + cidHdrSize + i*cidSlotSize
		t, err := k.Mem.ReadU64(slot + cidSlotType)
		if err != nil {
			return err
		}
		if t == CidFree {
			if err := k.Mem.WriteU64(slot+cidSlotID, id); err != nil {
				return err
			}
			if err := k.Mem.WriteU64(slot+cidSlotObj, obj); err != nil {
				return err
			}
			return k.Mem.WriteU64(slot+cidSlotType, typ)
		}
	}
	return fmt.Errorf("kernel: CID table full")
}

func (k *Kernel) cidRemove(id, typ uint64) error {
	for i := uint64(0); i < cidCapacity; i++ {
		slot := k.layout.CidTable + cidHdrSize + i*cidSlotSize
		t, err := k.Mem.ReadU64(slot + cidSlotType)
		if err != nil {
			return err
		}
		if t != typ {
			continue
		}
		sid, err := k.Mem.ReadU64(slot + cidSlotID)
		if err != nil {
			return err
		}
		if sid == id {
			return k.Mem.WriteU64(slot+cidSlotType, CidFree)
		}
	}
	return nil
}

// EprocessByPid resolves a pid to its EPROCESS address via the CID
// table, so it finds processes even after DKOM unlinked them from the
// Active Process List.
func (k *Kernel) EprocessByPid(pid uint64) (eproc uint64, err error) {
	err = k.Mem.View(func(r *kmem.ImageReader) error {
		eproc, err = k.eprocessByPid(r, pid)
		return err
	})
	return eproc, err
}

func (k *Kernel) eprocessByPid(r kmem.Reader, pid uint64) (uint64, error) {
	for i := uint64(0); i < cidCapacity; i++ {
		slot := k.layout.CidTable + cidHdrSize + i*cidSlotSize
		t, err := r.ReadU64(slot + cidSlotType)
		if err != nil {
			return 0, err
		}
		if t != CidProcess {
			continue
		}
		id, err := r.ReadU64(slot + cidSlotID)
		if err != nil {
			return 0, err
		}
		if id == pid {
			return r.ReadU64(slot + cidSlotObj)
		}
	}
	return 0, fmt.Errorf("%w: pid %d", ErrNoSuchProcess, pid)
}

// CreateProcess allocates and links a new process with one initial
// thread and the standard module list (its own image, ntdll, kernel32).
// It returns the new pid.
func (k *Kernel) CreateProcess(name, imagePath string, parent uint64) (uint64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.createProcess(name, imagePath, parent)
}

func (k *Kernel) createProcess(name, imagePath string, parent uint64) (uint64, error) {
	pid := k.nextPid
	k.nextPid += 4 // NT pids are multiples of 4
	eproc := k.Mem.Alloc(EprocSize)
	if err := k.Mem.WriteU64(eproc+EprocPid, pid); err != nil {
		return 0, err
	}
	if err := k.Mem.WriteCString(eproc+EprocImageName, name, eprocNameCap); err != nil {
		return 0, err
	}
	if err := k.Mem.WriteU64(eproc+EprocParentPid, parent); err != nil {
		return 0, err
	}
	pathCell, err := k.writeStringCell(imagePath)
	if err != nil {
		return 0, err
	}
	if err := k.Mem.WriteU64(eproc+EprocImagePath, pathCell); err != nil {
		return 0, err
	}
	if err := k.Mem.ListInit(eproc + EprocLdrHead); err != nil {
		return 0, err
	}
	if err := k.Mem.ListInit(eproc + EprocThreadHead); err != nil {
		return 0, err
	}
	if err := k.Mem.ListInit(eproc + EprocVadHead); err != nil {
		return 0, err
	}
	// Tag the object only once every field a carve decodes is set, so a
	// concurrent pool-tag carve never reads a half-built EPROCESS.
	if err := k.Mem.WriteU32(eproc+EprocPoolTag, PoolTagProc); err != nil {
		return 0, err
	}
	if err := k.Mem.ListInsertTail(k.layout.ActiveProcessHead, eproc+EprocActiveLinks); err != nil {
		return 0, err
	}
	if err := k.cidInsert(pid, eproc, CidProcess); err != nil {
		return 0, err
	}
	if _, err := k.createThread(pid); err != nil {
		return 0, err
	}
	if imagePath != "" {
		if _, err := k.loadModule(pid, imagePath); err != nil {
			return 0, err
		}
		for _, dll := range []string{`C:\WINDOWS\system32\ntdll.dll`, `C:\WINDOWS\system32\kernel32.dll`} {
			if _, err := k.loadModule(pid, dll); err != nil {
				return 0, err
			}
		}
	}
	return pid, nil
}

// CreateThread adds a schedulable thread to an existing process.
func (k *Kernel) CreateThread(pid uint64) (uint64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.createThread(pid)
}

func (k *Kernel) createThread(pid uint64) (uint64, error) {
	eproc, err := k.EprocessByPid(pid)
	if err != nil {
		return 0, err
	}
	tid := k.nextTid
	k.nextTid += 4
	eth := k.Mem.Alloc(EthreadSize)
	if err := k.Mem.WriteU64(eth+EthreadTid, tid); err != nil {
		return 0, err
	}
	if err := k.Mem.WriteU64(eth+EthreadOwner, eproc); err != nil {
		return 0, err
	}
	if err := k.Mem.ListInsertTail(eproc+EprocThreadHead, eth+EthreadListEntry); err != nil {
		return 0, err
	}
	if err := k.cidInsert(tid, eth, CidThread); err != nil {
		return 0, err
	}
	return tid, nil
}

// ExitProcess terminates a process: its threads leave the CID table and
// the thread list, and the EPROCESS is unlinked and marked exited. The
// object memory itself remains in the arena (kernel pool residue).
func (k *Kernel) ExitProcess(pid uint64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if pid == SystemPid {
		return fmt.Errorf("kernel: refusing to exit the System process")
	}
	eproc, err := k.EprocessByPid(pid)
	if err != nil {
		return err
	}
	threads, err := k.Mem.ListWalk(eproc+EprocThreadHead, maxWalk)
	if err != nil {
		return err
	}
	for _, t := range threads {
		eth := t - EthreadListEntry
		tid, err := k.Mem.ReadU64(eth + EthreadTid)
		if err != nil {
			return err
		}
		if err := k.cidRemove(tid, CidThread); err != nil {
			return err
		}
		if err := k.Mem.ListRemove(t); err != nil {
			return err
		}
	}
	// Unlink from the active list. The entry may already be unlinked by
	// DKOM; ListRemove on a self-linked entry is a harmless no-op.
	if err := k.Mem.ListRemove(eproc + EprocActiveLinks); err != nil {
		return err
	}
	if err := k.cidRemove(pid, CidProcess); err != nil {
		return err
	}
	// Clear the pool tag so memory carving never resurrects freed
	// residue, then mark the object exited.
	if err := k.Mem.WriteU32(eproc+EprocPoolTag, 0); err != nil {
		return err
	}
	return k.Mem.WriteU64(eproc+EprocFlags, flagsExited)
}

// ConcealProcess is the memory-only hiding primitive: it unlinks a live
// process from the Active Process List AND retires its CID entries
// (process and threads), so neither the normal nor the advanced
// process walk can see it. The threads stay on the process's own thread
// list and the object keeps its pool tag and live flags — the process
// is still running, and only a pool-tag carve of kernel memory (or a
// crash dump) finds it. Removing the thread CID entries together with
// the process entry keeps the table self-consistent: WalkCidProcesses
// treats a thread whose owner is absent as corruption and fails loudly.
func (k *Kernel) ConcealProcess(pid uint64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if pid == SystemPid {
		return fmt.Errorf("kernel: refusing to conceal the System process")
	}
	eproc, err := k.EprocessByPid(pid)
	if err != nil {
		return err
	}
	threads, err := k.Mem.ListWalk(eproc+EprocThreadHead, maxWalk)
	if err != nil {
		return err
	}
	for _, t := range threads {
		eth := t - EthreadListEntry
		tid, err := k.Mem.ReadU64(eth + EthreadTid)
		if err != nil {
			return err
		}
		if err := k.cidRemove(tid, CidThread); err != nil {
			return err
		}
	}
	if err := k.Mem.ListRemove(eproc + EprocActiveLinks); err != nil {
		return err
	}
	return k.cidRemove(pid, CidProcess)
}

// LoadModule maps a module into a process: it appends an entry to the
// PEB module list (what the APIs read) and a matching entry to the VAD
// image list (the kernel's truth). Each entry owns its own name cell, so
// blanking one does not affect the other. Returns the LDR entry address.
func (k *Kernel) LoadModule(pid uint64, path string) (uint64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.loadModule(pid, path)
}

func (k *Kernel) loadModule(pid uint64, path string) (uint64, error) {
	eproc, err := k.EprocessByPid(pid)
	if err != nil {
		return 0, err
	}
	base := k.nextVA
	k.nextVA += 0x100000
	ldr, err := k.newModEntry(path, base, 0x10000)
	if err != nil {
		return 0, err
	}
	if err := k.Mem.ListInsertTail(eproc+EprocLdrHead, ldr+LdrLinks); err != nil {
		return 0, err
	}
	vad, err := k.newModEntry(path, base, 0x10000)
	if err != nil {
		return 0, err
	}
	if err := k.Mem.ListInsertTail(eproc+EprocVadHead, vad+LdrLinks); err != nil {
		return 0, err
	}
	return ldr, nil
}

// newModEntry allocates one LDR-style entry with its own name cell.
func (k *Kernel) newModEntry(path string, base, size uint64) (uint64, error) {
	entry := k.Mem.Alloc(LdrEntrySz)
	if err := k.Mem.WriteU64(entry+LdrBase, base); err != nil {
		return 0, err
	}
	if err := k.Mem.WriteU64(entry+LdrSize, size); err != nil {
		return 0, err
	}
	nameCell, err := k.writeStringCell(path)
	if err != nil {
		return 0, err
	}
	if err := k.Mem.WriteU64(entry+LdrNamePtr, nameCell); err != nil {
		return 0, err
	}
	return entry, nil
}

// ModulesTruth returns the VAD image list of a process — the low-level
// module view. The pid lookup reads the raw arena; only the VAD walk is
// a scan read.
func (k *Kernel) ModulesTruth(pid uint64) (mods []ModView, err error) {
	err = k.scanView(func(raw *kmem.ImageReader, scan kmem.Reader) error {
		eproc, err := k.eprocessByPid(raw, pid)
		if err != nil {
			return err
		}
		mods, err = ProcessVadImages(scan, eproc)
		return err
	})
	return mods, err
}

// LoadDriver appends a driver to the system module list.
func (k *Kernel) LoadDriver(path string) (uint64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	entry := k.Mem.Alloc(LdrEntrySz)
	base := k.nextVA
	k.nextVA += 0x100000
	if err := k.Mem.WriteU64(entry+LdrBase, base); err != nil {
		return 0, err
	}
	if err := k.Mem.WriteU64(entry+LdrSize, 0x8000); err != nil {
		return 0, err
	}
	nameCell, err := k.writeStringCell(path)
	if err != nil {
		return 0, err
	}
	if err := k.Mem.WriteU64(entry+LdrNamePtr, nameCell); err != nil {
		return 0, err
	}
	if err := k.Mem.ListInsertTail(k.layout.LoadedModuleHead, entry+LdrLinks); err != nil {
		return 0, err
	}
	return entry, nil
}

// UnloadDriver removes the driver whose path ends with name.
func (k *Kernel) UnloadDriver(name string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	mods, err := k.Drivers()
	if err != nil {
		return err
	}
	for _, m := range mods {
		if strings.EqualFold(baseName(m.Path), name) || strings.EqualFold(m.Path, name) {
			return k.Mem.ListRemove(m.Addr + LdrLinks)
		}
	}
	return fmt.Errorf("%w: driver %s", ErrNoSuchModule, name)
}

// FindModuleEntry locates a module LDR entry of a process by file name.
func (k *Kernel) FindModuleEntry(pid uint64, name string) (uint64, error) {
	mods, err := k.Modules(pid)
	if err != nil {
		return 0, err
	}
	for _, m := range mods {
		if strings.EqualFold(baseName(m.Path), name) {
			return m.Addr, nil
		}
	}
	return 0, fmt.Errorf("%w: %s in pid %d", ErrNoSuchModule, name, pid)
}

// BlankModuleName zeroes the name cell of a module entry — the Vanquish
// technique for hiding vanquish.dll from PEB-based module enumeration.
func (k *Kernel) BlankModuleName(entryAddr uint64) error {
	namePtr, err := k.Mem.ReadU64(entryAddr + LdrNamePtr)
	if err != nil {
		return err
	}
	if namePtr == 0 {
		return nil
	}
	return k.Mem.WriteU32(namePtr, 0)
}

// Processes returns the Active Process List view of the live kernel
// (what NtQuerySystemInformation's kernel handler reads).
func (k *Kernel) Processes() (procs []ProcView, err error) {
	err = k.Mem.View(func(r *kmem.ImageReader) error {
		procs, err = WalkActiveProcessList(r, k.layout)
		return err
	})
	return procs, err
}

// ProcessesAdvanced returns the CID-table view (advanced mode).
func (k *Kernel) ProcessesAdvanced() (procs []ProcView, err error) {
	err = k.Mem.View(func(r *kmem.ImageReader) error {
		procs, err = WalkCidProcesses(r, k.layout)
		return err
	})
	return procs, err
}

// Modules returns the module list of a process.
func (k *Kernel) Modules(pid uint64) (mods []ModView, err error) {
	err = k.Mem.View(func(r *kmem.ImageReader) error {
		eproc, err := k.eprocessByPid(r, pid)
		if err != nil {
			return err
		}
		mods, err = ProcessModules(r, eproc)
		return err
	})
	return mods, err
}

// Drivers returns the system driver list.
func (k *Kernel) Drivers() (mods []ModView, err error) {
	err = k.Mem.View(func(r *kmem.ImageReader) error {
		mods, err = WalkDrivers(r, k.layout)
		return err
	})
	return mods, err
}

// PidByName returns the pid of the first live process with the given
// image name (via the CID table, so DKOM-hidden processes resolve too).
func (k *Kernel) PidByName(name string) (uint64, error) {
	procs, err := k.ProcessesAdvanced()
	if err != nil {
		return 0, err
	}
	for _, p := range procs {
		if strings.EqualFold(p.Name, name) && !p.Exited {
			return p.Pid, nil
		}
	}
	return 0, fmt.Errorf("%w: %s", ErrNoSuchProcess, name)
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '\\'); i >= 0 {
		return path[i+1:]
	}
	return path
}
