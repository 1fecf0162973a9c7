// Package kernel simulates the NT kernel's process, thread, module and
// driver bookkeeping on top of a kmem arena. Object structures are laid
// out in arena memory with real intrusive LIST_ENTRY links, so that:
//
//   - Direct Kernel Object Manipulation (the FU rootkit) is literal
//     pointer surgery that this package cannot "see through";
//   - the GhostBuster low-level scan is a traversal of the same bytes;
//   - a crash dump is a copy of the arena, and the same traversal code
//     runs against it offline (kmem.Reader abstracts live vs dump).
//
// Two kernel data structures track processes, mirroring the paper's
// normal and advanced low-level scan modes:
//
//   - PsActiveProcessHead, the doubly-linked Active Process List. This is
//     the "truth approximation": it exists to answer enumeration queries
//     and a process removed from it keeps running.
//   - the CID handle table (PspCidTable), which maps every process and
//     thread id to its object. The scheduler needs threads here, so a
//     process that owns at least one schedulable thread is visible via
//     this table even after DKOM unlinking.
package kernel

import (
	"fmt"
	"slices"

	"ghostbuster/internal/kmem"
)

// EPROCESS field offsets within an arena allocation.
const (
	EprocActiveLinks = 0x00 // LIST_ENTRY on the Active Process List
	EprocPid         = 0x10 // u64
	EprocImageName   = 0x18 // 32-byte NUL-padded short name
	EprocLdrHead     = 0x38 // LIST_ENTRY: head of the PEB module list
	EprocThreadHead  = 0x48 // LIST_ENTRY: head of the thread list
	EprocParentPid   = 0x58 // u64
	EprocFlags       = 0x60 // u64, bit 0 = exited
	EprocImagePath   = 0x68 // u64 pointer to a string cell (full path)
	EprocVadHead     = 0x70 // LIST_ENTRY: head of the VAD image list
	EprocPoolTag     = 0x80 // u32 'Proc' allocation tag (cleared on exit)
	EprocSize        = 0x88

	eprocNameCap = 32

	// PoolTagProc is the little-endian u32 of the ASCII bytes "Proc" —
	// the allocation tag every live EPROCESS carries, and the needle a
	// pool-carving scan sweeps the arena for. ExitProcess clears it, so
	// carving never resurrects freed pool residue.
	PoolTagProc uint32 = 0x636F7250
)

// ETHREAD field offsets.
const (
	EthreadListEntry = 0x00 // LIST_ENTRY on the owning process's thread list
	EthreadTid       = 0x10 // u64
	EthreadOwner     = 0x18 // u64: EPROCESS address
	EthreadState     = 0x20 // u64
	EthreadSize      = 0x28
)

// LDR_DATA_TABLE_ENTRY field offsets (used for both per-process modules
// and the system driver list).
const (
	LdrLinks    = 0x00 // LIST_ENTRY
	LdrBase     = 0x10 // u64
	LdrSize     = 0x18 // u64
	LdrNamePtr  = 0x20 // u64 pointer to a string cell
	LdrEntrySz  = 0x28
	flagsExited = 1
)

// CID table entry layout: fixed-capacity array of 24-byte slots.
const (
	cidHdrCapacity = 0x00 // u64
	cidHdrSize     = 0x10 // header bytes before slots
	cidSlotID      = 0x00
	cidSlotObj     = 0x08
	cidSlotType    = 0x10
	cidSlotSize    = 24

	// CID object types.
	CidFree    = 0
	CidProcess = 1
	CidThread  = 2
)

// Layout records the addresses of the kernel's global structures. A
// crash dump stores it in the dump header so offline analysis can find
// the lists.
type Layout struct {
	ActiveProcessHead uint64
	LoadedModuleHead  uint64
	CidTable          uint64
}

// maxWalk bounds list walks as corruption protection.
const maxWalk = 1 << 16

// stringCell: u32 byte length followed by the bytes. Stands in for the
// kernel's UNICODE_STRING. A zeroed length reads as the empty string —
// which is exactly how Vanquish "blanks out" a module pathname.
func readStringCell(r kmem.Reader, addr uint64) (string, error) {
	if addr == 0 {
		return "", nil
	}
	n, err := r.ReadU32(addr)
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	if n > 4096 {
		return "", fmt.Errorf("kernel: string cell at %#x has absurd length %d", addr, n)
	}
	b, err := r.ReadBytes(addr+4, int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ProcView is one process as seen by a kernel-structure traversal.
type ProcView struct {
	Addr      uint64
	Pid       uint64
	Name      string
	ImagePath string
	ParentPid uint64
	Exited    bool
	Threads   int
}

// ModView is one loaded module (or driver) from an LDR list.
type ModView struct {
	Addr uint64
	Base uint64
	Size uint64
	Path string // empty when the name cell has been blanked
}

// readProc decodes the EPROCESS at addr.
func readProc(r kmem.Reader, addr uint64) (ProcView, error) {
	var p ProcView
	p.Addr = addr
	var err error
	if p.Pid, err = r.ReadU64(addr + EprocPid); err != nil {
		return p, err
	}
	if p.Name, err = r.ReadCString(addr+EprocImageName, eprocNameCap); err != nil {
		return p, err
	}
	if p.ParentPid, err = r.ReadU64(addr + EprocParentPid); err != nil {
		return p, err
	}
	flags, err := r.ReadU64(addr + EprocFlags)
	if err != nil {
		return p, err
	}
	p.Exited = flags&flagsExited != 0
	pathPtr, err := r.ReadU64(addr + EprocImagePath)
	if err != nil {
		return p, err
	}
	if p.ImagePath, err = readStringCell(r, pathPtr); err != nil {
		return p, err
	}
	threads, err := kmem.WalkList(r, addr+EprocThreadHead, maxWalk)
	if err != nil {
		return p, err
	}
	p.Threads = len(threads)
	return p, nil
}

// WalkActiveProcessList traverses the Active Process List — the kernel's
// "truth approximation" for process enumeration. This is GhostBuster's
// normal-mode low-level scan. FU-style DKOM hides from this walk.
func WalkActiveProcessList(r kmem.Reader, layout Layout) ([]ProcView, error) {
	entries, err := kmem.WalkList(r, layout.ActiveProcessHead, maxWalk)
	if err != nil {
		return nil, err
	}
	out := make([]ProcView, 0, len(entries))
	for _, e := range entries {
		// The list entry is at offset 0 of EPROCESS, so the entry address
		// is the object address (CONTAINING_RECORD with zero offset).
		p, err := readProc(r, e-EprocActiveLinks)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// WalkCidProcesses traverses the CID handle table and returns every
// process that owns at least one thread — the paper's advanced mode,
// which "travers[es] another kernel data structure that maintains the
// process list to support OS functionalities other than responding to
// enumeration queries". DKOM unlinking does not hide from this walk.
func WalkCidProcesses(r kmem.Reader, layout Layout) ([]ProcView, error) {
	capacity, err := r.ReadU64(layout.CidTable + cidHdrCapacity)
	if err != nil {
		return nil, err
	}
	if capacity > maxWalk {
		return nil, fmt.Errorf("kernel: CID table capacity %d exceeds sanity bound", capacity)
	}
	// Collect process objects and thread owners in slot order.
	var procs, owners []uint64
	for i := uint64(0); i < capacity; i++ {
		slot := layout.CidTable + cidHdrSize + i*cidSlotSize
		typ, err := r.ReadU64(slot + cidSlotType)
		if err != nil {
			return nil, err
		}
		obj, err := r.ReadU64(slot + cidSlotObj)
		if err != nil {
			return nil, err
		}
		switch typ {
		case CidThread:
			owner, err := r.ReadU64(obj + EthreadOwner)
			if err != nil {
				return nil, err
			}
			owners = append(owners, owner)
		case CidProcess:
			procs = append(procs, obj)
		}
	}
	// Consistency check: every thread's owner must be a process object in
	// this same table. A dangling owner means the table bytes are corrupt
	// (torn write, bad dump, bit damage); trusting the walk would silently
	// drop the real owner, so fail loudly instead, naming the first
	// dangling owner in slot order.
	byAddr := slices.Clone(procs)
	slices.Sort(byAddr)
	byAddr = slices.Compact(byAddr)
	live := make([]bool, len(byAddr)) // owns at least one thread
	for _, owner := range owners {
		i, ok := slices.BinarySearch(byAddr, owner)
		if !ok {
			return nil, fmt.Errorf("kernel: CID table inconsistent: thread owner %#x is not a process object", owner)
		}
		live[i] = true
	}
	// Read the live processes in slot order, each object once, so a scan
	// read's position in the walk is the same on every run.
	out := make([]ProcView, 0, len(byAddr))
	for _, addr := range procs {
		i, _ := slices.BinarySearch(byAddr, addr)
		if !live[i] {
			continue // no schedulable thread (or already read): not a live process
		}
		live[i] = false
		p, err := readProc(r, addr)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sortProcs(out)
	return out, nil
}

// CarveProcesses sweeps the first limit bytes of kernel memory for live
// EPROCESS allocations by their pool tag, the way memory-forensics
// tools enumerate processes without trusting any list: a process
// unlinked from both the Active Process List and the CID table (the
// memory-only family) still occupies tagged pool. ExitProcess clears
// the tag, so freed residue is never resurrected. The walk reads
// nothing through kernel bookkeeping — only the Reader — so the same
// code carves live memory and crash dumps.
func CarveProcesses(r kmem.Reader, limit int) ([]ProcView, error) {
	out := []ProcView{}
	// The arena burns its first 64 bytes; a tag sits at EprocPoolTag
	// inside an 8-aligned allocation, so candidate tag offsets are
	// 8-aligned too.
	tail := EprocSize - EprocPoolTag
	for off := uint64(64 + EprocPoolTag); int(off)+tail <= limit; off += 8 {
		tag, err := r.ReadU32(kmem.Base + off)
		if err != nil {
			return nil, err
		}
		if tag != PoolTagProc {
			continue
		}
		eproc := kmem.Base + off - EprocPoolTag
		// Structural sanity before decoding: a stray "Proc" in string
		// bytes will not also carry a plausible flags word and pid.
		flags, err := r.ReadU64(eproc + EprocFlags)
		if err != nil {
			return nil, err
		}
		if flags&^uint64(flagsExited) != 0 || flags&flagsExited != 0 {
			continue
		}
		pid, err := r.ReadU64(eproc + EprocPid)
		if err != nil {
			return nil, err
		}
		if pid == 0 || pid%4 != 0 || pid > maxWalk {
			continue
		}
		p, err := readProc(r, eproc)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sortProcs(out)
	return out, nil
}

// WalkModuleList reads the LDR list headed at head (a process's module
// list or the system driver list).
func WalkModuleList(r kmem.Reader, head uint64) ([]ModView, error) {
	entries, err := kmem.WalkList(r, head, maxWalk)
	if err != nil {
		return nil, err
	}
	out := make([]ModView, 0, len(entries))
	for _, e := range entries {
		m := ModView{Addr: e}
		if m.Base, err = r.ReadU64(e + LdrBase); err != nil {
			return nil, err
		}
		if m.Size, err = r.ReadU64(e + LdrSize); err != nil {
			return nil, err
		}
		namePtr, err := r.ReadU64(e + LdrNamePtr)
		if err != nil {
			return nil, err
		}
		if m.Path, err = readStringCell(r, namePtr); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// WalkDrivers reads the system driver list (PsLoadedModuleList).
func WalkDrivers(r kmem.Reader, layout Layout) ([]ModView, error) {
	return WalkModuleList(r, layout.LoadedModuleHead)
}

// ProcessModules reads the PEB module list of the process whose EPROCESS
// is at addr. This is the user-memory structure the query APIs consult —
// the one Vanquish tampers with.
func ProcessModules(r kmem.Reader, addr uint64) ([]ModView, error) {
	return WalkModuleList(r, addr+EprocLdrHead)
}

// ProcessVadImages reads the VAD image list of the process at addr: the
// kernel's own record of every image mapped into the address space. The
// loader cannot run an image without a mapping, so this list is the
// module truth GhostBuster's low-level scan extracts ("the truth of all
// modules loaded by all processes from a kernel data structure").
func ProcessVadImages(r kmem.Reader, addr uint64) ([]ModView, error) {
	return WalkModuleList(r, addr+EprocVadHead)
}

func sortProcs(ps []ProcView) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Pid < ps[j-1].Pid; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
