package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ghostbuster/internal/hive"
	"ghostbuster/internal/kmem"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/ntfs"
	"ghostbuster/internal/winapi"
)

// ErrInjected marks every error the fault layer fabricates. Scanners
// treat it like any other I/O failure; tests use it to tell injected
// damage from real bugs.
var ErrInjected = errors.New("faultinject: injected fault")

// lagSpike is the virtual-time burst a KindLag fault charges to the
// faulted call's clock — large enough to dominate a scan unit's budget,
// the way a hung RPC or a disk timeout would.
const lagSpike = 15 * time.Second

// Injector arms a Plan against one machine. All decisions are
// deterministic in (plan seed, access order); per-source access
// counters make "the 2nd raw disk read fails" reproducible.
type Injector struct {
	plan Plan
	m    *machine.Machine

	mu         sync.Mutex
	counts     map[Source]int // accesses seen per source
	fires      []int          // per plan fault: times fired
	fired      []string       // human-readable fire log
	pending    *pendingDisk   // disk corruption chosen in BeforeRead, applied in CorruptImage
	pendingRem *pendingDisk   // same, for the removable volume's reads
	armed      bool
	stall      func(Source) // wall-clock stall gate for disk KindLag fires

	epoch atomic.Uint64
}

type pendingDisk struct {
	fault Fault
	n     int // access index that chose it
}

// New builds an (unarmed) injector for plan against m.
func New(m *machine.Machine, plan Plan) (*Injector, error) {
	for _, f := range plan.Faults {
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	return &Injector{
		plan:   plan,
		m:      m,
		counts: map[Source]int{},
		fires:  make([]int, len(plan.Faults)),
	}, nil
}

// Arm wires the plan's hooks into every substrate the plan touches and
// publishes the fault epoch on the machine. Idempotent.
func (i *Injector) Arm() {
	i.mu.Lock()
	if i.armed {
		i.mu.Unlock()
		return
	}
	i.armed = true
	i.mu.Unlock()

	i.m.FaultEpoch = i.Epoch
	for _, src := range i.plan.Sources() {
		switch src {
		case SourceDisk:
			i.m.Disk.SetDeviceFault((*diskFault)(i))
		case SourceHive:
			for _, root := range i.m.Reg.Roots() {
				if h, ok := i.m.Reg.HiveAt(root); ok {
					h.SetSnapshotFault((*hiveFault)(i))
				}
			}
		case SourceKmem:
			i.m.Kern.SetScanFault((*kmemFault)(i))
		case SourceAPI:
			i.m.API.SetCallFault(i.callFault)
		case SourceRemovable:
			i.m.SetRemovableFault((*removableFault)(i))
		}
	}
}

// Disarm removes every hook. The machine scans cleanly afterwards; the
// fire log and epoch survive for inspection.
func (i *Injector) Disarm() {
	i.mu.Lock()
	i.armed = false
	i.pending = nil
	i.pendingRem = nil
	i.mu.Unlock()

	i.m.FaultEpoch = nil
	i.m.Disk.SetDeviceFault(nil)
	for _, root := range i.m.Reg.Roots() {
		if h, ok := i.m.Reg.HiveAt(root); ok {
			h.SetSnapshotFault(nil)
		}
	}
	i.m.Kern.SetScanFault(nil)
	i.m.API.SetCallFault(nil)
	i.m.SetRemovableFault(nil)
}

// Reset rewinds access counters and fire state so the same armed plan
// replays from the first access (a fresh scan sees the same faults).
func (i *Injector) Reset() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.counts = map[Source]int{}
	i.fires = make([]int, len(i.plan.Faults))
	i.fired = nil
	i.pending = nil
	i.pendingRem = nil
}

// SetStall installs the wall-clock stall gate invoked (outside the
// injector lock) when a disk KindLag fault fires. Supervision chaos
// tests hand in a closure that blocks on a channel until released —
// a deterministic stand-in for a wedged device read. A nil gate makes
// disk lag fires no-ops beyond the fire log and epoch.
func (i *Injector) SetStall(fn func(Source)) {
	i.mu.Lock()
	i.stall = fn
	i.mu.Unlock()
}

// Epoch returns a counter that advances on every fired fault. Cache
// layers compare epochs around a parse: a change means the parse may
// have consumed damaged bytes and must not be memoized.
func (i *Injector) Epoch() uint64 { return i.epoch.Load() }

// Fired returns the log of faults that actually triggered, in order.
func (i *Injector) Fired() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]string(nil), i.fired...)
}

// Exhausted reports whether every planned fault has fired its full
// count — an armed-but-exhausted injector behaves like a clean machine.
func (i *Injector) Exhausted() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	for idx, f := range i.plan.Faults {
		if i.fires[idx] < f.Count {
			return false
		}
	}
	return true
}

// fire counts one access to src and returns the fault that triggers on
// it, if any. First matching plan entry wins; its fire count and the
// global epoch advance.
func (i *Injector) fire(src Source) (Fault, int, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fireLocked(src)
}

func (i *Injector) fireLocked(src Source) (Fault, int, bool) {
	if !i.armed {
		return Fault{}, 0, false
	}
	i.counts[src]++
	n := i.counts[src]
	for idx, f := range i.plan.Faults {
		if f.Source != src || n < f.After || i.fires[idx] >= f.Count {
			continue
		}
		i.fires[idx]++
		i.logFire(f, n, "")
		return f, n, true
	}
	return Fault{}, n, false
}

func (i *Injector) logFire(f Fault, n int, note string) {
	i.epoch.Add(1)
	msg := fmt.Sprintf("%s fired on %s access %d", f, f.Source, n)
	if note != "" {
		msg += " (" + note + ")"
	}
	i.fired = append(i.fired, msg)
}

// ---------------------------------------------------------------------
// Disk: ntfs.DeviceFault

type diskFault Injector

func (d *diskFault) inj() *Injector { return (*Injector)(d) }

// BeforeRead runs before the volume lock is taken, so a mid-scan
// mutation (KindMut) can write through the normal mutator path without
// deadlocking. KindErr fails the read; KindTorn/KindFlip stash the
// damage for CorruptImage on the same access.
func (d *diskFault) BeforeRead(op string) error {
	i := d.inj()
	i.mu.Lock()
	f, n, ok := i.fireLocked(SourceDisk)
	if ok && (f.Kind == KindTorn || f.Kind == KindFlip) {
		i.pending = &pendingDisk{fault: f, n: n}
	}
	stall := i.stall
	i.mu.Unlock()
	if !ok {
		return nil
	}
	switch f.Kind {
	case KindLag:
		// Wall-clock stall: block in the gate (outside the injector lock
		// so other sources keep firing) and then let the read succeed.
		// No virtual charge — the point is that virtual time STOPS while
		// real time runs on, which is what the watchdogs key on.
		if stall != nil {
			stall(SourceDisk)
		}
		return nil
	case KindErr:
		return fmt.Errorf("%w: device read error on %s access %d", ErrInjected, op, n)
	case KindMut:
		// The scan already enumerated the high-level view; a file that
		// appears now is the classic mid-scan mutation race. The marker
		// path is deterministic in the access index.
		path := fmt.Sprintf(`C:\WINDOWS\Temp\fi-mut-%d.tmp`, n)
		if err := i.m.DropFile(path, []byte("mid-scan mutation")); err != nil {
			// A full disk still counts as a fired mutation attempt; the
			// scan itself must not fail because of it.
			return nil
		}
	}
	return nil
}

// CorruptImage applies a pending torn/flip fault to a copy of the
// device image. It never modifies dev in place. The damaged record is
// always a user record (never metadata records 0..5): tearing the root
// directory would orphan the whole tree and turn innocent files into
// findings, which is content corruption, not structural damage.
func (d *diskFault) CorruptImage(op string, dev []byte) []byte {
	i := d.inj()
	i.mu.Lock()
	p := i.pending
	i.pending = nil
	i.mu.Unlock()
	return i.corruptRecord(p, dev)
}

// corruptRecord applies a pending torn/flip fault to a copy of a volume
// image (the system disk's or the removable stick's) by damaging one
// user MFT record structurally.
func (i *Injector) corruptRecord(p *pendingDisk, dev []byte) []byte {
	if p == nil {
		return nil
	}
	geo, err := ntfs.DecodeBootSector(dev)
	if err != nil || geo.MFTRecords <= ntfs.FirstUserRecord {
		return nil
	}
	userRecs := geo.MFTRecords - ntfs.FirstUserRecord
	rec := ntfs.FirstUserRecord + mix(i.plan.Seed, uint64(p.n), 0xd15c)%userRecs
	off := geo.MFTStart*ntfs.ClusterSize + rec*ntfs.RecordSize
	if off+ntfs.RecordSize > uint64(len(dev)) {
		return nil
	}
	cp := append([]byte(nil), dev...)
	switch p.fault.Kind {
	case KindTorn:
		// Keep the FILE magic but zero the rest of the record: a
		// half-written record that fails header validation loudly.
		for j := off + 4; j < off+ntfs.RecordSize; j++ {
			cp[j] = 0
		}
	case KindFlip:
		// Break the record magic; the parser reports a corrupt record
		// instead of decoding garbage names.
		cp[off] ^= 0x01
	}
	return cp
}

// ---------------------------------------------------------------------
// Removable volume: ntfs.DeviceFault on the hot-pluggable stick

type removableFault Injector

func (d *removableFault) inj() *Injector { return (*Injector)(d) }

// BeforeRead mirrors the disk fault for the removable volume's raw
// reads: KindErr models the stick dropping off the bus mid-read,
// torn/flip stash record damage for CorruptImage. The machine re-applies
// this hook to every freshly attached stick, so a plan armed before the
// hot-plug still fires.
func (d *removableFault) BeforeRead(op string) error {
	i := d.inj()
	i.mu.Lock()
	f, n, ok := i.fireLocked(SourceRemovable)
	if ok && (f.Kind == KindTorn || f.Kind == KindFlip) {
		i.pendingRem = &pendingDisk{fault: f, n: n}
	}
	i.mu.Unlock()
	if ok && f.Kind == KindErr {
		return fmt.Errorf("%w: removable device read error on %s access %d", ErrInjected, op, n)
	}
	return nil
}

// CorruptImage applies a pending torn/flip fault to a copy of the
// stick's image, damaging one user record structurally (loud, never a
// silently altered name).
func (d *removableFault) CorruptImage(op string, dev []byte) []byte {
	i := d.inj()
	i.mu.Lock()
	p := i.pendingRem
	i.pendingRem = nil
	i.mu.Unlock()
	return i.corruptRecord(p, dev)
}

// ---------------------------------------------------------------------
// Hive: hive.SnapshotFault

type hiveFault Injector

// CorruptSnapshot damages the freshly copied hive image in place. All
// three kinds target the header, where hive.Open validates magic,
// sequence pair, and root cell — whole-file parse failure, never a
// silently altered key.
func (h *hiveFault) CorruptSnapshot(name string, img []byte) {
	i := (*Injector)(h)
	f, _, ok := i.fire(SourceHive)
	if !ok {
		return
	}
	switch f.Kind {
	case KindErr:
		hive.CorruptImageHeader(img, "magic")
	case KindTorn:
		hive.CorruptImageHeader(img, "torn")
	case KindFlip:
		hive.CorruptImageHeader(img, "root")
	}
}

// ---------------------------------------------------------------------
// Kernel memory + crash dumps: kernel.ScanFault

type kmemFault Injector

func (k *kmemFault) inj() *Injector { return (*Injector)(k) }

// WrapReader interposes on scanner-facing kernel-memory reads. The OS's
// own structure walks use the raw arena; only cross-view scan reads are
// fault candidates. The torn cutoff comes from the view's own size, so
// deciding a read takes no arena lock.
func (k *kmemFault) WrapReader(mem *kmem.ImageReader) kmem.Reader {
	return &faultReader{inj: k.inj(), r: mem, cutoff: kmem.Base + uint64(mem.Size())/2}
}

// CorruptDump damages a crash-dump image copy: empty (err), truncated
// (torn), or with one pointer-shaped word's bit 45 flipped so the dump
// walker dereferences outside the arena (flip).
func (k *kmemFault) CorruptDump(img []byte) []byte {
	i := k.inj()
	f, n, ok := i.fire(SourceKmem)
	if !ok {
		return nil
	}
	switch f.Kind {
	case KindErr:
		return []byte{}
	case KindTorn:
		return append([]byte(nil), img[:len(img)/2]...)
	case KindFlip:
		cp := append([]byte(nil), img...)
		flipPointerWord(cp, mix(i.plan.Seed, uint64(n), 0xf11b))
		return cp
	}
	return nil
}

// flipPointerWord flips bit 45 of the pick-th pointer-shaped (>= Base)
// 8-aligned word in img, sending it outside the arena. Names, pids, and
// filetimes are all far below Base, so content is never altered.
func flipPointerWord(img []byte, pick uint64) {
	var ptrs int
	for off := 0; off+8 <= len(img); off += 8 {
		if readLE64(img[off:]) >= kmem.Base {
			ptrs++
		}
	}
	if ptrs == 0 {
		return
	}
	target := int(pick % uint64(ptrs))
	for off := 0; off+8 <= len(img); off += 8 {
		if readLE64(img[off:]) >= kmem.Base {
			if target == 0 {
				img[off+5] ^= 0x20 // bit 45
				return
			}
			target--
		}
	}
}

func readLE64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// faultReader wraps one kernel-memory view with per-read fault
// decisions. Reads at or above cutoff are in the arena's upper half.
type faultReader struct {
	inj    *Injector
	r      *kmem.ImageReader
	cutoff uint64
}

// kmemDecision: what to do with one scan read.
const (
	kmemPass = iota
	kmemFail
	kmemMaybeFlip
)

// kmemAccess counts one scan read and decides its fate. KindErr fails
// any read. KindTorn fails reads into the arena's upper half (an
// address range gone unreadable mid-walk) and stays pending otherwise.
// KindFlip only ever applies to pointer-shaped u64 values, so it stays
// pending (unconsumed) until confirmKmemFlip sees one.
func (i *Injector) kmemAccess(addr, cutoff uint64, canFlip bool) (act int, idx int, n int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.armed {
		return kmemPass, 0, 0
	}
	i.counts[SourceKmem]++
	n = i.counts[SourceKmem]
	for fi, f := range i.plan.Faults {
		if f.Source != SourceKmem || n < f.After || i.fires[fi] >= f.Count {
			continue
		}
		switch f.Kind {
		case KindErr:
			i.fires[fi]++
			i.logFire(f, n, "")
			return kmemFail, fi, n
		case KindTorn:
			if addr >= cutoff {
				i.fires[fi]++
				i.logFire(f, n, "upper-half read")
				return kmemFail, fi, n
			}
		case KindFlip:
			if canFlip {
				return kmemMaybeFlip, fi, n
			}
		}
	}
	return kmemPass, 0, n
}

// confirmKmemFlip consumes a pending flip once a pointer-shaped value
// actually passed through the reader.
func (i *Injector) confirmKmemFlip(idx, n int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if idx >= len(i.plan.Faults) || i.fires[idx] >= i.plan.Faults[idx].Count {
		return
	}
	i.fires[idx]++
	i.logFire(i.plan.Faults[idx], n, "pointer flip")
}

func injectedRead(addr uint64, n int) error {
	return fmt.Errorf("%w: kernel read at %#x failed (access %d)", ErrInjected, addr, n)
}

func (fr *faultReader) ReadU64(addr uint64) (uint64, error) {
	act, idx, n := fr.inj.kmemAccess(addr, fr.cutoff, true)
	if act == kmemFail {
		return 0, injectedRead(addr, n)
	}
	v, err := fr.r.ReadU64(addr)
	if err != nil {
		return v, err
	}
	if act == kmemMaybeFlip && v >= kmem.Base {
		fr.inj.confirmKmemFlip(idx, n)
		return v ^ 1<<45, nil
	}
	return v, nil
}

func (fr *faultReader) ReadU32(addr uint64) (uint32, error) {
	act, _, n := fr.inj.kmemAccess(addr, fr.cutoff, false)
	if act == kmemFail {
		return 0, injectedRead(addr, n)
	}
	return fr.r.ReadU32(addr)
}

func (fr *faultReader) ReadBytes(addr uint64, n int) ([]byte, error) {
	act, _, acc := fr.inj.kmemAccess(addr, fr.cutoff, false)
	if act == kmemFail {
		return nil, injectedRead(addr, acc)
	}
	return fr.r.ReadBytes(addr, n)
}

func (fr *faultReader) ReadCString(addr uint64, max int) (string, error) {
	act, _, acc := fr.inj.kmemAccess(addr, fr.cutoff, false)
	if act == kmemFail {
		return "", injectedRead(addr, acc)
	}
	return fr.r.ReadCString(addr, max)
}

// ---------------------------------------------------------------------
// Win32 API: winapi.CallFault

// callFault fires on high-level scanner API entry points. KindErr fails
// the call with the winapi sentinel (so high scanners can fail loudly
// rather than silently skipping entries); KindLag charges a latency
// spike to the call's clock.
func (i *Injector) callFault(api winapi.API, call *winapi.Call) error {
	f, n, ok := i.fire(SourceAPI)
	if !ok {
		return nil
	}
	switch f.Kind {
	case KindErr:
		return fmt.Errorf("%w: %s failed (access %d)", winapi.ErrInjectedFault, api, n)
	case KindLag:
		if call != nil && call.Clock != nil {
			call.Clock.Advance(lagSpike)
		} else {
			i.m.Clock.Advance(lagSpike)
		}
	}
	return nil
}
