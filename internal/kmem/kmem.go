// Package kmem implements a flat, byte-addressable kernel memory arena.
//
// The simulated kernel lays out its object structures (EPROCESS, ETHREAD,
// loader entries, the CID table) inside this arena with real intrusive
// doubly-linked lists: LIST_ENTRY fields hold 64-bit addresses of other
// arena locations. Direct Kernel Object Manipulation — the technique the
// FU rootkit uses to hide processes — is therefore literal pointer
// surgery on these bytes, and the GhostBuster low-level scanners traverse
// the same bytes the way a kernel debugger walks a crash dump.
package kmem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Base is the virtual address at which the arena begins. It mimics the
// canonical x64 kernel-space base so that arena addresses look like
// kernel pointers in reports and are never confused with small integers.
const Base uint64 = 0xFFFF_8000_0000_0000

// ListEntrySize is the size in bytes of a LIST_ENTRY (flink + blink).
const ListEntrySize = 16

// ErrBadAddress reports an access outside the allocated arena.
type ErrBadAddress struct {
	Addr uint64
	Size int
}

func (e *ErrBadAddress) Error() string {
	return fmt.Sprintf("kmem: bad address %#x (size %d)", e.Addr, e.Size)
}

// Arena is a growable kernel address space with a bump allocator.
// The zero value is not usable; call New.
//
// A read-write lock guards the arena so concurrent scanners can traverse
// structures while the kernel (or a DKOM rootkit) mutates them. Writers
// lock per access. A traversal takes the read lock once for the whole
// walk (View), so it never sees a torn word; a compound update such as a
// LIST_ENTRY unlink is still a sequence of separate writes, and a walk
// that runs between two of them sees it half done — the same race window
// a real kernel walker faces.
type Arena struct {
	mu   sync.RWMutex
	mem  []byte
	next uint64 // next free offset
}

// New returns an empty arena.
func New() *Arena {
	// Burn the first 64 bytes so that Base itself is never handed out and
	// a zero offset can act as a null-like sentinel in object fields.
	return &Arena{mem: make([]byte, 64), next: 64}
}

// Alloc reserves size bytes (8-byte aligned) and returns their address.
func (a *Arena) Alloc(size int) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if size <= 0 {
		size = 8
	}
	aligned := (size + 7) &^ 7
	off := a.next
	a.next += uint64(aligned)
	for uint64(len(a.mem)) < a.next {
		a.mem = append(a.mem, make([]byte, 4096)...)
	}
	return Base + off
}

// Size returns the number of bytes currently allocated.
func (a *Arena) Size() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return int(a.next)
}

// reader returns a reader over the current contents. The caller must
// hold a.mu.
func (a *Arena) reader() ImageReader { return ImageReader{img: a.mem, size: int(a.next)} }

// View runs fn under one read lock with a reader over the arena, so a
// whole traversal costs one lock round trip instead of one per word.
// The reader has the same bounds and ErrBadAddress errors as the
// per-access methods, and its Size is the arena's. It is borrowed: it
// must not escape fn, and fn must not call any arena method that takes
// the lock (a nested read lock deadlocks once a writer is queued).
// Writers issued while fn runs land after it returns.
func (a *Arena) View(fn func(r *ImageReader) error) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r := a.reader()
	return fn(&r)
}

// ReadU64 reads a 64-bit little-endian value at addr.
func (a *Arena) ReadU64(addr uint64) (uint64, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r := a.reader()
	return r.ReadU64(addr)
}

// WriteU64 writes a 64-bit little-endian value at addr.
func (a *Arena) WriteU64(addr, v uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.reader()
	off, err := r.offset(addr, 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(a.mem[off:], v)
	return nil
}

// ReadU32 reads a 32-bit little-endian value at addr.
func (a *Arena) ReadU32(addr uint64) (uint32, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r := a.reader()
	return r.ReadU32(addr)
}

// WriteU32 writes a 32-bit little-endian value at addr.
func (a *Arena) WriteU32(addr uint64, v uint32) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.reader()
	off, err := r.offset(addr, 4)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(a.mem[off:], v)
	return nil
}

// ReadBytes copies n bytes starting at addr.
func (a *Arena) ReadBytes(addr uint64, n int) ([]byte, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r := a.reader()
	return r.ReadBytes(addr, n)
}

// WriteBytes stores b starting at addr.
func (a *Arena) WriteBytes(addr uint64, b []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.reader()
	off, err := r.offset(addr, len(b))
	if err != nil {
		return err
	}
	copy(a.mem[off:], b)
	return nil
}

// ReadCString reads a NUL-padded byte string of at most maxLen bytes.
func (a *Arena) ReadCString(addr uint64, maxLen int) (string, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r := a.reader()
	return r.ReadCString(addr, maxLen)
}

// WriteCString stores s NUL-padded into a field of maxLen bytes,
// truncating if necessary (one byte is always reserved for the NUL).
func (a *Arena) WriteCString(addr uint64, s string, maxLen int) error {
	b := make([]byte, maxLen)
	copy(b[:maxLen-1], s)
	return a.WriteBytes(addr, b)
}

// Snapshot returns a copy of the raw arena contents. The crash-dump
// writer embeds this image in the dump file; offline analysis then
// resolves addresses as Base+offset exactly like a debugger.
func (a *Arena) Snapshot() []byte {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]byte, a.next)
	copy(out, a.mem[:a.next])
	return out
}

// --- LIST_ENTRY manipulation -------------------------------------------
//
// A LIST_ENTRY occupies 16 bytes: Flink (u64) then Blink (u64). A list
// head is itself a LIST_ENTRY; an empty list points at itself, exactly
// like the NT kernel's InitializeListHead.

// ListInit makes head an empty circular list.
func (a *Arena) ListInit(head uint64) error {
	if err := a.WriteU64(head, head); err != nil {
		return err
	}
	return a.WriteU64(head+8, head)
}

// ListInsertTail links entry in front of head (i.e., at the list tail).
func (a *Arena) ListInsertTail(head, entry uint64) error {
	blink, err := a.ReadU64(head + 8)
	if err != nil {
		return err
	}
	if err := a.WriteU64(entry, head); err != nil { // entry.Flink = head
		return err
	}
	if err := a.WriteU64(entry+8, blink); err != nil { // entry.Blink = old tail
		return err
	}
	if err := a.WriteU64(blink, entry); err != nil { // old tail.Flink = entry
		return err
	}
	return a.WriteU64(head+8, entry) // head.Blink = entry
}

// ListRemove unlinks entry from whatever list it is on. This is the DKOM
// primitive: after removal the entry's own pointers are made
// self-referential (the FU rootkit does the same so that the hidden
// process does not crash the dispatcher).
func (a *Arena) ListRemove(entry uint64) error {
	flink, err := a.ReadU64(entry)
	if err != nil {
		return err
	}
	blink, err := a.ReadU64(entry + 8)
	if err != nil {
		return err
	}
	if err := a.WriteU64(blink, flink); err != nil {
		return err
	}
	if err := a.WriteU64(flink+8, blink); err != nil {
		return err
	}
	if err := a.WriteU64(entry, entry); err != nil {
		return err
	}
	return a.WriteU64(entry+8, entry)
}

// ListWalk returns the addresses of all entries on the circular list at
// head, excluding the head itself. It guards against corrupt or cyclic
// lists by refusing to walk more than maxEntries entries.
func (a *Arena) ListWalk(head uint64, maxEntries int) ([]uint64, error) {
	return WalkList(a, head, maxEntries)
}

// Reader is the read-only view shared by the live arena and parsed crash
// dumps, so the same traversal code scans both (the paper applies
// "similar kernel data structure traversal code to the dump file").
type Reader interface {
	ReadU64(addr uint64) (uint64, error)
	ReadU32(addr uint64) (uint32, error)
	ReadBytes(addr uint64, n int) ([]byte, error)
	ReadCString(addr uint64, maxLen int) (string, error)
}

var _ Reader = (*Arena)(nil)

// ImageReader adapts a raw memory image (e.g. extracted from a crash
// dump) to the Reader interface. Arena.View hands out one over the live
// arena.
type ImageReader struct {
	img  []byte
	size int // allocated bytes: len(img) for a dump, the bump offset for a View
}

// NewImageReader wraps a raw arena image.
func NewImageReader(img []byte) *ImageReader { return &ImageReader{img: img, size: len(img)} }

// Size returns the number of allocated bytes in the image, so
// pool-carving scans bound their sweep over a dump the same way they
// bound it over the live arena.
func (r *ImageReader) Size() int { return r.size }

var _ Reader = (*ImageReader)(nil)

func (r *ImageReader) offset(addr uint64, size int) (uint64, error) {
	if addr < Base {
		return 0, &ErrBadAddress{Addr: addr, Size: size}
	}
	off := addr - Base
	if off+uint64(size) > uint64(len(r.img)) || size < 0 {
		return 0, &ErrBadAddress{Addr: addr, Size: size}
	}
	return off, nil
}

// ReadU64 reads a 64-bit little-endian value at addr.
func (r *ImageReader) ReadU64(addr uint64) (uint64, error) {
	off, err := r.offset(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(r.img[off:]), nil
}

// ReadU32 reads a 32-bit little-endian value at addr.
func (r *ImageReader) ReadU32(addr uint64) (uint32, error) {
	off, err := r.offset(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(r.img[off:]), nil
}

// ReadBytes copies n bytes starting at addr.
func (r *ImageReader) ReadBytes(addr uint64, n int) ([]byte, error) {
	off, err := r.offset(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, r.img[off:])
	return out, nil
}

// ReadCString reads a NUL-padded byte string of at most maxLen bytes.
func (r *ImageReader) ReadCString(addr uint64, maxLen int) (string, error) {
	b, err := r.ReadBytes(addr, maxLen)
	if err != nil {
		return "", err
	}
	for i, c := range b {
		if c == 0 {
			return string(b[:i]), nil
		}
	}
	return string(b), nil
}

// WalkList is ListWalk generalized over any Reader, used by both live
// scans and crash-dump analysis.
func WalkList(r Reader, head uint64, maxEntries int) ([]uint64, error) {
	var out []uint64
	cur, err := r.ReadU64(head)
	if err != nil {
		return nil, err
	}
	for cur != head {
		if len(out) >= maxEntries {
			return nil, fmt.Errorf("kmem: list at %#x exceeds %d entries (corrupt?)", head, maxEntries)
		}
		out = append(out, cur)
		cur, err = r.ReadU64(cur)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
