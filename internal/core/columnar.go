package core

import (
	"slices"
	"sync"
	"time"
)

// This file implements the columnar snapshot engine: the allocation-lean
// representation the detector hot path runs on. A snapshot is stored as
// parallel columns (interned-ID symbols, display strings, detail
// strings) sorted by symbol, so the cross-view diff is a sorted
// merge-join over two symbol columns instead of two map probes per
// entry, and a warm incremental diff of an unchanged volume allocates
// nothing. It is the only diff engine: every outside-the-box check
// builds both of its views over one table too. The map-backed Snapshot
// survives only as the adapter form for the bench/ probes; see
// DESIGN.md §14.

// Sym is an interned-string symbol: an index into its InternTable.
// Two strings interned in the same table are equal iff their symbols
// are equal, and a symbol resolves back to its string without
// allocating.
type Sym uint32

// InternTable is an append-only string-interning table. One table is
// shared by every snapshot a detector builds (high and low sides, all
// sweeps), so the entry-ID strings of a long-running sweep loop are
// allocated once, the first time each identity is seen, and every warm
// rebuild reuses them. Strings are never evicted: the table is a cache
// whose lifetime is its detector's, and its size is bounded by the
// number of distinct identities the host has ever exposed.
//
// The table is safe for concurrent interning (parallel sweep lanes
// build their snapshots at the same time); resolution via Str is a
// plain slice index on an immutable prefix.
type InternTable struct {
	mu   sync.Mutex
	syms map[string]Sym
	strs []string
}

// NewInternTable returns an empty table.
func NewInternTable() *InternTable {
	return &InternTable{syms: make(map[string]Sym)}
}

// NewInternTableHint returns an empty table pre-sized for roughly hint
// distinct strings, sparing a cold bulk build the incremental map
// rehashes. Symbols and behavior are identical to NewInternTable.
func NewInternTableHint(hint int) *InternTable {
	return &InternTable{syms: make(map[string]Sym, hint), strs: make([]string, 0, hint)}
}

// Intern returns the symbol for s, assigning the next free symbol the
// first time s is seen. The string is retained.
func (t *InternTable) Intern(s string) Sym {
	t.mu.Lock()
	sym, ok := t.syms[s]
	if !ok {
		sym = Sym(len(t.strs))
		t.strs = append(t.strs, s)
		t.syms[s] = sym
	}
	t.mu.Unlock()
	return sym
}

// InternBytes is Intern for a scratch byte buffer. The common warm-path
// case (the identity was interned by an earlier sweep) does not
// allocate: the map lookup runs on the bytes directly, and only a
// first-seen identity pays the []byte -> string copy.
func (t *InternTable) InternBytes(b []byte) Sym {
	t.mu.Lock()
	sym, ok := t.syms[string(b)] // no alloc: the compiler elides the conversion for lookups
	if !ok {
		s := string(b)
		sym = Sym(len(t.strs))
		t.strs = append(t.strs, s)
		t.syms[s] = sym
	}
	t.mu.Unlock()
	return sym
}

// InternStrBytes interns a scratch buffer and returns the canonical
// retained string — the warm path returns the existing string without
// allocating. Used for display/detail columns, which store strings
// rather than symbols.
func (t *InternTable) InternStrBytes(b []byte) string {
	return t.Str(t.InternBytes(b))
}

// Str resolves a symbol to its string.
func (t *InternTable) Str(sym Sym) string {
	t.mu.Lock()
	s := t.strs[sym]
	t.mu.Unlock()
	return s
}

// Len returns the number of distinct strings interned.
func (t *InternTable) Len() int {
	t.mu.Lock()
	n := len(t.strs)
	t.mu.Unlock()
	return n
}

// view returns the current resolved-string column under the lock. The
// returned slice header is a stable prefix (strs is append-only), so
// callers resolve any symbol interned before the call with plain
// indexing and no further locking — the diff merge-join and the
// snapshot adapter take one view per operation instead of one lock per
// entry.
func (t *InternTable) view() []string {
	t.mu.Lock()
	v := t.strs
	t.mu.Unlock()
	return v
}

// ColumnarSnapshot is the columnar form of one scan result: parallel
// columns sorted by interned-ID symbol. It is immutable after Build and
// safe to share across sweeps (the cache hands the same columns to
// every warm hit).
type ColumnarSnapshot struct {
	Kind    ResourceKind
	View    View
	Taken   time.Duration // virtual time when the scan completed
	Elapsed time.Duration // virtual time the scan consumed
	// Skipped counts scan targets the pass could not read; see
	// Snapshot.Skipped.
	Skipped int

	table    *InternTable
	ids      []Sym // sorted ascending; unique after Build's dedupe
	displays []string
	details  []string
}

// Len returns the entry count.
func (c *ColumnarSnapshot) Len() int { return len(c.ids) }

// Table returns the interning table the ID column indexes.
func (c *ColumnarSnapshot) Table() *InternTable { return c.table }

// Snapshot materializes the map-backed adapter form for the map-form
// scanner adapters (bench/layers.go); no detection path calls this.
func (c *ColumnarSnapshot) Snapshot() *Snapshot {
	s := &Snapshot{
		Kind: c.Kind, View: c.View, Taken: c.Taken, Elapsed: c.Elapsed, Skipped: c.Skipped,
		Entries: make(map[string]Entry, len(c.ids)),
	}
	strs := c.table.view()
	for i, sym := range c.ids {
		s.Entries[strs[sym]] = Entry{ID: strs[sym], Display: c.displays[i], Detail: c.details[i]}
	}
	return s
}

// SnapshotColumnar converts a map-backed Snapshot into columnar form
// over the given table: the way back from the map-form adapters, which
// bench/layers.go uses to time the columnar build.
func SnapshotColumnar(s *Snapshot, t *InternTable) *ColumnarSnapshot {
	b := NewColumnarBuilder(t, s.Kind, s.View, len(s.Entries))
	for _, e := range s.Entries {
		b.Add(e.ID, e.Display, e.Detail)
	}
	c := b.Build()
	c.Taken = s.Taken
	c.Elapsed = s.Elapsed
	c.Skipped = s.Skipped
	return c
}

// ColumnarBuilder accumulates rows in scan order and sorts them into a
// ColumnarSnapshot. Duplicate IDs keep the last-added row, as a keyed
// set overwritten in scan order would.
type ColumnarBuilder struct {
	table    *InternTable
	kind     ResourceKind
	view     View
	ids      []Sym
	displays []string
	details  []string
}

// NewColumnarBuilder starts a snapshot of the given kind/view with a
// capacity hint.
func NewColumnarBuilder(t *InternTable, kind ResourceKind, view View, hint int) *ColumnarBuilder {
	return &ColumnarBuilder{
		table:    t,
		kind:     kind,
		view:     view,
		ids:      make([]Sym, 0, hint),
		displays: make([]string, 0, hint),
		details:  make([]string, 0, hint),
	}
}

// Add appends one row, interning the ID.
func (b *ColumnarBuilder) Add(id, display, detail string) {
	b.AddRow(b.table.Intern(id), display, detail)
}

// AddRow appends one row with a pre-interned ID.
func (b *ColumnarBuilder) AddRow(id Sym, display, detail string) {
	b.ids = append(b.ids, id)
	b.displays = append(b.displays, display)
	b.details = append(b.details, detail)
}

// Build sorts the accumulated rows by ID symbol and collapses duplicate
// IDs (last added wins). The sort runs on packed (sym, insertion-index)
// keys — integer compares, no per-element closure state — and the three
// columns are gathered once through the resulting permutation.
func (b *ColumnarBuilder) Build() *ColumnarSnapshot {
	n := len(b.ids)
	c := &ColumnarSnapshot{Kind: b.kind, View: b.view, table: b.table}
	if n == 0 {
		return c
	}
	// Packed key: symbol in the high 32 bits, insertion index in the
	// low 32. Ascending order is (symbol, insertion order), which makes
	// the plain unstable sort stable and puts the last-added duplicate
	// at the end of its run.
	keys := make([]uint64, n)
	for i, sym := range b.ids {
		keys[i] = uint64(sym)<<32 | uint64(uint32(i))
	}
	slices.Sort(keys)
	c.ids = make([]Sym, 0, n)
	c.displays = make([]string, 0, n)
	c.details = make([]string, 0, n)
	for i, k := range keys {
		sym := Sym(k >> 32)
		if i+1 < n && Sym(keys[i+1]>>32) == sym {
			continue // a later add of the same ID wins
		}
		src := int(uint32(k))
		c.ids = append(c.ids, sym)
		c.displays = append(c.displays, b.displays[src])
		c.details = append(c.details, b.details[src])
	}
	return c
}
