package core

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ghostbuster/internal/machine"
	"ghostbuster/internal/ntfs"
	"ghostbuster/internal/vtime"
)

// Cache-hit verify costs for the virtual-time model. A hit does not
// reread the MFT or the hive files; it rereads the boot sector / hive
// headers and the mutation generation counters and compares them to the
// cached keys. That is a couple of random reads plus a handful of
// comparisons, charged as a flat verify pass per source (see DESIGN.md,
// "Incremental cross-view scanning").
const (
	costCacheVerifyDisk = 2 * time.Millisecond
	costCacheVerifyHive = 500 * time.Microsecond
)

// ScanCache memoizes the parsed low-level snapshots of one machine's
// byte-level truth sources, keyed on their mutation generations. The
// sweep loop of a fleet deployment runs daily on mostly idle desktops;
// when nothing changed on disk since the last sweep, re-parsing the
// full MFT image and re-copying every Registry hive is pure waste. The
// cache turns those repeat parses into generation checks.
//
// Safety argument: every mutation path to the underlying bytes bumps a
// generation counter — ntfs.Volume mutators (create/write/remove/ADS
// ops), hive commits, Registry mount-table changes, and the
// machine.WriteDeviceBytes hook for direct device writes. A generation
// mismatch always forces a full reparse, so a file or ASEP hook hidden
// after a cached sweep is re-discovered on the next sweep; a stale
// snapshot can never mask it. The cache only ever serves the low-level
// (truth) side: high-level scans go through the hookable API chain and
// are re-run every sweep, so newly installed interception is still
// caught even when the disk bytes are unchanged.
//
// A ScanCache is owned by a single machine and is safe for concurrent
// use: each truth source is one memo slot with its own lock. The
// generation key is always read before the parse, so a mutation racing
// a miss can only make the cached copy stale-keyed (forcing a reparse
// next sweep), never mask a change.
//
// Ownership note for the columnar engine: cached snapshots index the
// cache's own intern table (which the owning detector shares via
// Detector.table), and everything a columnar snapshot references is
// owned memory — the raw parses copy-on-retain at this boundary, so a
// cached snapshot never borrows from the live device buffer it was
// parsed from.
type ScanCache struct {
	m      *machine.Machine
	intern *InternTable

	files memo[uint64] // raw MFT, keyed on the volume generation
	aseps memo[string] // raw hives, keyed on regCacheKey
	rem   memo[string] // removable stick, keyed on Machine.RemovableKey

	hits, misses atomic.Int64
}

// NewScanCache returns an empty cache bound to m.
func NewScanCache(m *machine.Machine) *ScanCache {
	return &ScanCache{
		m:      m,
		intern: NewInternTable(),
		files:  memo[uint64]{keyOf: func(m *machine.Machine) uint64 { return m.Disk.Generation() }, verify: verifyDisk},
		aseps:  memo[string]{keyOf: regCacheKey, verify: verifyHives},
		// Attaching, detaching, or writing the stick all move its key, so
		// a cached parse of the previous stick never stands in for the
		// current one.
		rem: memo[string]{keyOf: (*machine.Machine).RemovableKey, verify: verifyDisk},
	}
}

// table returns the cache's interning table; detectors with a cache
// attached build all their snapshots over it.
func (c *ScanCache) table() *InternTable { return c.intern }

// Stats reports cache effectiveness counters.
type CacheStats struct {
	Hits, Misses int
}

// Stats returns hit/miss counters accumulated since construction.
func (c *ScanCache) Stats() CacheStats {
	return CacheStats{Hits: int(c.hits.Load()), Misses: int(c.misses.Load())}
}

// Invalidate drops all cached snapshots; the next scans reparse fully.
// The intern table is retained: identities seen before the invalidation
// keep their symbols, which is what makes the post-invalidation reparse
// cheap.
func (c *ScanCache) Invalidate() {
	c.files.reset()
	c.aseps.reset()
	c.rem.reset()
}

// faultEpoch samples the machine's fault-injection epoch (zero when no
// fault layer is armed).
func (c *ScanCache) faultEpoch() uint64 {
	if fe := c.m.FaultEpoch; fe != nil {
		return fe()
	}
	return 0
}

// memo is one memoized truth-side parse, keyed on the mutation
// generation(s) of the source it parses. Each slot takes its own lock,
// so a parallel sweep's truth sources never serialize against each
// other.
type memo[K comparable] struct {
	keyOf  func(*machine.Machine) K
	verify func(*machine.Machine, *vtime.Clock) // a hit's virtual cost

	mu   sync.Mutex
	snap *ColumnarSnapshot
	key  K
}

// scan returns the memoized snapshot when the source's key is unchanged,
// charging clk only the verify pass, and runs parse otherwise. The hit
// shares the cached columns, stamped for the current virtual time —
// snapshots are never mutated after Build, only diffed.
func (mo *memo[K]) scan(c *ScanCache, clk *vtime.Clock, parse func() (*ColumnarSnapshot, error)) (*ColumnarSnapshot, error) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	key := mo.keyOf(c.m)
	if mo.snap != nil && mo.key == key {
		c.hits.Add(1)
		sw := vtime.NewStopwatch(clk)
		mo.verify(c.m, clk)
		snap := *mo.snap
		snap.Taken = clk.Now()
		snap.Elapsed = sw.Elapsed()
		return &snap, nil
	}
	c.misses.Add(1)
	epoch := c.faultEpoch()
	snap, err := parse()
	if err != nil {
		return nil, err
	}
	// A parse that raced a fired fault may describe damaged bytes: serve
	// it to this sweep (the report carries the degradation) but never
	// memoize it — a warm cache must not replay a poisoned parse after
	// the fault clears.
	if c.faultEpoch() == epoch {
		mo.snap, mo.key = snap, key
	}
	return snap, nil
}

func (mo *memo[K]) reset() {
	mo.mu.Lock()
	mo.snap = nil
	mo.mu.Unlock()
}

// verifyDisk charges a hit on a disk-backed source: a boot-sector reread
// plus the generation compare.
func verifyDisk(m *machine.Machine, clk *vtime.Clock) {
	clk.ChargeBytes(ntfs.BytesPerSector, diskBytesPerSecond(m.Profile))
	clk.ChargeOps(1, costCacheVerifyDisk)
}

// verifyHives charges a Registry hit: one header reread per mounted hive.
func verifyHives(m *machine.Machine, clk *vtime.Clock) {
	clk.ChargeOps(int64(len(m.Reg.Roots())), costCacheVerifyHive)
}

// GenerationKey folds a machine's byte-level substrate generations into
// one comparable key: the disk volume's mutation generation, the
// registry mount-table/hive key the ASEP cache is keyed on, and the
// removable drive's hot-plug key. Anything that could change what the
// truth-side parses see moves the key, and nothing else does — the
// resident daemon polls it to decide whether a registered host needs an
// incremental re-sweep or is quiet. Reading the key costs a few counter
// loads, no parsing.
func GenerationKey(m *machine.Machine) string {
	return strconv.FormatUint(m.Disk.Generation(), 10) + "/" + regCacheKey(m) + "/rem=" + m.RemovableKey()
}

// regCacheKey folds the mount-table generation and each mounted hive's
// root and generation into one comparable key. A plain sum would be
// ambiguous (unmounting a gen-1 hive bumps the mount generation by one,
// netting zero); the explicit tuple is collision-free.
func regCacheKey(m *machine.Machine) string {
	var b strings.Builder
	b.WriteString(strconv.FormatUint(m.Reg.Generation(), 10))
	for _, root := range m.Reg.Roots() {
		h, ok := m.Reg.HiveAt(root)
		if !ok {
			continue
		}
		b.WriteByte('|')
		b.WriteString(root)
		b.WriteByte('=')
		b.WriteString(strconv.FormatUint(h.Generation(), 10))
	}
	return b.String()
}
