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
// use: a parallel sweep's file and ASEP lanes each take their own lock,
// so the two truth sources never serialize against each other. The
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

	filesMu  sync.Mutex
	files    *ColumnarSnapshot
	filesGen uint64

	asepsMu  sync.Mutex
	aseps    *ColumnarSnapshot
	asepsKey string

	remMu  sync.Mutex
	rem    *ColumnarSnapshot
	remKey string

	hits, misses atomic.Int64
}

// NewScanCache returns an empty cache bound to m.
func NewScanCache(m *machine.Machine) *ScanCache {
	return &ScanCache{m: m, intern: NewInternTable()}
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
	c.filesMu.Lock()
	c.files = nil
	c.filesMu.Unlock()
	c.asepsMu.Lock()
	c.aseps = nil
	c.asepsMu.Unlock()
	c.remMu.Lock()
	c.rem = nil
	c.remMu.Unlock()
}

// hitColumnar stamps a cached snapshot for the current virtual time. The
// columns are shared with the cached copy — snapshots are never mutated
// after Build, only diffed.
func hitColumnar(cached *ColumnarSnapshot, clock *vtime.Clock, elapsed time.Duration) *ColumnarSnapshot {
	snap := *cached
	snap.Taken = clock.Now()
	snap.Elapsed = elapsed
	return &snap
}

// scanFilesLowOn is the cached low-level file scan: it returns the
// memoized raw-MFT snapshot when the volume generation is unchanged,
// charging clk only the verify pass.
func (c *ScanCache) scanFilesLowOn(clk *vtime.Clock, workers int) (*ColumnarSnapshot, error) {
	c.filesMu.Lock()
	defer c.filesMu.Unlock()
	gen := c.m.Disk.Generation()
	if c.files != nil && c.filesGen == gen {
		c.hits.Add(1)
		sw := vtime.NewStopwatch(clk)
		clk.ChargeBytes(ntfs.BytesPerSector, diskBytesPerSecond(c.m.Profile))
		clk.ChargeOps(1, costCacheVerifyDisk)
		return hitColumnar(c.files, clk, sw.Elapsed()), nil
	}
	c.misses.Add(1)
	epoch := c.faultEpoch()
	snap, err := ScanFilesLowC(c.m, clk, workers, c.intern)
	if err != nil {
		return nil, err
	}
	if c.faultEpoch() != epoch {
		// A fault fired during the parse: the snapshot may describe
		// damaged bytes. Serve it to this sweep (the report carries the
		// degradation) but never memoize it — a warm cache must not
		// replay a poisoned parse after the fault clears.
		return snap, nil
	}
	c.files = snap
	c.filesGen = gen
	return snap, nil
}

// faultEpoch samples the machine's fault-injection epoch (zero when no
// fault layer is armed).
func (c *ScanCache) faultEpoch() uint64 {
	if fe := c.m.FaultEpoch; fe != nil {
		return fe()
	}
	return 0
}

// scanASEPLowOn is the cached low-level ASEP scan, keyed on the
// Registry mount table and every mounted hive's generation.
func (c *ScanCache) scanASEPLowOn(clk *vtime.Clock) (*ColumnarSnapshot, error) {
	c.asepsMu.Lock()
	defer c.asepsMu.Unlock()
	key := regCacheKey(c.m)
	if c.aseps != nil && c.asepsKey == key {
		c.hits.Add(1)
		sw := vtime.NewStopwatch(clk)
		clk.ChargeOps(int64(len(c.m.Reg.Roots())), costCacheVerifyHive)
		return hitColumnar(c.aseps, clk, sw.Elapsed()), nil
	}
	c.misses.Add(1)
	epoch := c.faultEpoch()
	snap, err := ScanASEPLowC(c.m, clk, c.intern)
	if err != nil {
		return nil, err
	}
	if c.faultEpoch() != epoch {
		// See scanFilesLowOn: a parse that raced a fired fault is served
		// once but never memoized.
		return snap, nil
	}
	c.aseps = snap
	c.asepsKey = key
	return snap, nil
}

// scanRemovableLowOn is the cached removable truth scan, keyed on the
// machine's removable key (hot-plug event count + volume generation).
// Attaching, detaching, or writing the stick all move the key, so a
// cached parse of the previous stick can never stand in for the current
// one.
func (c *ScanCache) scanRemovableLowOn(clk *vtime.Clock) (*ColumnarSnapshot, error) {
	c.remMu.Lock()
	defer c.remMu.Unlock()
	key := c.m.RemovableKey()
	if c.rem != nil && c.remKey == key {
		c.hits.Add(1)
		sw := vtime.NewStopwatch(clk)
		clk.ChargeBytes(ntfs.BytesPerSector, diskBytesPerSecond(c.m.Profile))
		clk.ChargeOps(1, costCacheVerifyDisk)
		return hitColumnar(c.rem, clk, sw.Elapsed()), nil
	}
	c.misses.Add(1)
	epoch := c.faultEpoch()
	snap, err := scanRemovableLowC(c.m, clk, c.intern)
	if err != nil {
		return nil, err
	}
	if c.faultEpoch() != epoch {
		// See scanFilesLowOn: a parse that raced a fired fault is served
		// once but never memoized.
		return snap, nil
	}
	c.rem = snap
	c.remKey = key
	return snap, nil
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
