// Diff-engine microbenchmark: the columnar engine (interned build,
// merge-join diff) over a synthetic volume pair, cold and warm.
// Allocation counts come from runtime.MemStats on a quiesced heap, so
// they are stable enough to gate on per-entry.
package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"ghostbuster/internal/core"
)

// diffBenchResult is the "diff" section of BENCH_sweep.json.
type diffBenchResult struct {
	Entries int `json:"entries"`
	Hidden  int `json:"hidden"`
	// Cold: interned builders and the sorted merge-join. The build/diff
	// wall split is informational (never gated).
	ColBuildNs int64  `json:"colBuildNs"`
	ColDiffNs  int64  `json:"colDiffNs"`
	ColAllocs  uint64 `json:"colAllocs"`
	ColBytes   uint64 `json:"colBytes"`
	// Scale-invariant, gated by benchgate: allocations per entry.
	ColAllocsPerEntry float64 `json:"colAllocsPerEntry"`
	// Per-op allocations of a warm incremental diff (report storage
	// reused, both sides already interned). Pinned to zero.
	WarmDiffAllocsPerOp float64 `json:"warmDiffAllocsPerOp"`
}

// appendBenchRow formats the i-th synthetic file's ID, display, and
// detail into the three scratch buffers, mirroring how scanners build
// entry strings byte-wise before interning.
func appendBenchRow(id, disp, det []byte, i int) (idB, dispB, detB []byte) {
	id = append(id[:0], `\WINDOWS\SYSTEM32\BENCH-`...)
	id = strconv.AppendInt(id, int64(i), 10)
	id = append(id, `.DLL`...)
	disp = append(disp[:0], `C:\Windows\System32\bench-`...)
	disp = strconv.AppendInt(disp, int64(i), 10)
	disp = append(disp, `.dll`...)
	det = append(det[:0], "size "...)
	det = strconv.AppendInt(det, int64(i*7%4096), 10)
	return id, disp, det
}

// measured runs f on a quiesced heap and returns its wall time and the
// allocations it performed. Single-goroutine by construction.
func measured(f func()) (ns int64, allocs, bytes uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	ns = int64(time.Since(start))
	runtime.ReadMemStats(&after)
	return ns, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// benchSink keeps benchmark results live so the compiler cannot elide
// the measured work.
var benchSink any

// runDiffBench times the columnar engine over a pair of synthetic file
// snapshots: the low view holds every high entry plus `hidden` extras
// (the ghostware), so the diff finds exactly `hidden` findings.
func runDiffBench(entries, hidden int) (diffBenchResult, error) {
	res := diffBenchResult{Entries: entries, Hidden: hidden}
	opts := core.DiffOptions{}

	// --- cold: one shared intern table; the low build's common IDs are
	// warm intern hits, exactly as in a real sweep where both views
	// describe the same volume. The table is pre-sized (~3 distinct
	// strings per entry).
	tab := core.NewInternTableHint(3 * entries)
	var colHigh, colLow *core.ColumnarSnapshot
	buildCol := func(n int, view core.View) *core.ColumnarSnapshot {
		b := core.NewColumnarBuilder(tab, core.KindFiles, view, n)
		var idB, dispB, detB []byte
		for i := 0; i < n; i++ {
			idB, dispB, detB = appendBenchRow(idB, dispB, detB, i)
			b.AddRow(tab.InternBytes(idB), tab.InternStrBytes(dispB), tab.InternStrBytes(detB))
		}
		return b.Build()
	}
	ns, allocs, bytes := measured(func() {
		colHigh = buildCol(entries, core.ViewWin32Inside)
		colLow = buildCol(entries+hidden, core.ViewRawMFT)
	})
	res.ColBuildNs, res.ColAllocs, res.ColBytes = ns, allocs, bytes
	var colReport *core.Report
	ns, allocs, bytes = measured(func() {
		var err error
		if colReport, err = core.DiffColumnar(colHigh, colLow, opts); err != nil {
			panic(err)
		}
	})
	res.ColDiffNs = ns
	res.ColAllocs += allocs
	res.ColBytes += bytes
	benchSink = colReport
	if len(colReport.Hidden) != hidden {
		return res, fmt.Errorf("columnar diff found %d hidden, want %d", len(colReport.Hidden), hidden)
	}

	// --- warm incremental diff: unchanged volume, report reused.
	colLowClean := buildCol(entries, core.ViewRawMFT)
	warm := new(core.Report)
	if err := core.DiffColumnarInto(warm, colHigh, colLowClean, opts); err != nil {
		return res, err
	}
	const warmOps = 20
	_, allocs, _ = measured(func() {
		for i := 0; i < warmOps; i++ {
			if err := core.DiffColumnarInto(warm, colHigh, colLowClean, opts); err != nil {
				panic(err)
			}
		}
	})
	benchSink = warm
	res.WarmDiffAllocsPerOp = float64(allocs) / warmOps

	res.ColAllocsPerEntry = float64(res.ColAllocs) / float64(entries)
	return res, nil
}
