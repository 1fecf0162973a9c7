package core

import (
	"strings"
	"testing"
)

// The hot-path helpers were rewritten to stop paying fmt.Sprintf /
// unconditional strings.ToUpper per entry; these assertions pin the
// allocation behavior so a regression shows up as a test failure, not
// just a slower benchmark.

func TestFileIDAllocs(t *testing.T) {
	canonical := `C:\WINDOWS\SYSTEM32\NTOSKRNL.EXE`
	if got := testing.AllocsPerRun(100, func() {
		if fileID(canonical) != canonical {
			t.Fatal("canonical path must round-trip")
		}
	}); got != 0 {
		t.Errorf("fileID(canonical) allocs = %v, want 0", got)
	}
	lower := `C:\windows\system32\drivers\etc\hosts`
	want := strings.ToUpper(lower)
	if got := testing.AllocsPerRun(100, func() {
		if fileID(lower) != want {
			t.Fatal("upcase mismatch")
		}
	}); got > 2 {
		t.Errorf("fileID(lowercase) allocs = %v, want <= 2", got)
	}
}

// TestProcIDAllocs pins the process/module identity shaping: the
// "PID <n>: <UPPER>" ID is appended into a reused scratch buffer, so a
// warm scan shapes every row without allocating.
func TestProcIDAllocs(t *testing.T) {
	buf := appendPidUpperID(nil, 4321, "lsass.exe")
	if string(buf) != "PID 4321: LSASS.EXE" {
		t.Fatalf("process ID = %q", buf)
	}
	if got := testing.AllocsPerRun(100, func() {
		buf = appendPidUpperID(buf, 4321, "lsass.exe")
		buf = appendPidUpperID(buf, 4321, `C:\WINDOWS\system32\ntdll.dll`)
	}); got != 0 {
		t.Errorf("warm process/module ID allocs = %v, want 0", got)
	}
}

// TestDiffInnerLoopAllocs bounds the diff of two identical snapshots —
// the every-sweep clean case. The loop itself must not allocate; the
// budget covers only the Report and its bookkeeping.
func TestDiffInnerLoopAllocs(t *testing.T) {
	b := NewColumnarBuilder(NewInternTable(), KindFiles, ViewWin32Inside, 512)
	for i := 0; i < 512; i++ {
		path := `C:\FILES\FILE` + itoa(i) + `.DAT`
		b.Add(fileID(path), path, "1 bytes")
	}
	snap := b.Build()
	if got := testing.AllocsPerRun(100, func() {
		r, err := DiffColumnar(snap, snap, DiffOptions{})
		if err != nil || r.Infected() {
			t.Fatal("diff of identical snapshots must be clean")
		}
	}); got > 3 {
		t.Errorf("clean diff allocs = %v, want <= 3", got)
	}
}

// TestScanOrderAllocs pins that drawing a randomized execution order is
// allocation-free when the permutation lives in the detector's
// fixed-size stack array.
func TestScanOrderAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() {
		var perm [maxScanUnits]int
		scanOrder(perm[:], 12345)
	}); got != 0 {
		t.Errorf("scanOrder allocs = %v, want 0", got)
	}
}

// TestOrderedWarmSweepAllocs is the benchgate guard for randomized
// ordering: on the warm cached diff path, a nonzero OrderSeed must add
// only a constant number of allocations per sweep — nothing per entry.
// The machine carries thousands of files, so a per-entry regression
// would blow the slack by orders of magnitude.
func TestOrderedWarmSweepAllocs(t *testing.T) {
	measure := func(seed int64) float64 {
		m := mustMachine(t)
		d := NewCachedDetector(m)
		d.Advanced = true
		d.Units = UnitCrossMem | UnitBootChain | UnitRemovable
		d.OrderSeed = seed
		if _, err := d.ScanAll(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := d.ScanAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
	fixed := measure(0)
	ordered := measure(12345)
	// A per-entry regression would add thousands of allocations (one per
	// snapshot entry); the slack only absorbs scheduler/GC jitter, which
	// the race detector amplifies.
	slack := fixed/20 + 32
	if ordered > fixed+slack {
		t.Errorf("warm ordered sweep allocs = %v, fixed order = %v (slack %v); randomized ordering must not add per-entry allocations", ordered, fixed, slack)
	}
}
