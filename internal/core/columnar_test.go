package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestInternTableBasics(t *testing.T) {
	tab := NewInternTable()
	a := tab.Intern("alpha")
	b := tab.Intern("beta")
	if a == b {
		t.Fatal("distinct strings must get distinct symbols")
	}
	if tab.Intern("alpha") != a {
		t.Fatal("re-interning must return the same symbol")
	}
	if tab.InternBytes([]byte("alpha")) != a {
		t.Fatal("InternBytes must agree with Intern")
	}
	if tab.Str(a) != "alpha" || tab.Str(b) != "beta" {
		t.Fatal("Str must resolve symbols")
	}
	if got := tab.InternStrBytes([]byte("beta")); got != "beta" {
		t.Fatalf("InternStrBytes = %q", got)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
}

// TestInternBytesWarmZeroAlloc pins the warm interning path: once an
// identity is in the table, re-interning its bytes must not allocate.
// This is what makes warm snapshot rebuilds allocation-free.
func TestInternBytesWarmZeroAlloc(t *testing.T) {
	tab := NewInternTable()
	id := []byte(`C:\WINDOWS\SYSTEM32\NTOSKRNL.EXE`)
	tab.InternBytes(id)
	if got := testing.AllocsPerRun(100, func() {
		tab.InternBytes(id)
	}); got != 0 {
		t.Errorf("warm InternBytes allocs = %v, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if tab.InternStrBytes(id) == "" {
			t.Fatal("empty resolution")
		}
	}); got != 0 {
		t.Errorf("warm InternStrBytes allocs = %v, want 0", got)
	}
}

// TestColumnarBuilderLastWins pins the duplicate-ID semantics of a keyed
// set overwritten in scan order: the last-added row of an ID wins.
func TestColumnarBuilderLastWins(t *testing.T) {
	tab := NewInternTable()
	b := NewColumnarBuilder(tab, KindFiles, ViewRawMFT, 4)
	b.Add(`C:\A`, "first", "d1")
	b.Add(`C:\B`, "other", "d2")
	b.Add(`C:\A`, "second", "d3")
	c := b.Build()
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	want := map[string]Entry{
		`C:\A`: {ID: `C:\A`, Display: "second", Detail: "d3"},
		`C:\B`: {ID: `C:\B`, Display: "other", Detail: "d2"},
	}
	if got := c.Snapshot().Entries; !reflect.DeepEqual(got, want) {
		t.Fatalf("last add must win:\ngot  %+v\nwant %+v", got, want)
	}
}

// buildPair builds two columnar snapshots over one table: a truth side
// with n entries and a high side missing every ID in hide and carrying
// every ID in phantom.
func buildPair(tab *InternTable, n int, hide, phantom map[int]bool) (high, low *ColumnarSnapshot) {
	hb := NewColumnarBuilder(tab, KindFiles, ViewWin32Inside, n)
	lb := NewColumnarBuilder(tab, KindFiles, ViewRawMFT, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf(`C:\FILES\FILE%06d.DAT`, i)
		if !hide[i] {
			hb.Add(id, id, "1 bytes")
		}
		lb.Add(id, id, "1 bytes")
	}
	for i := range phantom {
		id := fmt.Sprintf(`C:\PHANTOM\GHOST%06d.TMP`, i)
		hb.Add(id, id, "0 bytes")
	}
	return hb.Build(), lb.Build()
}

// TestDiffColumnarMatchesMapEngine checks the merge-join against the
// keyed-set difference its inputs define: every hidden ID (in the low
// view only) is reported Hidden, every phantom ID (in the high view
// only) Phantom, each with its own side's display and detail, in ID
// order, and the mass-hiding anomaly trips above the threshold. (The
// corpus-wide version lives in ghostfuzz.)
func TestDiffColumnarMatchesMapEngine(t *testing.T) {
	cases := []struct {
		name    string
		hide    map[int]bool
		phantom map[int]bool
		opts    DiffOptions
	}{
		{"clean", nil, nil, DiffOptions{}},
		{"hidden", map[int]bool{3: true, 400: true, 999: true}, nil, DiffOptions{}},
		{"phantom", nil, map[int]bool{1: true, 2: true}, DiffOptions{}},
		{"both", map[int]bool{0: true, 512: true}, map[int]bool{7: true}, DiffOptions{}},
		{"mass-hiding", func() map[int]bool {
			m := map[int]bool{}
			for i := 0; i < 200; i++ {
				m[i] = true
			}
			return m
		}(), nil, DiffOptions{}},
		{"noise-filtered", map[int]bool{5: true}, nil,
			DiffOptions{NoiseFilters: BaselineNoiseFilters()}},
	}
	const n = 1000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := NewInternTable()
			high, low := buildPair(tab, n, tc.hide, tc.phantom)
			r, err := DiffColumnar(high, low, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want := &Report{Kind: KindFiles, HighView: ViewWin32Inside, LowView: ViewRawMFT}
			for i := 0; i < n; i++ { // IDs are zero-padded: index order is ID order
				if id := fmt.Sprintf(`C:\FILES\FILE%06d.DAT`, i); tc.hide[i] {
					want.Hidden = append(want.Hidden, Finding{Kind: KindFiles, ID: id, Display: id, Detail: "1 bytes"})
				}
				if id := fmt.Sprintf(`C:\PHANTOM\GHOST%06d.TMP`, i); tc.phantom[i] {
					want.Phantom = append(want.Phantom, Finding{Kind: KindFiles, ID: id, Display: id, Detail: "0 bytes"})
				}
			}
			want.Elapsed = time.Duration(2*n-len(tc.hide)+len(tc.phantom)) * costDiffPerEntry
			if len(want.Hidden) > DefaultMassHidingThreshold {
				want.MassHiding = &MassHidingAnomaly{HiddenCount: len(want.Hidden), Threshold: DefaultMassHidingThreshold}
			}
			if !reflect.DeepEqual(r, want) {
				got, _ := json.Marshal(r)
				exp, _ := json.Marshal(want)
				t.Fatalf("diff disagrees with the set difference:\ngot  %s\nwant %s", got, exp)
			}
		})
	}
}

// TestDiffColumnarTableMismatchErrors: snapshots from different tables
// have incomparable symbol orders, so both entry points refuse them
// loudly instead of guessing.
func TestDiffColumnarTableMismatchErrors(t *testing.T) {
	high := snapOf(NewInternTable(), KindFiles, ViewWin32Inside, `C:\B`)
	low := snapOf(NewInternTable(), KindFiles, ViewRawMFT, `C:\B`, `C:\A`)
	if r, err := DiffColumnar(high, low, DiffOptions{}); err == nil {
		t.Fatalf("DiffColumnar must refuse mismatched tables, got %+v", r)
	}
	if err := DiffColumnarInto(&Report{}, high, low, DiffOptions{}); err == nil {
		t.Fatal("DiffColumnarInto must refuse mismatched tables")
	}
}

func TestDiffColumnarKindMismatch(t *testing.T) {
	tab := NewInternTable()
	h := NewColumnarBuilder(tab, KindFiles, ViewWin32Inside, 0).Build()
	l := NewColumnarBuilder(tab, KindProcesses, ViewKernelCID, 0).Build()
	if _, err := DiffColumnar(h, l, DiffOptions{}); err == nil {
		t.Fatal("kind mismatch must error")
	}
}

// TestWarmColumnarDiffZeroAlloc is the tentpole's acceptance pin: a warm
// incremental diff of a large unchanged volume — the every-sweep fleet
// case, where both sides resolve to already-interned identities — must
// allocate nothing.
func TestWarmColumnarDiffZeroAlloc(t *testing.T) {
	tab := NewInternTable()
	high, low := buildPair(tab, 50_000, nil, nil)
	var r Report
	// Prime once (the Report itself is reused across sweeps).
	if err := DiffColumnarInto(&r, high, low, DiffOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if err := DiffColumnarInto(&r, high, low, DiffOptions{}); err != nil || r.Infected() {
			t.Fatal("warm diff must stay clean")
		}
	}); got != 0 {
		t.Errorf("warm columnar diff allocs = %v, want 0", got)
	}
}

// TestSortFindingsZeroAllocClean pins the slices.SortFunc migration: the
// clean case (nothing to sort) must not allocate, unlike the old
// sort.Slice closure form.
func TestSortFindingsZeroAllocClean(t *testing.T) {
	var empty []Finding
	one := []Finding{{ID: "X"}}
	two := []Finding{{ID: "B"}, {ID: "A"}}
	if got := testing.AllocsPerRun(100, func() {
		sortFindings(empty)
		sortFindings(one)
		sortFindings(two)
	}); got != 0 {
		t.Errorf("sortFindings allocs = %v, want 0", got)
	}
	if two[0].ID != "A" || two[1].ID != "B" {
		t.Fatalf("sortFindings did not sort: %+v", two)
	}
}

// TestSnapshotJSONRoundTrip pins the Snapshot wire format across the
// columnar migration: all fields tagged, round-trip lossless.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	tab := NewInternTable()
	b := NewColumnarBuilder(tab, KindASEPHooks, ViewRawHive, 2)
	b.Add("HKLM\\RUN\\EVIL", "HKLM\\Run\\evil", "evil.exe")
	b.Add("HKLM\\RUN\\OK", "HKLM\\Run\\ok", "ok.exe")
	c := b.Build()
	c.Taken = 1234
	c.Elapsed = 5678
	c.Skipped = 2
	snap := c.Snapshot()

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"kind", "view", "takenNs", "entries", "elapsedNs", "skipped"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("snapshot JSON missing %q key: %s", k, data)
		}
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, snap) {
		t.Fatalf("round trip lost data:\nin  %+v\nout %+v", snap, &back)
	}
}

// FuzzInternTable drives the interning table with arbitrary string
// pairs: symbols must collide exactly when the strings are equal, and
// every symbol must resolve back to its exact string — over both the
// string and byte entry points.
func FuzzInternTable(f *testing.F) {
	f.Add("", "")
	f.Add("a", "a")
	f.Add("a", "b")
	f.Add(`C:\WINDOWS`, `C:\WINDOWS\SYSTEM32`)
	f.Add("x\x00y", "x\x00z")
	f.Add("\xff\xfe", "\xff")
	f.Fuzz(func(t *testing.T, a, b string) {
		tab := NewInternTable()
		sa := tab.Intern(a)
		sb := tab.InternBytes([]byte(b))
		if (sa == sb) != (a == b) {
			t.Fatalf("collision mismatch: Intern(%q)=%d InternBytes(%q)=%d", a, sa, b, sb)
		}
		if tab.Str(sa) != a || tab.Str(sb) != b {
			t.Fatalf("resolution mismatch: %q->%q, %q->%q", a, tab.Str(sa), b, tab.Str(sb))
		}
		if tab.Intern(a) != sa || tab.Intern(b) != sb {
			t.Fatal("symbols must be stable across re-interning")
		}
		if tab.InternStrBytes([]byte(a)) != a {
			t.Fatal("InternStrBytes must return the exact string")
		}
		// Symbols index densely from zero — the columnar sort depends on a
		// total order, and Str depends on in-range symbols.
		want := 1
		if a != b {
			want = 2
		}
		if tab.Len() != want {
			t.Fatalf("Len = %d, want %d", tab.Len(), want)
		}
	})
}
