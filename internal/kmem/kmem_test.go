package kmem

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestAllocAlignmentAndGrowth(t *testing.T) {
	a := New()
	p1 := a.Alloc(1)
	p2 := a.Alloc(9)
	p3 := a.Alloc(16)
	if p1%8 != 0 || p2%8 != 0 || p3%8 != 0 {
		t.Fatalf("allocations not 8-byte aligned: %#x %#x %#x", p1, p2, p3)
	}
	if p2 != p1+8 {
		t.Errorf("1-byte alloc should consume 8 bytes: p1=%#x p2=%#x", p1, p2)
	}
	if p3 != p2+16 {
		t.Errorf("9-byte alloc should consume 16 bytes: p2=%#x p3=%#x", p2, p3)
	}
	// Force growth well past the initial page.
	big := a.Alloc(1 << 16)
	if err := a.WriteU64(big+(1<<16)-8, 0xdeadbeef); err != nil {
		t.Fatalf("write at end of big alloc: %v", err)
	}
}

func TestAllocZeroSize(t *testing.T) {
	a := New()
	p := a.Alloc(0)
	q := a.Alloc(0)
	if p == q {
		t.Fatal("zero-size allocations must still return distinct addresses")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	a := New()
	p := a.Alloc(32)
	if err := a.WriteU64(p, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := a.ReadU64(p)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Errorf("ReadU64 = %#x, want 0x1122334455667788", v)
	}
	if err := a.WriteU32(p+8, 0xcafebabe); err != nil {
		t.Fatal(err)
	}
	u, err := a.ReadU32(p + 8)
	if err != nil {
		t.Fatal(err)
	}
	if u != 0xcafebabe {
		t.Errorf("ReadU32 = %#x, want 0xcafebabe", u)
	}
}

func TestBadAddress(t *testing.T) {
	a := New()
	cases := []uint64{0, Base - 1, Base + uint64(len(a.Snapshot())) + 1<<20}
	for _, addr := range cases {
		if _, err := a.ReadU64(addr); err == nil {
			t.Errorf("ReadU64(%#x) should fail", addr)
		} else {
			var bad *ErrBadAddress
			if !errors.As(err, &bad) {
				t.Errorf("ReadU64(%#x) error type = %T, want *ErrBadAddress", addr, err)
			}
		}
	}
	if err := a.WriteU64(Base+1<<30, 1); err == nil {
		t.Error("WriteU64 past end should fail")
	}
}

func TestCStringRoundTrip(t *testing.T) {
	a := New()
	p := a.Alloc(16)
	if err := a.WriteCString(p, "explorer.exe", 16); err != nil {
		t.Fatal(err)
	}
	s, err := a.ReadCString(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s != "explorer.exe" {
		t.Errorf("ReadCString = %q, want explorer.exe", s)
	}
}

func TestCStringTruncation(t *testing.T) {
	a := New()
	p := a.Alloc(8)
	if err := a.WriteCString(p, "averylongprocessname.exe", 8); err != nil {
		t.Fatal(err)
	}
	s, err := a.ReadCString(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s != "averylo" {
		t.Errorf("truncated ReadCString = %q, want averylo (7 chars + NUL)", s)
	}
}

func TestListInitIsEmpty(t *testing.T) {
	a := New()
	head := a.Alloc(ListEntrySize)
	if err := a.ListInit(head); err != nil {
		t.Fatal(err)
	}
	got, err := a.ListWalk(head, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty list walk returned %d entries", len(got))
	}
}

func TestListInsertAndWalkOrder(t *testing.T) {
	a := New()
	head := a.Alloc(ListEntrySize)
	if err := a.ListInit(head); err != nil {
		t.Fatal(err)
	}
	var entries []uint64
	for i := 0; i < 5; i++ {
		e := a.Alloc(ListEntrySize)
		entries = append(entries, e)
		if err := a.ListInsertTail(head, e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := a.ListWalk(head, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("walk returned %d entries, want 5", len(got))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("walk[%d] = %#x, want %#x (insertion order)", i, got[i], entries[i])
		}
	}
}

// TestListRemoveMiddle is the DKOM scenario: unlink an entry and confirm
// the walk no longer sees it while the rest of the list stays intact.
func TestListRemoveMiddle(t *testing.T) {
	a := New()
	head := a.Alloc(ListEntrySize)
	if err := a.ListInit(head); err != nil {
		t.Fatal(err)
	}
	var entries []uint64
	for i := 0; i < 4; i++ {
		e := a.Alloc(ListEntrySize)
		entries = append(entries, e)
		if err := a.ListInsertTail(head, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.ListRemove(entries[1]); err != nil {
		t.Fatal(err)
	}
	got, err := a.ListWalk(head, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{entries[0], entries[2], entries[3]}
	if len(got) != len(want) {
		t.Fatalf("after remove, walk = %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("walk[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
	// The removed entry must be self-linked, as FU leaves it.
	flink, _ := a.ReadU64(entries[1])
	blink, _ := a.ReadU64(entries[1] + 8)
	if flink != entries[1] || blink != entries[1] {
		t.Errorf("removed entry not self-linked: flink=%#x blink=%#x", flink, blink)
	}
}

func TestListWalkDetectsRunaway(t *testing.T) {
	a := New()
	head := a.Alloc(ListEntrySize)
	if err := a.ListInit(head); err != nil {
		t.Fatal(err)
	}
	e1 := a.Alloc(ListEntrySize)
	e2 := a.Alloc(ListEntrySize)
	// Hand-build a cycle that never returns to head: e1 -> e2 -> e1.
	if err := a.WriteU64(head, e1); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteU64(e1, e2); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteU64(e2, e1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ListWalk(head, 16); err == nil {
		t.Error("walking a corrupt cyclic list should error, not loop forever")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	a := New()
	p := a.Alloc(8)
	if err := a.WriteU64(p, 42); err != nil {
		t.Fatal(err)
	}
	img := a.Snapshot()
	if err := a.WriteU64(p, 99); err != nil {
		t.Fatal(err)
	}
	r := NewImageReader(img)
	v, err := r.ReadU64(p)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("snapshot value = %d, want 42 (must not alias live memory)", v)
	}
	live, _ := a.ReadU64(p)
	if live != 99 {
		t.Errorf("live value = %d, want 99", live)
	}
}

func TestImageReaderMatchesArena(t *testing.T) {
	a := New()
	p := a.Alloc(64)
	if err := a.WriteCString(p, "services.exe", 32); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteU64(p+32, 0xabcd); err != nil {
		t.Fatal(err)
	}
	r := NewImageReader(a.Snapshot())
	s, err := r.ReadCString(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	if s != "services.exe" {
		t.Errorf("image ReadCString = %q", s)
	}
	v, err := r.ReadU64(p + 32)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xabcd {
		t.Errorf("image ReadU64 = %#x", v)
	}
	if _, err := r.ReadU64(Base + uint64(len(a.Snapshot()))); err == nil {
		t.Error("image read past end should fail")
	}
}

func TestWalkListOverImageEqualsLive(t *testing.T) {
	a := New()
	head := a.Alloc(ListEntrySize)
	if err := a.ListInit(head); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e := a.Alloc(ListEntrySize)
		if err := a.ListInsertTail(head, e); err != nil {
			t.Fatal(err)
		}
	}
	live, err := a.ListWalk(head, 10)
	if err != nil {
		t.Fatal(err)
	}
	img, err := WalkList(NewImageReader(a.Snapshot()), head, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != len(img) {
		t.Fatalf("live walk %d entries, image walk %d", len(live), len(img))
	}
	for i := range live {
		if live[i] != img[i] {
			t.Errorf("entry %d differs: live %#x image %#x", i, live[i], img[i])
		}
	}
}

// Property: a round trip through WriteU64/ReadU64 preserves any value at
// any allocated slot.
func TestQuickU64RoundTrip(t *testing.T) {
	a := New()
	slots := make([]uint64, 64)
	for i := range slots {
		slots[i] = a.Alloc(8)
	}
	f := func(idx uint8, v uint64) bool {
		p := slots[int(idx)%len(slots)]
		if err := a.WriteU64(p, v); err != nil {
			return false
		}
		got, err := a.ReadU64(p)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: inserting N entries then removing any subset leaves exactly
// the complement on the list, in insertion order.
func TestQuickListInsertRemove(t *testing.T) {
	f := func(n uint8, removeMask uint16) bool {
		count := int(n%12) + 1
		a := New()
		head := a.Alloc(ListEntrySize)
		if err := a.ListInit(head); err != nil {
			return false
		}
		entries := make([]uint64, count)
		for i := range entries {
			entries[i] = a.Alloc(ListEntrySize)
			if err := a.ListInsertTail(head, entries[i]); err != nil {
				return false
			}
		}
		var want []uint64
		for i, e := range entries {
			if removeMask&(1<<uint(i)) != 0 {
				if err := a.ListRemove(e); err != nil {
					return false
				}
			} else {
				want = append(want, e)
			}
		}
		got, err := a.ListWalk(head, count+1)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestViewDefersWriters: View holds the read lock for all of fn, so a
// write issued while fn runs lands only after fn returns, and every read
// inside fn sees the old value.
func TestViewDefersWriters(t *testing.T) {
	a := New()
	p := a.Alloc(8)
	if err := a.WriteU64(p, 1); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	err := a.View(func(r *ImageReader) error {
		go func() { wrote <- a.WriteU64(p, 2) }()
		select {
		case err := <-wrote:
			return fmt.Errorf("write landed while the view was open (err %v)", err)
		case <-time.After(50 * time.Millisecond):
		}
		v, err := r.ReadU64(p)
		if err != nil {
			return err
		}
		if v != 1 {
			return fmt.Errorf("view read %d with a write pending, want 1", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("deferred write: %v", err)
	}
	if v, err := a.ReadU64(p); err != nil || v != 2 {
		t.Fatalf("after the view: ReadU64 = %d, %v; want 2", v, err)
	}
}

// TestViewMatchesPerAccessReads: the borrowed reader has the per-access
// methods' bounds (the whole backing store, not just the allocated
// bytes), their ErrBadAddress errors, and the arena's allocated size.
func TestViewMatchesPerAccessReads(t *testing.T) {
	a := New()
	p := a.Alloc(24)
	if err := a.WriteU64(p, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteCString(p+8, "view", 16); err != nil {
		t.Fatal(err)
	}
	past := Base + uint64(a.Size()) // allocated bytes end here; the page does not
	end := Base + 4096 + 64         // first byte past the backing store
	addrs := []uint64{p, p + 8, past, end - 8, end, end - 4, Base - 8, 1}
	// The per-access reads run before the view: a nested read lock inside
	// fn could deadlock behind a queued writer.
	want := make([]string, len(addrs))
	for i, addr := range addrs {
		v, err := a.ReadU64(addr)
		b, berr := a.ReadBytes(addr, 8)
		want[i] = fmt.Sprintf("%#x %v %x %v", v, err, b, berr)
	}
	err := a.View(func(r *ImageReader) error {
		if got, want := r.Size(), a.next; got != int(want) {
			return fmt.Errorf("view Size = %d, want %d", got, want)
		}
		for i, addr := range addrs {
			v, err := r.ReadU64(addr)
			b, berr := r.ReadBytes(addr, 8)
			if got := fmt.Sprintf("%#x %v %x %v", v, err, b, berr); got != want[i] {
				return fmt.Errorf("reads at %#x: view %s, arena %s", addr, got, want[i])
			}
		}
		s, err := r.ReadCString(p+8, 16)
		if err != nil || s != "view" {
			return fmt.Errorf("ReadCString = %q, %v; want \"view\"", s, err)
		}
		var bad *ErrBadAddress
		if _, err := r.ReadU32(end); !errors.As(err, &bad) {
			return fmt.Errorf("ReadU32 past the arena: %v, want ErrBadAddress", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
