package ntfs

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unicode/utf16"
)

// patchName rewrites the $FILE_NAME of the file at path on the device,
// behind the driver's back, to a name of the same length.
func patchName(t *testing.T, v *Volume, path, from, to string) {
	t.Helper()
	info, err := v.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	off, err := v.recordOffset(info.Record)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := v.ReadDeviceRange(off, RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(rec, encodeUTF16(from))
	if i < 0 {
		t.Fatalf("record %d does not hold %q", info.Record, from)
	}
	copy(rec[i:], encodeUTF16(to))
	if err := v.PatchDevice(off, rec); err != nil {
		t.Fatal(err)
	}
}

// TestReadDirOrderDeterministicOnCaseCollision: two children whose
// on-disk names collide case-insensitively list in one order, record
// number breaking the tie, however the child index iterates.
func TestReadDirOrderDeterministicOnCaseCollision(t *testing.T) {
	v := mustFormat(t)
	for _, p := range []string{`\d`, `\d\aaaa.txt`, `\d\bbbb.txt`} {
		if err := v.Create(p, CreateOptions{Dir: p == `\d`}); err != nil {
			t.Fatal(err)
		}
	}
	patchName(t, v, `\d\bbbb.txt`, "bbbb.txt", "AAAA.TXT")
	first, err := v.ReadDir(`\d`)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || first[0].Name != "aaaa.txt" || first[1].Name != "AAAA.TXT" || first[0].Record > first[1].Record {
		t.Fatalf("ReadDir = %+v, want aaaa.txt then AAAA.TXT in record order", first)
	}
	for i := 0; i < 200; i++ {
		got, err := v.ReadDir(`\d`)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, first) {
			t.Fatalf("call %d: ReadDir = %+v, first call %+v", i, got, first)
		}
	}
}

// TestReadDirAllocs pins ReadDir's allocations as linear in the number
// of children: the per-child cost at 64 and at 1024 children may differ
// by at most one, which no per-comparison (n log n) cost could meet.
func TestReadDirAllocs(t *testing.T) {
	v, err := Format(64, 1200)
	if err != nil {
		t.Fatal(err)
	}
	perChild := map[int]float64{}
	for _, n := range []int{64, 1024} {
		dir := fmt.Sprintf(`\d%d`, n)
		if err := v.Create(dir, CreateOptions{Dir: true}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := v.Create(fmt.Sprintf(`%s\file%04d.dat`, dir, i), CreateOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := v.ReadDir(dir); err != nil {
				t.Fatal(err)
			}
		})
		perChild[n] = allocs / float64(n)
	}
	t.Logf("ReadDir allocs per child: %.2f at 64 children, %.2f at 1024", perChild[64], perChild[1024])
	if d := perChild[1024] - perChild[64]; d > 1 || d < -1 {
		t.Errorf("ReadDir allocs per child: %.2f at 64 children, %.2f at 1024", perChild[64], perChild[1024])
	}
}

// FuzzDecodeUTF16 checks the one-pass decoder against the standard
// library's two-step decode on arbitrary bytes.
func FuzzDecodeUTF16(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		u := make([]uint16, len(b)/2)
		for i := range u {
			u[i] = uint16(b[2*i]) | uint16(b[2*i+1])<<8
		}
		if got, want := decodeUTF16(b), string(utf16.Decode(u)); got != want {
			t.Fatalf("decodeUTF16(%x) = %q, want %q", b, got, want)
		}
	})
}
