package ntfs_test

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/workload"
)

// TestReadDirOrderOnBenchmarkHost walks every directory of a host shaped
// like the benchmark's (the paper's corp-1 desktop at 50k files, running
// Hacker Defender) and checks each listing against a reference sort: the
// upper-cased name, then the record number. No two names in a listing
// collide, so the name alone fixes the order and the listing is the one
// a sort on names alone has always produced.
func TestReadDirOrderOnBenchmarkHost(t *testing.T) {
	p := workload.PaperMachines()[0]
	p.FilesPerGB = int(math.Ceil(50000 / p.DiskUsedGB))
	m, err := workload.NewPaperMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ghostware.NewHackerDefender().Install(m); err != nil {
		t.Fatal(err)
	}
	dirs, entries := 0, 0
	var walk func(dir string)
	walk = func(dir string) {
		got, err := m.Disk.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir(%q): %v", dir, err)
		}
		want := slices.Clone(got)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := strings.ToUpper(want[i].Name), strings.ToUpper(want[j].Name)
			if a != b {
				return a < b
			}
			return want[i].Record < want[j].Record
		})
		if !slices.Equal(got, want) {
			t.Fatalf("ReadDir(%q) out of order", dir)
		}
		for i := 1; i < len(got); i++ {
			if strings.ToUpper(got[i-1].Name) == strings.ToUpper(got[i].Name) {
				t.Fatalf("ReadDir(%q): %q and %q collide", dir, got[i-1].Name, got[i].Name)
			}
		}
		dirs++
		entries += len(got)
		for _, e := range got {
			if e.Dir {
				walk(strings.TrimSuffix(dir, `\`) + `\` + e.Name)
			}
		}
	}
	walk(`\`)
	if entries < 50000 {
		t.Fatalf("walked %d entries in %d directories, want at least 50000", entries, dirs)
	}
	t.Logf("%d entries in %d directories", entries, dirs)
}
