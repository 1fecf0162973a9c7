package core

import (
	"strings"
	"testing"

	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/hive"
	"ghostbuster/internal/ntfs"
)

// cachedFilesLow and cachedASEPLow run the cache's truth scans on the
// machine clock, as a one-lane sweep of a detector holding c does, and
// return the map form, which the assertions below index by ID.
func cachedFilesLow(c *ScanCache) (*Snapshot, error) {
	return mapForm(cachedSweep(c).filesLow(c.m.Clock))
}

func cachedASEPLow(c *ScanCache) (*Snapshot, error) {
	return mapForm(cachedSweep(c).asepsLow(c.m.Clock))
}

func cachedSweep(c *ScanCache) *sweep {
	return &sweep{d: &Detector{M: c.m, Cache: c}, t: c.table(), lanes: 1}
}

func TestScanCacheFilesHitOnUnchangedDisk(t *testing.T) {
	m := mustMachine(t)
	c := NewScanCache(m)
	cold, err := cachedFilesLow(c)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cachedFilesLow(c)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if cold.Len() != warm.Len() {
		t.Fatalf("warm snapshot lost entries: %d vs %d", warm.Len(), cold.Len())
	}
	for id := range cold.Entries {
		if _, ok := warm.Entries[id]; !ok {
			t.Fatalf("warm snapshot missing %q", id)
		}
	}
	// A hit charges only the verify pass, far below the full MFT read.
	if warm.Elapsed*5 >= cold.Elapsed {
		t.Errorf("warm verify pass cost %v, cold parse %v — want ≥5× cheaper", warm.Elapsed, cold.Elapsed)
	}
	if warm.Elapsed <= 0 {
		t.Error("cache hit must still charge virtual time for the verify pass")
	}
}

func TestScanCacheVolumeMutationsInvalidate(t *testing.T) {
	m := mustMachine(t)
	c := NewScanCache(m)

	scan := func() *Snapshot {
		t.Helper()
		s, err := cachedFilesLow(c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	scan()

	// Create.
	if err := m.DropFile(`C:\newdir\fresh.exe`, []byte("x")); err != nil {
		t.Fatal(err)
	}
	s := scan()
	if _, ok := s.Entries[fileID(`C:\newdir\fresh.exe`)]; !ok {
		t.Fatal("created file missing from post-mutation scan")
	}

	// Write (same paths, new data) must still invalidate.
	before := c.Stats()
	if err := m.DropFile(`C:\newdir\fresh.exe`, []byte("longer payload")); err != nil {
		t.Fatal(err)
	}
	scan()
	if s := c.Stats(); s.Misses != before.Misses+1 {
		t.Fatalf("rewrite did not invalidate: %+v -> %+v", before, s)
	}

	// ADS creation is a mutation too — the stream appears in the raw view.
	if err := m.Disk.CreateStream(`\newdir\fresh.exe`, "payload", []byte("ads")); err != nil {
		t.Fatal(err)
	}
	s = scan()
	if _, ok := s.Entries[fileID(`C:\newdir\fresh.exe:payload`)]; !ok {
		t.Fatal("ADS missing from post-mutation scan")
	}

	// Remove.
	if err := m.RemoveFile(`C:\newdir\fresh.exe`); err != nil {
		t.Fatal(err)
	}
	s = scan()
	if _, ok := s.Entries[fileID(`C:\newdir\fresh.exe`)]; ok {
		t.Fatal("removed file still served from cache")
	}
}

// TestScanCacheDirectDeviceWriteInvalidates covers the ghostware path
// that bypasses every Volume mutator: patching raw device bytes. Wiping
// a file's MFT record (anti-forensics) must show up on the very next
// low-level scan.
func TestScanCacheDirectDeviceWriteInvalidates(t *testing.T) {
	m := mustMachine(t)
	if err := m.DropFile(`C:\victim.dat`, []byte("v")); err != nil {
		t.Fatal(err)
	}
	c := NewScanCache(m)
	s, err := cachedFilesLow(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Entries[fileID(`C:\victim.dat`)]; !ok {
		t.Fatal("victim not visible before the wipe")
	}
	info, err := m.Disk.Stat(`\victim.dat`)
	if err != nil {
		t.Fatal(err)
	}
	off := int(m.Disk.Geometry().MFTStart)*ntfs.ClusterSize + int(info.Record)*ntfs.RecordSize
	if err := m.WriteDeviceBytes(off, make([]byte, ntfs.RecordSize)); err != nil {
		t.Fatal(err)
	}
	s, err = cachedFilesLow(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Entries[fileID(`C:\victim.dat`)]; ok {
		t.Fatal("stale cache still lists the wiped record")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("direct device write did not invalidate: %+v", st)
	}
}

func TestScanCacheHiveCommitInvalidates(t *testing.T) {
	m := mustMachine(t)
	c := NewScanCache(m)
	s1, err := cachedASEPLow(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cachedASEPLow(c); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if err := m.Reg.SetString(`HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Run`,
		"Ghost", `C:\ghost.exe`); err != nil {
		t.Fatal(err)
	}
	s2, err := cachedASEPLow(c)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("hive commit did not invalidate: %+v", st)
	}
	if s2.Len() != s1.Len()+1 {
		t.Fatalf("new ASEP hook missing: %d -> %d entries", s1.Len(), s2.Len())
	}
	found := false
	for id := range s2.Entries {
		if strings.HasSuffix(id, "-> GHOST") {
			found = true
		}
	}
	if !found {
		t.Fatal("post-commit scan does not list the new Run hook")
	}
}

func TestScanCacheMountChangeInvalidates(t *testing.T) {
	m := mustMachine(t)
	c := NewScanCache(m)
	if _, err := cachedASEPLow(c); err != nil {
		t.Fatal(err)
	}
	// Swapping a hive in or out must invalidate even though no mounted
	// hive committed anything.
	m.Reg.Mount(`HKU\S-1-5-21`, hive.New("ntuser-extra"))
	if _, err := cachedASEPLow(c); err != nil {
		t.Fatal(err)
	}
	m.Reg.Unmount(`HKU\S-1-5-21`)
	if _, err := cachedASEPLow(c); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("mount-table changes did not invalidate: %+v", st)
	}
}

// TestHiddenResourcesAfterCachedSweepDetected is the headline regression
// for the incremental layer: a host sweeps clean and warm, THEN gets
// infected; the next sweep must detect everything the ghostware hides —
// no stale snapshot may mask it.
func TestHiddenResourcesAfterCachedSweepDetected(t *testing.T) {
	m := mustMachine(t)
	d := NewCachedDetector(m)
	d.Advanced = true

	for i := 0; i < 2; i++ { // cold sweep, then warm (cached) sweep
		reports, err := d.ScanAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			if r.Infected() {
				t.Fatalf("sweep %d: clean machine reported infected: %s", i, r.Summary())
			}
		}
	}
	if st := d.Cache.Stats(); st.Hits == 0 {
		t.Fatal("second sweep never hit the cache")
	}

	hd := ghostware.NewHackerDefender()
	if err := hd.Install(m); err != nil {
		t.Fatal(err)
	}

	files, err := d.ScanFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files.Hidden) != len(hd.HiddenFiles()) {
		t.Fatalf("post-infection hidden files = %d, want %d: %+v",
			len(files.Hidden), len(hd.HiddenFiles()), files.Hidden)
	}
	aseps, err := d.ScanASEPs()
	if err != nil {
		t.Fatal(err)
	}
	if len(aseps.Hidden) != len(hd.HiddenASEPs()) {
		t.Fatalf("post-infection hidden ASEPs = %d, want %d: %+v",
			len(aseps.Hidden), len(hd.HiddenASEPs()), aseps.Hidden)
	}
}

// TestCachedDetectorMatchesUncached: with and without the cache, over a
// mutating machine, every sweep's findings must be identical.
func TestCachedDetectorMatchesUncached(t *testing.T) {
	m := mustMachine(t)
	cached := NewCachedDetector(m)
	plain := NewDetector(m)

	step := func(label string) {
		t.Helper()
		a, err := cached.ScanFiles()
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.ScanFiles()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Hidden) != len(b.Hidden) || len(a.Phantom) != len(b.Phantom) {
			t.Fatalf("%s: cached {hidden %d phantom %d} vs plain {hidden %d phantom %d}",
				label, len(a.Hidden), len(a.Phantom), len(b.Hidden), len(b.Phantom))
		}
	}
	step("clean")
	if err := ghostware.NewVanquish().Install(m); err != nil {
		t.Fatal(err)
	}
	step("infected")
	step("infected-warm")
}
