package winpe

import (
	"math/rand"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/machine"
)

func bootedSession(t *testing.T) *Session {
	t.Helper()
	m, err := machine.New(quietProfile())
	if err != nil {
		t.Fatal(err)
	}
	s, err := BootCD(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScanFilesTruncatedImage: a disk image cut short (a failing CD
// drive, an aborted capture) must fail the outside scan loudly, never
// panic or return a partial truth that could mask hidden files.
func TestScanFilesTruncatedImage(t *testing.T) {
	s := bootedSession(t)
	full := s.diskImage
	for _, n := range []int{0, 1, 7, len(full) / 3, len(full) - 1} {
		s.diskImage = full[:n]
		if _, err := s.ScanFiles(core.NewInternTable()); err == nil {
			t.Errorf("ScanFiles accepted a %d-byte image (full is %d)", n, len(full))
		}
	}
}

// TestScanASEPsTruncatedHive: same property for the captured hive files.
func TestScanASEPsTruncatedHive(t *testing.T) {
	s := bootedSession(t)
	for root, img := range s.hiveImages {
		if len(img) < 2 {
			t.Fatalf("hive %s image is degenerate: %d bytes", root, len(img))
		}
		s.hiveImages[root] = img[:len(img)/2]
		if _, err := s.ScanASEPs(core.NewInternTable()); err == nil {
			t.Errorf("ScanASEPs accepted a truncated %s hive", root)
		}
		s.hiveImages[root] = img
	}
}

// TestScanASEPsNoHives: a capture that found no hives yields an empty
// truth, not a crash — the diff layer then reports every inside hook as
// suspect, which is the loud outcome.
func TestScanASEPsNoHives(t *testing.T) {
	s := bootedSession(t)
	s.hiveImages = map[string][]byte{}
	snap, err := s.ScanASEPs(core.NewInternTable())
	if err != nil {
		t.Fatalf("empty hive set: %v", err)
	}
	if snap == nil || snap.Len() != 0 {
		t.Errorf("empty hive set produced entries: %+v", snap)
	}
}

// TestScanFilesSurvivesRandomCorruption: arbitrary byte damage to the
// captured image either parses or errors — it never panics the scanner.
func TestScanFilesSurvivesRandomCorruption(t *testing.T) {
	s := bootedSession(t)
	base := s.diskImage
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 60; trial++ {
		img := append([]byte(nil), base...)
		for i := 0; i < 1+rng.Intn(32); i++ {
			img[rng.Intn(len(img))] = byte(rng.Intn(256))
		}
		s.diskImage = img
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: ScanFiles panicked: %v", trial, r)
				}
			}()
			_, _ = s.ScanFiles(core.NewInternTable())
		}()
	}
}
