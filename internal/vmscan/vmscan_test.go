package vmscan

import (
	"strings"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/machine"
)

func guestMachine(t *testing.T) *machine.Machine {
	t.Helper()
	p := machine.DefaultProfile()
	p.DiskUsedGB = 1
	// The guest runs churn services; the VM flow must still be FP-free.
	m, err := machine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestVMCheckZeroFalsePositives reproduces the §5 claim: the host scans
// exactly the image the guest scan saw, so a clean guest diffs clean —
// no reboot-window churn at all.
func TestVMCheckZeroFalsePositives(t *testing.T) {
	guest := guestMachine(t)
	// Let the guest churn a while first; steady-state writes must not
	// matter because both views are of the same instant.
	if err := guest.RunChurn(30); err != nil {
		t.Fatal(err)
	}
	r, err := Check(guest, core.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 0 {
		t.Errorf("VM check on clean guest: hidden=%+v", r.Hidden)
	}
	// Browser downloads carry Zone.Identifier streams; those are benign
	// ADS markers, classified as noise, never findings.
	for _, f := range r.Noise {
		if !strings.HasSuffix(f.ID, ":ZONE.IDENTIFIER") {
			t.Errorf("unexpected noise entry: %+v", f)
		}
	}
	if len(r.Phantom) != 0 {
		t.Errorf("phantom = %+v", r.Phantom)
	}
}

// TestVMCheckFindsHackerDefender reproduces the §5 demo: a Hacker
// Defender-infected VM, scanned inside then from the host.
func TestVMCheckFindsHackerDefender(t *testing.T) {
	guest := guestMachine(t)
	hd := ghostware.NewHackerDefender()
	if err := hd.Install(guest); err != nil {
		t.Fatal(err)
	}
	r, err := Check(guest, core.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != len(hd.HiddenFiles()) {
		t.Fatalf("hidden = %d (%+v), want %d", len(r.Hidden), r.Hidden, len(hd.HiddenFiles()))
	}
	for _, f := range r.Hidden {
		if !strings.Contains(f.ID, "HXDEF") {
			t.Errorf("unexpected finding %s", f.ID)
		}
	}
	if len(r.Noise) != 0 {
		t.Errorf("VM flow should have zero noise, got %+v", r.Noise)
	}
}

// TestVMCheckReportIsSealed: like every other emission path, the VM
// flow seals its report, so the tamper-evidence check holds for it too.
func TestVMCheckReportIsSealed(t *testing.T) {
	guest := guestMachine(t)
	if err := ghostware.NewHackerDefender().Install(guest); err != nil {
		t.Fatal(err)
	}
	r, err := Check(guest, core.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyDigest(); err != nil {
		t.Fatalf("VM report does not verify: %v", err)
	}
}

// TestCaptureTakesInsideViewFirst: the captured disk image reflects the
// exact scan moment — files created after capture don't appear.
func TestCaptureTakesInsideViewFirst(t *testing.T) {
	guest := guestMachine(t)
	res, err := PowerDownAndCapture(guest)
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.DropFile(`C:\after-capture.txt`, []byte("late")); err != nil {
		t.Fatal(err)
	}
	r, err := HostFileCheck(guest, res, core.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(r.Hidden, r.Noise...) {
		if strings.Contains(f.ID, "AFTER-CAPTURE") {
			t.Error("post-capture file leaked into the host view")
		}
	}
}
