package winpe

import (
	"strings"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/machine"
)

func churnProfile() machine.Profile {
	p := machine.DefaultProfile()
	p.DiskUsedGB = 1
	return p // keeps the default churn services (AV, prefetch, SR, browser)
}

func quietProfile() machine.Profile {
	p := machine.DefaultProfile()
	p.DiskUsedGB = 1
	p.Churn = nil
	return p
}

func TestOutsideFileCheckFindsHiddenFiles(t *testing.T) {
	m, err := machine.New(quietProfile())
	if err != nil {
		t.Fatal(err)
	}
	hd := ghostware.NewHackerDefender()
	if err := hd.Install(m); err != nil {
		t.Fatal(err)
	}
	r, err := OutsideFileCheck(m, core.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != len(hd.HiddenFiles()) {
		t.Fatalf("hidden = %d (%+v), want %d", len(r.Hidden), r.Hidden, len(hd.HiddenFiles()))
	}
	// The machine is back up after the check.
	if _, err := m.Pid("explorer.exe"); err != nil {
		t.Errorf("machine not rebooted after check: %v", err)
	}
}

// TestOutsideCheckChurnBecomesNoise: on a machine with always-running
// services, the reboot window creates a couple of new files; the noise
// filters classify them, leaving zero real findings (paper §2: "on all
// but one machine, the number of false positives was two or less").
func TestOutsideCheckChurnBecomesNoise(t *testing.T) {
	m, err := machine.New(churnProfile())
	if err != nil {
		t.Fatal(err)
	}
	r, err := OutsideFileCheck(m, core.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 0 {
		t.Errorf("clean machine outside check found: %+v", r.Hidden)
	}
	if len(r.Noise) == 0 || len(r.Noise) > 2 {
		t.Errorf("noise = %d entries (%+v), want 1-2 (AV log + SR change log)", len(r.Noise), r.Noise)
	}
}

// TestCCMMachineHasMoreFalsePositives reproduces the 7 -> 2 experiment.
func TestCCMMachineHasMoreFalsePositives(t *testing.T) {
	p := churnProfile()
	p.Churn = append(p.Churn, machine.ChurnCCM)
	m, err := machine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Without filters, the raw FP count on the CCM machine is 7.
	r, err := OutsideFileCheck(m, core.DiffOptions{NoiseFilters: []core.NoiseFilter{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 7 {
		t.Errorf("CCM machine raw FPs = %d, want 7", len(r.Hidden))
	}
	// Disable the CCM service and re-run: 2 raw FPs.
	m.DisableChurn(machine.ChurnCCM)
	r, err = OutsideFileCheck(m, core.DiffOptions{NoiseFilters: []core.NoiseFilter{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 2 {
		t.Errorf("after disabling CCM, raw FPs = %d, want 2", len(r.Hidden))
	}
}

// TestChurnNeverMasksMalware: noise filtering must not eat real hidden
// files even on a churny machine.
func TestChurnNeverMasksMalware(t *testing.T) {
	m, err := machine.New(churnProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := ghostware.NewVanquish().Install(m); err != nil {
		t.Fatal(err)
	}
	r, err := OutsideFileCheck(m, core.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantHidden := 0
	for _, f := range r.Hidden {
		if strings.Contains(f.ID, "VANQUISH") {
			wantHidden++
		}
	}
	if wantHidden != 3 {
		t.Errorf("vanquish files among findings = %d, want 3 (%+v)", wantHidden, r.Hidden)
	}
	for _, f := range r.Noise {
		if strings.Contains(f.ID, "VANQUISH") {
			t.Errorf("malware classified as noise: %+v", f)
		}
	}
}

// TestOutsideASEPCheck: WinPE hive mount exposes hidden hooks.
func TestOutsideASEPCheck(t *testing.T) {
	m, err := machine.New(quietProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := ghostware.NewUrbin().Install(m); err != nil {
		t.Fatal(err)
	}
	r, err := OutsideASEPCheck(m, core.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 1 || !strings.Contains(r.Hidden[0].ID, "APPINIT_DLLS") {
		t.Fatalf("hidden hooks = %+v", r.Hidden)
	}
}

// TestWinPEAddsRebootTime: the outside solution costs the CD boot.
func TestWinPEAddsRebootTime(t *testing.T) {
	m, err := machine.New(quietProfile())
	if err != nil {
		t.Fatal(err)
	}
	before := m.Clock.Now()
	s, err := BootCD(m)
	if err != nil {
		t.Fatal(err)
	}
	if m.Clock.Now()-before < m.Profile.RebootTime {
		t.Errorf("CD boot charged %v, want at least %v", m.Clock.Now()-before, m.Profile.RebootTime)
	}
	if err := s.Exit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Exit(); err != nil {
		t.Errorf("double Exit should be a no-op: %v", err)
	}
}

// TestGhostwareDoesNotRunUnderWinPE: hooks die with the shutdown; the
// outside scan sees the truth even though the ghostware's ASEP hooks are
// intact and will re-fire on the next real boot.
func TestGhostwareDoesNotRunUnderWinPE(t *testing.T) {
	m, err := machine.New(quietProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := ghostware.NewHackerDefender().Install(m); err != nil {
		t.Fatal(err)
	}
	s, err := BootCD(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.API.Hooks()); got != 0 {
		t.Errorf("%d hooks alive under WinPE", got)
	}
	snap, err := s.ScanFiles(core.NewInternTable())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for id := range snap.Snapshot().Entries {
		if strings.Contains(id, "HXDEF100.EXE") {
			found = true
		}
	}
	if !found {
		t.Error("outside scan should see the rootkit files")
	}
	if err := s.Exit(); err != nil {
		t.Fatal(err)
	}
	// Back inside, the rootkit reactivated via its (hidden) service hook.
	if got := len(m.API.Hooks()); got == 0 {
		t.Error("rootkit should reactivate on real boot")
	}
}
