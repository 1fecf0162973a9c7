package crashdump

import (
	"math/rand"
	"strings"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/machine"
)

func smallMachine(t *testing.T) *machine.Machine {
	t.Helper()
	p := machine.DefaultProfile()
	p.DiskUsedGB = 1
	p.Churn = nil
	m, err := machine.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteAndParseRoundTrip(t *testing.T) {
	m := smallMachine(t)
	before := m.Clock.Now()
	dump, err := Write(m)
	if err != nil {
		t.Fatal(err)
	}
	if m.Clock.Now() == before {
		t.Error("dump write charged no time")
	}
	d, err := Parse(dump)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := d.Processes(false)
	if err != nil {
		t.Fatal(err)
	}
	live, err := m.Kern.Processes()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != len(live) {
		t.Errorf("dump procs %d, live %d", len(procs), len(live))
	}
	drvs, err := d.Drivers()
	if err != nil {
		t.Fatal(err)
	}
	if len(drvs) == 0 {
		t.Error("dump has no drivers")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Error("nil should not parse")
	}
	if _, err := Parse([]byte("NOTADUMP........")); err == nil {
		t.Error("bad magic should not parse")
	}
	m := smallMachine(t)
	dump, err := Write(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(dump[:40]); err == nil {
		t.Error("truncated dump should not parse")
	}
	dump[8] = 99 // version
	if _, err := Parse(dump); err == nil {
		t.Error("wrong version should not parse")
	}
}

// TestDumpExposesDKOMHiddenProcess: the outside-the-box volatile-state
// scan — dump in advanced mode — sees the FU-hidden process even though
// the dump's Active Process List does not contain it.
func TestDumpExposesDKOMHiddenProcess(t *testing.T) {
	m := smallMachine(t)
	fu := ghostware.NewFU()
	if err := fu.Install(m); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartProcess("sneaky.exe", `C:\sneaky.exe`); err != nil {
		t.Fatal(err)
	}
	if err := fu.HideByName(m, "sneaky.exe"); err != nil {
		t.Fatal(err)
	}
	dump, err := Write(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Parse(dump)
	if err != nil {
		t.Fatal(err)
	}
	apl, err := d.Processes(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range apl {
		if p.Name == "sneaky.exe" {
			t.Error("unlinked process should be absent from the dump's APL")
		}
	}
	cid, err := d.Processes(true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range cid {
		if p.Name == "sneaky.exe" {
			found = true
		}
	}
	if !found {
		t.Error("dump CID walk should expose the hidden process")
	}
}

// TestOutsideProcessDiffViaDump: high-level inside scan vs dump scan is
// the paper's outside-the-box process detection.
func TestOutsideProcessDiffViaDump(t *testing.T) {
	m := smallMachine(t)
	if err := ghostware.NewBerbew().Install(m); err != nil {
		t.Fatal(err)
	}
	tab := core.NewInternTable()
	high, err := core.ScanProcsHighC(m, m.SystemCall(), tab)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := Write(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Parse(dump)
	if err != nil {
		t.Fatal(err)
	}
	low, err := core.ScanProcsFromDump(d.Mem, d.Layout, false, tab)
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.DiffColumnar(high, low, core.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Hidden) != 1 {
		t.Fatalf("hidden = %+v", report.Hidden)
	}
	if !strings.HasSuffix(report.Hidden[0].ID, ".EXE") {
		t.Errorf("finding = %+v", report.Hidden[0])
	}
}

// TestDumpModuleTruth: VAD lists survive into the dump.
func TestDumpModuleTruth(t *testing.T) {
	m := smallMachine(t)
	pid, err := m.StartProcess("victim.exe", `C:\v.exe`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Kern.LoadModule(pid, `C:\inj.dll`); err != nil {
		t.Fatal(err)
	}
	dump, err := Write(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Parse(dump)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := d.Processes(true)
	if err != nil {
		t.Fatal(err)
	}
	var addr uint64
	for _, p := range procs {
		if p.Pid == pid {
			addr = p.Addr
		}
	}
	if addr == 0 {
		t.Fatal("victim not in dump")
	}
	mods, err := d.Modules(addr)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, mod := range mods {
		if strings.Contains(strings.ToUpper(mod.Path), "INJ.DLL") {
			found = true
		}
	}
	if !found {
		t.Errorf("dump VAD modules = %+v", mods)
	}
}

// TestParseSurvivesRandomCorruption: a ghostware-tampered dump must
// never panic the offline analyzer (the paper notes future ghostware
// "can potentially trap the blue-screen events" and alter the dump).
func TestParseSurvivesRandomCorruption(t *testing.T) {
	m := smallMachine(t)
	base, err := Write(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 200; trial++ {
		img := append([]byte(nil), base...)
		for i := 0; i < 1+rng.Intn(64); i++ {
			img[rng.Intn(len(img))] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panicked: %v", trial, r)
				}
			}()
			d, err := Parse(img)
			if err != nil {
				return
			}
			_, _ = d.Processes(false)
			_, _ = d.Processes(true)
			_, _ = d.Drivers()
		}()
	}
}

// TestOutsideProcessCheckFlow: the full §4 outside flow catches both an
// API-hiding process (normal dump walk) and a DKOM-hidden one (advanced
// dump walk).
func TestOutsideProcessCheckFlow(t *testing.T) {
	m := smallMachine(t)
	if err := ghostware.NewBerbew().Install(m); err != nil {
		t.Fatal(err)
	}
	fu := ghostware.NewFU()
	if err := fu.Install(m); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartProcess("lurker.exe", `C:\lurker.exe`); err != nil {
		t.Fatal(err)
	}
	if err := fu.HideByName(m, "lurker.exe"); err != nil {
		t.Fatal(err)
	}
	normal, err := OutsideProcessCheck(m, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(normal.Hidden) != 1 {
		t.Errorf("normal dump walk hidden = %+v (Berbew only)", normal.Hidden)
	}
	advanced, err := OutsideProcessCheck(m, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(advanced.Hidden) != 2 {
		t.Errorf("advanced dump walk hidden = %+v (Berbew + FU victim)", advanced.Hidden)
	}
}

// TestOutsideModuleCheckFlow: Vanquish's blanked DLL appears in the
// dump's VAD truth for every injected process.
func TestOutsideModuleCheckFlow(t *testing.T) {
	m := smallMachine(t)
	if err := ghostware.NewVanquish().Install(m); err != nil {
		t.Fatal(err)
	}
	r, err := OutsideModuleCheck(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) < 2 {
		t.Fatalf("hidden modules = %+v", r.Hidden)
	}
	for _, f := range r.Hidden {
		if !strings.Contains(f.ID, "VANQUISH.DLL") {
			t.Errorf("unexpected hidden module %s", f.ID)
		}
	}
}

func TestDumpSummary(t *testing.T) {
	m := smallMachine(t)
	dump, err := Write(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Parse(dump)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DumpSummary(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "processes") || !strings.Contains(s, "drivers") {
		t.Errorf("summary = %q", s)
	}
}
