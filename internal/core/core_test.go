package core

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ghostbuster/internal/kernel"
	"ghostbuster/internal/kmem"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/winapi"
)

func smallProfile() machine.Profile {
	p := machine.DefaultProfile()
	p.DiskUsedGB = 1
	p.Churn = nil
	return p
}

func mustMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(smallProfile())
	if err != nil {
		t.Fatalf("machine.New: %v", err)
	}
	return m
}

func TestCleanMachineAllScansClean(t *testing.T) {
	m := mustMachine(t)
	d := NewDetector(m)
	d.Advanced = true
	reports, err := d.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		if r.Infected() {
			t.Errorf("clean machine: %s reports hidden: %+v", r.Kind, r.Hidden)
		}
		if len(r.Phantom) != 0 {
			t.Errorf("clean machine: %s reports phantom: %+v", r.Kind, r.Phantom)
		}
		if r.MassHiding != nil {
			t.Errorf("clean machine: %s mass-hiding anomaly", r.Kind)
		}
	}
}

func TestHiddenFileDetected(t *testing.T) {
	m := mustMachine(t)
	if err := m.DropFile(`C:\WINDOWS\system32\msvsres.dll`, []byte("MZ evil")); err != nil {
		t.Fatal(err)
	}
	// Hide it the Urbin way: IAT-level enumeration filter.
	m.API.Install(winapi.NewFileHideHook("urbin", winapi.LevelIAT, "IAT", nil,
		func(call *winapi.Call, e winapi.DirEntry) bool {
			return strings.EqualFold(e.Name, "msvsres.dll")
		}))
	r, err := NewDetector(m).ScanFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 1 {
		t.Fatalf("hidden = %+v", r.Hidden)
	}
	if !strings.Contains(r.Hidden[0].ID, "MSVSRES.DLL") {
		t.Errorf("finding = %+v", r.Hidden[0])
	}
	if !r.Infected() {
		t.Error("report should flag infection")
	}
}

func TestUnhiddenDroppedFileIsNotAFinding(t *testing.T) {
	m := mustMachine(t)
	if err := m.DropFile(`C:\stuff\benign.txt`, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	r, err := NewDetector(m).ScanFiles()
	if err != nil {
		t.Fatal(err)
	}
	if r.Infected() {
		t.Errorf("visible file flagged: %+v", r.Hidden)
	}
}

func TestWin32RestrictedNamesDetectedWithoutAnyHook(t *testing.T) {
	// Paper §2: files whose names break Win32 rules are hidden with no
	// interception at all. The cross-view diff still finds them.
	m := mustMachine(t)
	for _, p := range []string{`C:\data\evil.`, `C:\data\NUL.dat`, `C:\data\trail `} {
		if err := m.DropFile(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewDetector(m).ScanFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 3 {
		t.Errorf("hidden = %+v", r.Hidden)
	}
}

func TestHiddenASEPHookDetected(t *testing.T) {
	m := mustMachine(t)
	run := `HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Run`
	if err := m.Reg.SetString(run, "hxdef", `C:\hxdef\hxdef100.exe`); err != nil {
		t.Fatal(err)
	}
	m.API.Install(winapi.NewRegHideHook("hxdef", winapi.LevelNtdll, "inline", nil, nil,
		func(call *winapi.Call, keyPath, name string) bool { return strings.EqualFold(name, "hxdef") }))
	r, err := NewDetector(m).ScanASEPs()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 1 || !strings.Contains(r.Hidden[0].ID, "HXDEF") {
		t.Fatalf("hidden hooks = %+v", r.Hidden)
	}
}

func TestNULEmbeddedRegistryNameDetected(t *testing.T) {
	// Paper §3: values created with the Native API carrying embedded
	// NULs are invisible to Win32 RegEdit but present in the raw hive.
	m := mustMachine(t)
	run := `HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Run`
	if err := m.Reg.SetString(run, "stealth\x00svc", `C:\mal\mal.exe`); err != nil {
		t.Fatal(err)
	}
	r, err := NewDetector(m).ScanASEPs()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 1 {
		t.Fatalf("hidden hooks = %+v", r.Hidden)
	}
	if !strings.Contains(r.Hidden[0].Display, `\0`) {
		t.Errorf("display should escape the NUL: %q", r.Hidden[0].Display)
	}
}

func TestHiddenProcessDetectedViaAPLAndCID(t *testing.T) {
	m := mustMachine(t)
	if _, err := m.StartProcess("berbew.exe", `C:\WINDOWS\berbew.exe`); err != nil {
		t.Fatal(err)
	}
	m.API.Install(winapi.NewProcHideHook("berbew", winapi.LevelNtdll, "jmp detour", nil,
		func(call *winapi.Call, p winapi.ProcEntry) bool { return strings.EqualFold(p.Name, "berbew.exe") }))
	d := NewDetector(m)
	r, err := d.ScanProcesses()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 1 || !strings.Contains(r.Hidden[0].ID, "BERBEW.EXE") {
		t.Fatalf("normal-mode hidden = %+v", r.Hidden)
	}
	d.Advanced = true
	r, err = d.ScanProcesses()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 1 {
		t.Fatalf("advanced-mode hidden = %+v", r.Hidden)
	}
}

func TestDKOMHiddenProcessNeedsAdvancedMode(t *testing.T) {
	m := mustMachine(t)
	pid, err := m.StartProcess("fuhidden.exe", `C:\fu\fuhidden.exe`)
	if err != nil {
		t.Fatal(err)
	}
	eproc, err := m.Kern.EprocessByPid(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Mem.ListRemove(eproc + kernel.EprocActiveLinks); err != nil {
		t.Fatal(err)
	}
	d := NewDetector(m)
	r, err := d.ScanProcesses()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 0 {
		t.Errorf("normal mode should MISS DKOM (APL is not the truth): %+v", r.Hidden)
	}
	d.Advanced = true
	r, err = d.ScanProcesses()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 1 || !strings.Contains(r.Hidden[0].ID, "FUHIDDEN.EXE") {
		t.Fatalf("advanced mode hidden = %+v", r.Hidden)
	}
}

func TestHiddenModuleDetected(t *testing.T) {
	m := mustMachine(t)
	// Vanquish injects into many processes and blanks the PEB name.
	procs, err := m.Kern.Processes()
	if err != nil {
		t.Fatal(err)
	}
	injected := 0
	for _, p := range procs {
		if p.Pid == kernel.SystemPid {
			continue
		}
		if _, err := m.Kern.LoadModule(p.Pid, `C:\WINDOWS\vanquish.dll`); err != nil {
			t.Fatal(err)
		}
		entry, err := m.Kern.FindModuleEntry(p.Pid, "vanquish.dll")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Kern.BlankModuleName(entry); err != nil {
			t.Fatal(err)
		}
		injected++
	}
	r, err := NewDetector(m).ScanModules()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != injected {
		t.Fatalf("hidden modules = %d, want %d (one per injected process)", len(r.Hidden), injected)
	}
	for _, f := range r.Hidden {
		if !strings.Contains(f.ID, "VANQUISH.DLL") {
			t.Errorf("finding = %+v", f)
		}
	}
}

func TestModulesOfDKOMHiddenProcessAreScanned(t *testing.T) {
	m := mustMachine(t)
	pid, err := m.StartProcess("ghost.exe", `C:\g\ghost.exe`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Kern.LoadModule(pid, `C:\g\payload.dll`); err != nil {
		t.Fatal(err)
	}
	entry, err := m.Kern.FindModuleEntry(pid, "payload.dll")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.BlankModuleName(entry); err != nil {
		t.Fatal(err)
	}
	eproc, err := m.Kern.EprocessByPid(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Mem.ListRemove(eproc + kernel.EprocActiveLinks); err != nil {
		t.Fatal(err)
	}
	r, err := NewDetector(m).ScanModules()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range r.Hidden {
		if strings.Contains(f.ID, "PAYLOAD.DLL") {
			found = true
		}
	}
	if !found {
		t.Errorf("module of DKOM-hidden process missed: %+v", r.Hidden)
	}
}

func TestCrashDumpScanMatchesLive(t *testing.T) {
	m := mustMachine(t)
	if _, err := m.StartProcess("x.exe", `C:\x.exe`); err != nil {
		t.Fatal(err)
	}
	tab := NewInternTable()
	live, err := scanProcsLowC(m, false, m.Clock, tab)
	if err != nil {
		t.Fatal(err)
	}
	img := kmemImage(m)
	dumped, err := ScanProcsFromDump(img, m.Kern.Layout(), false, tab)
	if err != nil {
		t.Fatal(err)
	}
	if live.Len() == 0 || !slices.Equal(live.ids, dumped.ids) || !slices.Equal(live.displays, dumped.displays) {
		t.Errorf("live %v vs dump %v", live.Snapshot().Entries, dumped.Snapshot().Entries)
	}
}

func TestMassHidingAnomaly(t *testing.T) {
	m := mustMachine(t)
	// Decoy attack (§5): hide very many innocent files.
	for i := 0; i < 120; i++ {
		if err := m.DropFile(innocentPath(i), []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	m.API.Install(winapi.NewFileHideHook("decoy", winapi.LevelFilter, "filter driver", nil,
		func(call *winapi.Call, e winapi.DirEntry) bool {
			return strings.HasPrefix(strings.ToUpper(e.Path), `C:\DOCS\`)
		}))
	r, err := NewDetector(m).ScanFiles()
	if err != nil {
		t.Fatal(err)
	}
	if r.MassHiding == nil {
		t.Fatalf("expected mass-hiding anomaly with %d hidden", len(r.Hidden))
	}
	if r.MassHiding.HiddenCount < 120 {
		t.Errorf("anomaly count = %d", r.MassHiding.HiddenCount)
	}
}

func innocentPath(i int) string {
	return `C:\docs\file` + strings.Repeat("0", 3-len(itoa(i))) + itoa(i) + `.txt`
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestNoiseFiltersSeparateChurn(t *testing.T) {
	f := Finding{Kind: KindFiles, ID: `C:\WINDOWS\PREFETCH\FOO.PF`}
	reason, ok := matchNoise(StandardNoiseFilters(), f)
	if !ok || reason != "OS prefetch" {
		t.Errorf("prefetch filter: %q %v", reason, ok)
	}
	f = Finding{Kind: KindFiles, ID: `C:\HXDEF\HXDEF100.EXE`}
	if _, ok := matchNoise(StandardNoiseFilters(), f); ok {
		t.Error("malware path must not match noise filters")
	}
	// Filters are kind-scoped: a registry hook under a prefetch-like
	// name is not file churn.
	f = Finding{Kind: KindASEPHooks, ID: `C:\WINDOWS\PREFETCH\FOO.PF`}
	if _, ok := matchNoise(StandardNoiseFilters(), f); ok {
		t.Error("noise filters must be kind-scoped")
	}
}

// snapOf builds a columnar snapshot over tab whose entries are ids,
// each displayed as itself.
func snapOf(tab *InternTable, kind ResourceKind, view View, ids ...string) *ColumnarSnapshot {
	b := NewColumnarBuilder(tab, kind, view, len(ids))
	for _, id := range ids {
		b.Add(id, id, "")
	}
	return b.Build()
}

// TestDiffRejectsKindMismatch: the report-reusing entry point refuses a
// kind mismatch like DiffColumnar does (TestDiffColumnarKindMismatch).
func TestDiffRejectsKindMismatch(t *testing.T) {
	tab := NewInternTable()
	a := snapOf(tab, KindFiles, ViewWin32Inside)
	b := snapOf(tab, KindProcesses, ViewKernelAPL)
	if err := DiffColumnarInto(&Report{}, a, b, DiffOptions{}); err == nil {
		t.Error("kind mismatch should error")
	}
}

func TestPhantomDirection(t *testing.T) {
	tab := NewInternTable()
	high := snapOf(tab, KindFiles, ViewWin32Inside, "ONLY-HIGH", "BOTH")
	low := snapOf(tab, KindFiles, ViewRawMFT, "ONLY-LOW", "BOTH")
	r, err := DiffColumnar(high, low, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 1 || r.Hidden[0].ID != "ONLY-LOW" {
		t.Errorf("hidden = %+v", r.Hidden)
	}
	if len(r.Phantom) != 1 || r.Phantom[0].ID != "ONLY-HIGH" {
		t.Errorf("phantom = %+v", r.Phantom)
	}
}

func TestScanElapsedIsPositiveAndScalesWithDisk(t *testing.T) {
	m := mustMachine(t)
	high, err := ScanFilesHigh(m, m.SystemCall())
	if err != nil {
		t.Fatal(err)
	}
	if high.Elapsed <= 0 {
		t.Error("high scan consumed no virtual time")
	}
	big := smallProfile()
	big.DiskUsedGB = 8
	big.Name = "bigger"
	m2, err := machine.New(big)
	if err != nil {
		t.Fatal(err)
	}
	// Populate extra files so the bigger disk has more records.
	for i := 0; i < 400; i++ {
		if err := m2.DropFile(`C:\bulk\f`+itoa(i)+`.bin`, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	high2, err := ScanFilesHigh(m2, m2.SystemCall())
	if err != nil {
		t.Fatal(err)
	}
	if high2.Elapsed <= high.Elapsed {
		t.Errorf("scan time should grow with file count: %v vs %v", high2.Elapsed, high.Elapsed)
	}
}

// kmemImage snapshots the machine's kernel memory for dump-based tests.
func kmemImage(m *machine.Machine) *kmem.ImageReader {
	return kmem.NewImageReader(m.Kern.Mem.Snapshot())
}

// TestDeterminism: two identically built and infected machines produce
// byte-identical reports — the property every virtual-time experiment
// depends on.
func TestDeterminism(t *testing.T) {
	runOnce := func() []*Report {
		m := mustMachine(t)
		if err := m.DropFile(`C:\WINDOWS\system32\msvsres.dll`, []byte("MZ")); err != nil {
			t.Fatal(err)
		}
		m.API.Install(winapi.NewFileHideHook("x", winapi.LevelIAT, "t", nil,
			func(call *winapi.Call, e winapi.DirEntry) bool {
				return strings.EqualFold(e.Name, "msvsres.dll")
			}))
		d := NewDetector(m)
		d.Advanced = true
		reports, err := d.ScanAll()
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	a := runOnce()
	b := runOnce()
	for i := range a {
		if a[i].Summary() != b[i].Summary() || a[i].Elapsed != b[i].Elapsed {
			t.Errorf("report %d differs: %q/%v vs %q/%v", i, a[i].Summary(), a[i].Elapsed, b[i].Summary(), b[i].Elapsed)
		}
		if len(a[i].Hidden) != len(b[i].Hidden) {
			t.Errorf("report %d hidden count differs", i)
		}
		for j := range a[i].Hidden {
			if a[i].Hidden[j].ID != b[i].Hidden[j].ID {
				t.Errorf("report %d finding %d differs", i, j)
			}
		}
	}
}

// TestQuickDiffPartitions: for arbitrary high/low ID sets, the diff
// must partition exactly: hidden+noise = low\high, phantom = high\low,
// and nothing in the intersection is reported.
func TestQuickDiffPartitions(t *testing.T) {
	f := func(highIDs, lowIDs []uint8) bool {
		tab := NewInternTable()
		var his, los []string
		hs := map[string]bool{}
		for _, x := range highIDs {
			id := "E" + itoa(int(x)%40)
			hs[id] = true
			his = append(his, id)
		}
		ls := map[string]bool{}
		for _, x := range lowIDs {
			id := "E" + itoa(int(x)%40)
			ls[id] = true
			los = append(los, id)
		}
		// Intern the low side first, so symbol order differs from the
		// high side's insertion order.
		low := snapOf(tab, KindFiles, ViewRawMFT, los...)
		high := snapOf(tab, KindFiles, ViewWin32Inside, his...)
		r, err := DiffColumnar(high, low, DiffOptions{MassHidingThreshold: -1})
		if err != nil {
			return false
		}
		wantHidden := 0
		for id := range ls {
			if !hs[id] {
				wantHidden++
			}
		}
		wantPhantom := 0
		for id := range hs {
			if !ls[id] {
				wantPhantom++
			}
		}
		if len(r.Hidden)+len(r.Noise) != wantHidden || len(r.Phantom) != wantPhantom {
			return false
		}
		for _, fd := range r.Hidden {
			if hs[fd.ID] || !ls[fd.ID] {
				return false
			}
		}
		for _, fd := range r.Phantom {
			if ls[fd.ID] || !hs[fd.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
