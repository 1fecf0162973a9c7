package kernel

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"ghostbuster/internal/kmem"
)

func mustKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return k
}

func names(ps []ProcView) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

func TestBootHasSystemProcess(t *testing.T) {
	k := mustKernel(t)
	procs, err := k.Processes()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 || procs[0].Name != "System" || procs[0].Pid != SystemPid {
		t.Errorf("boot processes = %+v", procs)
	}
	if procs[0].Threads != 1 {
		t.Errorf("System threads = %d", procs[0].Threads)
	}
}

func TestCreateProcessVisibleInBothViews(t *testing.T) {
	k := mustKernel(t)
	pid, err := k.CreateProcess("explorer.exe", `C:\WINDOWS\explorer.exe`, SystemPid)
	if err != nil {
		t.Fatal(err)
	}
	if pid%4 != 0 {
		t.Errorf("pid %d not a multiple of 4", pid)
	}
	normal, err := k.Processes()
	if err != nil {
		t.Fatal(err)
	}
	advanced, err := k.ProcessesAdvanced()
	if err != nil {
		t.Fatal(err)
	}
	if len(normal) != 2 || len(advanced) != 2 {
		t.Fatalf("views: normal %v advanced %v", names(normal), names(advanced))
	}
	var exp *ProcView
	for i := range normal {
		if normal[i].Pid == pid {
			exp = &normal[i]
		}
	}
	if exp == nil || exp.Name != "explorer.exe" || exp.ImagePath != `C:\WINDOWS\explorer.exe` {
		t.Errorf("explorer view = %+v", exp)
	}
	if exp.ParentPid != SystemPid {
		t.Errorf("parent = %d", exp.ParentPid)
	}
}

func TestProcessModules(t *testing.T) {
	k := mustKernel(t)
	pid, err := k.CreateProcess("app.exe", `C:\app\app.exe`, SystemPid)
	if err != nil {
		t.Fatal(err)
	}
	mods, err := k.Modules(pid)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 3 {
		t.Fatalf("default modules = %d, want exe+ntdll+kernel32", len(mods))
	}
	if mods[0].Path != `C:\app\app.exe` {
		t.Errorf("first module = %q", mods[0].Path)
	}
	if _, err := k.LoadModule(pid, `C:\WINDOWS\vanquish.dll`); err != nil {
		t.Fatal(err)
	}
	mods, err = k.Modules(pid)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 4 || mods[3].Path != `C:\WINDOWS\vanquish.dll` {
		t.Errorf("after load: %+v", mods)
	}
	if mods[3].Base == mods[2].Base {
		t.Error("module bases should be distinct")
	}
}

func TestBlankModuleNameHidesPath(t *testing.T) {
	k := mustKernel(t)
	pid, err := k.CreateProcess("victim.exe", `C:\victim.exe`, SystemPid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.LoadModule(pid, `C:\WINDOWS\vanquish.dll`); err != nil {
		t.Fatal(err)
	}
	entry, err := k.FindModuleEntry(pid, "vanquish.dll")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.BlankModuleName(entry); err != nil {
		t.Fatal(err)
	}
	mods, err := k.Modules(pid)
	if err != nil {
		t.Fatal(err)
	}
	// The entry is still on the list (same count) but its path reads empty.
	if len(mods) != 4 {
		t.Fatalf("module count changed: %d", len(mods))
	}
	blanked := 0
	for _, m := range mods {
		if m.Path == "" {
			blanked++
		}
	}
	if blanked != 1 {
		t.Errorf("blanked modules = %d, want 1", blanked)
	}
	if _, err := k.FindModuleEntry(pid, "vanquish.dll"); !errors.Is(err, ErrNoSuchModule) {
		t.Errorf("blanked module should no longer resolve by name: %v", err)
	}
}

func TestExitProcessRemovesFromBothViews(t *testing.T) {
	k := mustKernel(t)
	pid, err := k.CreateProcess("tmp.exe", `C:\tmp.exe`, SystemPid)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.ExitProcess(pid); err != nil {
		t.Fatal(err)
	}
	normal, err := k.Processes()
	if err != nil {
		t.Fatal(err)
	}
	advanced, err := k.ProcessesAdvanced()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(normal, advanced...) {
		if p.Pid == pid {
			t.Errorf("exited pid %d still visible", pid)
		}
	}
	if _, err := k.EprocessByPid(pid); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("EprocessByPid after exit = %v", err)
	}
	if err := k.ExitProcess(SystemPid); err == nil {
		t.Error("exiting System should be refused")
	}
}

// TestDKOMUnlinkHidesFromActiveListOnly is the FU rootkit scenario and
// the heart of the paper's §4: after unlinking an EPROCESS from the
// Active Process List, the normal walk misses it while the CID-table
// walk still reports it (the process owns a schedulable thread).
func TestDKOMUnlinkHidesFromActiveListOnly(t *testing.T) {
	k := mustKernel(t)
	pid, err := k.CreateProcess("hidden.exe", `C:\hidden.exe`, SystemPid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateProcess("bystander.exe", `C:\b.exe`, SystemPid); err != nil {
		t.Fatal(err)
	}
	eproc, err := k.EprocessByPid(pid)
	if err != nil {
		t.Fatal(err)
	}
	// fu -ph <pid>
	if err := k.Mem.ListRemove(eproc + EprocActiveLinks); err != nil {
		t.Fatal(err)
	}
	normal, err := k.Processes()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range normal {
		if p.Pid == pid {
			t.Error("DKOM-unlinked process visible on Active Process List")
		}
	}
	if len(normal) != 2 {
		t.Errorf("bystanders disturbed: %v", names(normal))
	}
	advanced, err := k.ProcessesAdvanced()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range advanced {
		if p.Pid == pid && p.Name == "hidden.exe" {
			found = true
		}
	}
	if !found {
		t.Error("advanced mode must still see the DKOM-hidden process")
	}
	// The hidden process is still fully functional: it can spawn threads
	// and exit cleanly.
	if _, err := k.CreateThread(pid); err != nil {
		t.Errorf("hidden process cannot create threads: %v", err)
	}
	if err := k.ExitProcess(pid); err != nil {
		t.Errorf("hidden process cannot exit: %v", err)
	}
}

func TestDriversLoadUnload(t *testing.T) {
	k := mustKernel(t)
	if _, err := k.LoadDriver(`C:\WINDOWS\system32\drivers\tcpip.sys`); err != nil {
		t.Fatal(err)
	}
	if _, err := k.LoadDriver(`C:\WINDOWS\system32\hxdefdrv.sys`); err != nil {
		t.Fatal(err)
	}
	drv, err := k.Drivers()
	if err != nil {
		t.Fatal(err)
	}
	if len(drv) != 2 {
		t.Fatalf("drivers = %+v", drv)
	}
	if err := k.UnloadDriver("hxdefdrv.sys"); err != nil {
		t.Fatal(err)
	}
	drv, err = k.Drivers()
	if err != nil {
		t.Fatal(err)
	}
	if len(drv) != 1 || drv[0].Path != `C:\WINDOWS\system32\drivers\tcpip.sys` {
		t.Errorf("after unload: %+v", drv)
	}
	if err := k.UnloadDriver("nope.sys"); !errors.Is(err, ErrNoSuchModule) {
		t.Errorf("unload missing = %v", err)
	}
}

func TestPidByNameFindsHiddenProcesses(t *testing.T) {
	k := mustKernel(t)
	pid, err := k.CreateProcess("hxdef100.exe", `C:\hxdef\hxdef100.exe`, SystemPid)
	if err != nil {
		t.Fatal(err)
	}
	eproc, err := k.EprocessByPid(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Mem.ListRemove(eproc + EprocActiveLinks); err != nil {
		t.Fatal(err)
	}
	got, err := k.PidByName("HXDEF100.EXE")
	if err != nil {
		t.Fatal(err)
	}
	if got != pid {
		t.Errorf("PidByName = %d, want %d", got, pid)
	}
}

// TestDumpTraversalMatchesLive: the same walkers over a snapshot image
// must produce identical results — the basis of the crash-dump scan.
func TestDumpTraversalMatchesLive(t *testing.T) {
	k := mustKernel(t)
	for i := 0; i < 5; i++ {
		if _, err := k.CreateProcess("svc.exe", `C:\svc.exe`, SystemPid); err != nil {
			t.Fatal(err)
		}
	}
	live, err := k.Processes()
	if err != nil {
		t.Fatal(err)
	}
	img := kmem.NewImageReader(k.Mem.Snapshot())
	dumped, err := WalkActiveProcessList(img, k.Layout())
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != len(dumped) {
		t.Fatalf("live %d vs dump %d", len(live), len(dumped))
	}
	for i := range live {
		if live[i].Pid != dumped[i].Pid || live[i].Name != dumped[i].Name {
			t.Errorf("entry %d: live %+v dump %+v", i, live[i], dumped[i])
		}
	}
	liveAdv, err := k.ProcessesAdvanced()
	if err != nil {
		t.Fatal(err)
	}
	dumpAdv, err := WalkCidProcesses(img, k.Layout())
	if err != nil {
		t.Fatal(err)
	}
	if len(liveAdv) != len(dumpAdv) {
		t.Errorf("advanced: live %d vs dump %d", len(liveAdv), len(dumpAdv))
	}
}

// Property: for any sequence of creates and exits, the Active Process
// List view and the CID view agree exactly (absent DKOM).
func TestQuickViewsAgreeWithoutDKOM(t *testing.T) {
	f := func(ops []bool) bool {
		k, err := New()
		if err != nil {
			return false
		}
		var livePids []uint64
		for _, create := range ops {
			if create || len(livePids) == 0 {
				pid, err := k.CreateProcess("p.exe", `C:\p.exe`, SystemPid)
				if err != nil {
					return false
				}
				livePids = append(livePids, pid)
			} else {
				pid := livePids[0]
				livePids = livePids[1:]
				if err := k.ExitProcess(pid); err != nil {
					return false
				}
			}
		}
		normal, err := k.Processes()
		if err != nil {
			return false
		}
		advanced, err := k.ProcessesAdvanced()
		if err != nil {
			return false
		}
		if len(normal) != len(advanced) || len(normal) != len(livePids)+1 {
			return false
		}
		seen := map[uint64]bool{}
		for _, p := range normal {
			seen[p.Pid] = true
		}
		for _, p := range advanced {
			if !seen[p.Pid] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestVadIsIndependentTruth: blanking the PEB module name must leave the
// VAD image list intact — the asymmetry hidden-module detection exploits.
func TestVadIsIndependentTruth(t *testing.T) {
	k := mustKernel(t)
	pid, err := k.CreateProcess("victim2.exe", `C:\victim2.exe`, SystemPid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.LoadModule(pid, `C:\WINDOWS\vanquish.dll`); err != nil {
		t.Fatal(err)
	}
	entry, err := k.FindModuleEntry(pid, "vanquish.dll")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.BlankModuleName(entry); err != nil {
		t.Fatal(err)
	}
	truth, err := k.ModulesTruth(pid)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range truth {
		if m.Path == `C:\WINDOWS\vanquish.dll` {
			found = true
		}
	}
	if !found {
		t.Error("VAD truth lost the blanked module")
	}
	// And the two views now disagree by exactly one named path.
	peb, err := k.Modules(pid)
	if err != nil {
		t.Fatal(err)
	}
	pebNames := map[string]bool{}
	for _, m := range peb {
		if m.Path != "" {
			pebNames[m.Path] = true
		}
	}
	missing := 0
	for _, m := range truth {
		if !pebNames[m.Path] {
			missing++
		}
	}
	if missing != 1 {
		t.Errorf("views differ by %d paths, want 1", missing)
	}
}

func TestErrorPaths(t *testing.T) {
	k := mustKernel(t)
	if _, err := k.CreateThread(99999); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("CreateThread on missing pid = %v", err)
	}
	if _, err := k.LoadModule(99999, `C:\x.dll`); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("LoadModule on missing pid = %v", err)
	}
	if err := k.ExitProcess(99999); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("ExitProcess on missing pid = %v", err)
	}
	if _, err := k.Modules(99999); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("Modules on missing pid = %v", err)
	}
	if _, err := k.ModulesTruth(99999); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("ModulesTruth on missing pid = %v", err)
	}
	if _, err := k.PidByName("ghost.exe"); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("PidByName miss = %v", err)
	}
	if _, err := k.FindModuleEntry(SystemPid, "none.dll"); !errors.Is(err, ErrNoSuchModule) {
		t.Errorf("FindModuleEntry miss = %v", err)
	}
}

func TestUnloadDriverByFullPath(t *testing.T) {
	k := mustKernel(t)
	if _, err := k.LoadDriver(`C:\drivers\exact.sys`); err != nil {
		t.Fatal(err)
	}
	if err := k.UnloadDriver(`C:\drivers\exact.sys`); err != nil {
		t.Errorf("unload by full path: %v", err)
	}
}

func TestExitedProcessStaysReadableInMemory(t *testing.T) {
	// Kernel pool residue: the EPROCESS memory survives exit, so a
	// forensic walker could still decode it by address.
	k := mustKernel(t)
	pid, err := k.CreateProcess("gone.exe", `C:\gone.exe`, SystemPid)
	if err != nil {
		t.Fatal(err)
	}
	eproc, err := k.EprocessByPid(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.ExitProcess(pid); err != nil {
		t.Fatal(err)
	}
	name, err := k.Mem.ReadCString(eproc+EprocImageName, 32)
	if err != nil || name != "gone.exe" {
		t.Errorf("residue name = %q err %v", name, err)
	}
	flags, err := k.Mem.ReadU64(eproc + EprocFlags)
	if err != nil || flags&1 == 0 {
		t.Errorf("exited flag not set: %#x err %v", flags, err)
	}
}

// recordingReader logs the address of every read it serves.
type recordingReader struct {
	kmem.Reader
	addrs []uint64
}

func (r *recordingReader) ReadU64(addr uint64) (uint64, error) {
	r.addrs = append(r.addrs, addr)
	return r.Reader.ReadU64(addr)
}

func (r *recordingReader) ReadU32(addr uint64) (uint32, error) {
	r.addrs = append(r.addrs, addr)
	return r.Reader.ReadU32(addr)
}

func (r *recordingReader) ReadBytes(addr uint64, n int) ([]byte, error) {
	r.addrs = append(r.addrs, addr)
	return r.Reader.ReadBytes(addr, n)
}

func (r *recordingReader) ReadCString(addr uint64, maxLen int) (string, error) {
	r.addrs = append(r.addrs, addr)
	return r.Reader.ReadCString(addr, maxLen)
}

// TestCidWalkReadOrderIsFixed: the CID walk issues the same reads at the
// same addresses, in the same order, on every run, so a fault plan that
// fails the K-th scan read fails the same read — with the same error
// text — for every K. Exits free CID slots that later processes reuse,
// so slot order differs from allocation order.
func TestCidWalkReadOrderIsFixed(t *testing.T) {
	k := mustKernel(t)
	var pids []uint64
	for i := 0; i < 24; i++ {
		pid, err := k.CreateProcess(fmt.Sprintf("p%02d.exe", i), fmt.Sprintf(`C:\p%02d.exe`, i), SystemPid)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	for _, pid := range pids[:12:12] {
		if err := k.ExitProcess(pid); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := k.CreateProcess(fmt.Sprintf("q%02d.exe", i), "", SystemPid); err != nil {
			t.Fatal(err)
		}
	}
	var first []uint64
	for run := 0; run < 20; run++ {
		rec := &recordingReader{Reader: k.Mem}
		procs, err := WalkCidProcesses(rec, k.Layout())
		if err != nil {
			t.Fatal(err)
		}
		if len(procs) != 1+12+8 {
			t.Fatalf("run %d: %d processes, want 21", run, len(procs))
		}
		if run == 0 {
			first = rec.addrs
			continue
		}
		if !slices.Equal(rec.addrs, first) {
			t.Fatalf("run %d read a different address sequence (%d reads vs %d)", run, len(rec.addrs), len(first))
		}
	}
}
