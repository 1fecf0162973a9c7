package ghostware

import (
	"fmt"
	"strings"

	"ghostbuster/internal/kernel"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/winapi"
)

// --- Urbin [ZU] ----------------------------------------------------------------
//
// Trojan captured from the wild. Alters per-process IAT entries of the
// file- and Registry-enumeration APIs to point at Trojan import
// functions; loaded into every process via an AppInit_DLLs hook, which
// it also hides (Figures 2, 3, 4).

// Urbin is the Urbin trojan.
type Urbin struct{ hider }

// NewUrbin constructs the trojan model.
func NewUrbin() *Urbin {
	const dll = `C:\WINDOWS\system32\msvsres.dll`
	return &Urbin{hider{
		name: "Urbin", class: "trojan (in the wild)",
		techniques: []Technique{
			{API: winapi.APIFileEnum, Level: winapi.LevelIAT, Label: "IAT entry of FindFirst(Next)File -> Trojan import"},
			{API: winapi.APIRegQuery, Level: winapi.LevelIAT, Label: "IAT entry of RegEnumValue -> Trojan import"},
		},
		hiddenFiles: []string{dll},
		hiddenASEPs: []string{`HKLM\SOFTWARE\Microsoft\Windows NT\CurrentVersion\Windows|AppInit_DLLs`},
	}}
}

// Install drops msvsres.dll, hooks AppInit_DLLs, and activates.
func (g *Urbin) Install(m *machine.Machine) error {
	return installAppInitTrojan(m, g.name, g.hiddenFiles[0])
}

// Mersting is the second in-the-wild AppInit trojan; identical technique
// with a different payload DLL (kbddfl.dll).
type Mersting struct{ hider }

// NewMersting constructs the trojan model.
func NewMersting() *Mersting {
	const dll = `C:\WINDOWS\system32\kbddfl.dll`
	return &Mersting{hider{
		name: "Mersting", class: "trojan (in the wild)",
		techniques: []Technique{
			{API: winapi.APIFileEnum, Level: winapi.LevelIAT, Label: "IAT entry of FindFirst(Next)File -> Trojan import"},
			{API: winapi.APIRegQuery, Level: winapi.LevelIAT, Label: "IAT entry of RegEnumValue -> Trojan import"},
		},
		hiddenFiles: []string{dll},
		hiddenASEPs: []string{`HKLM\SOFTWARE\Microsoft\Windows NT\CurrentVersion\Windows|AppInit_DLLs`},
	}}
}

// Install drops kbddfl.dll, hooks AppInit_DLLs, and activates.
func (g *Mersting) Install(m *machine.Machine) error {
	return installAppInitTrojan(m, g.name, g.hiddenFiles[0])
}

func installAppInitTrojan(m *machine.Machine, name, dllPath string) error {
	dllBase := baseName(dllPath)
	act := func(m *machine.Machine) error {
		m.API.Install(winapi.NewFileHideHook(name, winapi.LevelIAT,
			"IAT FindFirst(Next)File", nil,
			func(call *winapi.Call, e winapi.DirEntry) bool { return pathMatches(e.Path, dllBase) }))
		m.API.Install(winapi.NewRegHideHook(name, winapi.LevelIAT,
			"IAT RegEnumValue", nil, nil,
			func(call *winapi.Call, keyPath, valueName string) bool {
				return strings.HasSuffix(strings.ToUpper(keyPath), `CURRENTVERSION\WINDOWS`) &&
					strings.EqualFold(valueName, "AppInit_DLLs")
			}))
		return nil
	}
	if err := dropAndRegister(m, dllPath, "MZ trojan "+name, act); err != nil {
		return err
	}
	if _, err := appInitHook(m, dllBase); err != nil {
		return err
	}
	return act(m)
}

// --- Vanquish [ZV] ----------------------------------------------------------------
//
// Rootkit that directly modifies loaded in-memory API code (its function
// is called, then it calls the next OS function). Hides every
// "*vanquish*" file, hides its service ASEP hook, and blanks the
// vanquish.dll pathname out of each process's PEB module list.

// Vanquish is the Vanquish rootkit.
type Vanquish struct{ hider }

// NewVanquish constructs the rootkit model.
func NewVanquish() *Vanquish {
	return &Vanquish{hider{
		name: "Vanquish", class: "rootkit",
		techniques: []Technique{
			{API: winapi.APIFileEnum, Level: winapi.LevelUserCode, Label: "in-memory API code modification (call-then-chain)"},
			{API: winapi.APIRegQuery, Level: winapi.LevelUserCode, Label: "in-memory API code modification (call-then-chain)"},
			{API: winapi.APIModEnum, Level: winapi.LevelNone, Label: "blanks vanquish.dll pathname in PEB module lists"},
		},
		hiddenFiles: []string{`C:\WINDOWS\vanquish.exe`, `C:\WINDOWS\vanquish.dll`, `C:\vanquish.log`},
		hiddenASEPs: []string{`HKLM\SYSTEM\CurrentControlSet\Services\Vanquish`},
	}}
}

// Install drops the vanquish files, sets and hides its service hook,
// and activates (code patches + DLL injection with PEB blanking).
func (g *Vanquish) Install(m *machine.Machine) error {
	const exe = `C:\WINDOWS\vanquish.exe`
	const dll = `C:\WINDOWS\vanquish.dll`
	act := func(m *machine.Machine) error {
		if _, err := m.StartProcess("vanquish.exe", exe); err != nil {
			return err
		}
		m.API.Install(winapi.NewFileHideHook(g.name, winapi.LevelUserCode,
			"modified Kernel32 API code", nil,
			func(call *winapi.Call, e winapi.DirEntry) bool { return pathMatches(e.Path, "vanquish") }))
		m.API.Install(winapi.NewRegHideHook(g.name, winapi.LevelUserCode,
			"modified Advapi32 API code", nil,
			func(call *winapi.Call, keyPath, subkey string) bool {
				return strings.HasSuffix(strings.ToUpper(keyPath), `\SERVICES`) && strings.EqualFold(subkey, "Vanquish")
			}, nil))
		// Inject vanquish.dll into every running process and blank its
		// PEB pathname.
		inject := func(m *machine.Machine, pid uint64) error {
			if _, err := m.Kern.LoadModule(pid, dll); err != nil {
				return err
			}
			entry, err := m.Kern.FindModuleEntry(pid, "vanquish.dll")
			if err != nil {
				return err
			}
			return m.Kern.BlankModuleName(entry)
		}
		procs, err := m.Kern.ProcessesAdvanced()
		if err != nil {
			return err
		}
		for _, p := range procs {
			if p.Pid == kernel.SystemPid || strings.EqualFold(p.Name, "vanquish.exe") {
				continue
			}
			if err := inject(m, p.Pid); err != nil {
				return err
			}
		}
		// Processes created later get injected too (the rootkit watches
		// process creation, as the real one does).
		m.RegisterProcessNotifier(func(m *machine.Machine, pid uint64, name string) error {
			if strings.EqualFold(name, "vanquish.exe") {
				return nil
			}
			return inject(m, pid)
		})
		return nil
	}
	if err := dropAndRegister(m, exe, "MZ vanquish", act); err != nil {
		return err
	}
	if err := m.DropFile(dll, []byte("MZ vanquish dll")); err != nil {
		return err
	}
	if err := m.DropFile(`C:\vanquish.log`, []byte("injected\n")); err != nil {
		return err
	}
	if _, err := serviceHook(m, "Vanquish", exe); err != nil {
		return err
	}
	return act(m)
}

// --- Aphex / AFX Windows Rootkit 2003 [ZAF] -----------------------------------------
//
// Hides files whose names match a configurable prefix (default "~") via
// an inline detour of Kernel32!FindFirst(Next)File; hides processes by
// rewriting the IAT entry of NtDll!NtQuerySystemInformation; hides its
// Run-key hook.

// Aphex is the AFX rootkit.
type Aphex struct {
	hider
	prefix string
	exe    string
}

// NewAphex constructs the rootkit with the default "~" name prefix.
func NewAphex() *Aphex { return NewAphexWithPrefix("~") }

// NewAphexWithPrefix constructs the rootkit with a custom hide prefix.
func NewAphexWithPrefix(prefix string) *Aphex {
	exe := `C:\WINDOWS\system32\` + prefix + `afx.exe`
	return &Aphex{
		hider: hider{
			name: "Aphex", class: "rootkit",
			techniques: []Technique{
				{API: winapi.APIFileEnum, Level: winapi.LevelUserCode, Label: "jmp detour in Kernel32!FindFirst(Next)File"},
				{API: winapi.APIRegQuery, Level: winapi.LevelUserCode, Label: "jmp detour in Advapi32 Registry APIs"},
				{API: winapi.APIProcEnum, Level: winapi.LevelIAT, Label: "IAT entry of NtDll!NtQuerySystemInformation"},
			},
			hiddenFiles: []string{exe, `C:\WINDOWS\system32\` + prefix + `afx.log`},
			hiddenASEPs: []string{`HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Run|` + prefix + `afx`},
			hiddenProcs: []string{prefix + "afx.exe"},
		},
		prefix: prefix,
		exe:    exe,
	}
}

// Install drops the prefix-named files, sets and hides a Run hook, and
// activates.
func (g *Aphex) Install(m *machine.Machine) error {
	prefix := g.prefix
	runName := prefix + "afx"
	act := func(m *machine.Machine) error {
		if _, err := m.StartProcess(baseName(g.exe), g.exe); err != nil {
			return err
		}
		hasPrefix := func(s string) bool { return strings.HasPrefix(strings.ToUpper(s), strings.ToUpper(prefix)) }
		m.API.Install(winapi.NewFileHideHook(g.name, winapi.LevelUserCode,
			"Kernel32 detour", nil,
			func(call *winapi.Call, e winapi.DirEntry) bool { return hasPrefix(e.Name) }))
		m.API.Install(winapi.NewRegHideHook(g.name, winapi.LevelUserCode,
			"Advapi32 detour", nil, nil,
			func(call *winapi.Call, keyPath, valueName string) bool {
				return strings.HasSuffix(strings.ToUpper(keyPath), `\RUN`) && strings.EqualFold(valueName, runName)
			}))
		m.API.Install(winapi.NewProcHideHook(g.name, winapi.LevelIAT,
			"IAT NtQuerySystemInformation", nil,
			func(call *winapi.Call, p winapi.ProcEntry) bool { return hasPrefix(p.Name) }))
		return nil
	}
	if err := dropAndRegister(m, g.exe, "MZ afx", act); err != nil {
		return err
	}
	if err := m.DropFile(g.hiddenFiles[1], []byte("afx log\n")); err != nil {
		return err
	}
	if _, err := runHook(m, runName, g.exe); err != nil {
		return err
	}
	return act(m)
}

// --- Hacker Defender 1.0 [ZH] ----------------------------------------------------
//
// "The most popular Windows rootkit today" (§6). Detours
// NtDll!NtQueryDirectoryFile and NtDll!NtQuerySystemInformation with jmp
// instructions; hides every file/process matching the patterns in
// hxdef100.ini; hides both of its service ASEP hooks (service +
// driver). Its driver remains visible in the loaded-driver list, which
// is how AskStrider catches it.

// HackerDefender is Hacker Defender 1.0.
type HackerDefender struct {
	hider
	patterns []string
	// exempt lists process names that see the truth (no hiding). The §5
	// dilemma experiment configures the AV scanner here: showing itself
	// to InocIT.exe trades GhostBuster detection for signature detection.
	exempt []string
}

// HackerDefenderDir is the rootkit's install directory.
const HackerDefenderDir = `C:\hxdef`

// NewHackerDefender constructs the rootkit with its default hxdef*
// patterns.
func NewHackerDefender() *HackerDefender { return NewHackerDefenderWithPatterns([]string{"hxdef"}) }

// NewHackerDefenderExempting constructs the rootkit configured NOT to
// hide from the given process names (the "don't hide from the AV
// scanner" horn of the §5 dilemma).
func NewHackerDefenderExempting(exempt []string) *HackerDefender {
	g := NewHackerDefender()
	g.exempt = exempt
	return g
}

// NewHackerDefenderWithPatterns constructs the rootkit with custom
// hxdef100.ini hide patterns (name fragments).
func NewHackerDefenderWithPatterns(patterns []string) *HackerDefender {
	return &HackerDefender{
		hider: hider{
			name: "Hacker Defender 1.0", class: "rootkit",
			techniques: []Technique{
				{API: winapi.APIFileEnum, Level: winapi.LevelNtdll, Label: "jmp detour in NtDll!NtQueryDirectoryFile"},
				{API: winapi.APIRegQuery, Level: winapi.LevelNtdll, Label: "jmp detour in NtDll!NtEnumerateKey"},
				{API: winapi.APIProcEnum, Level: winapi.LevelNtdll, Label: "jmp detour in NtDll!NtQuerySystemInformation"},
			},
			hiddenFiles: []string{
				HackerDefenderDir, // the install directory matches hxdef* too
				HackerDefenderDir + `\hxdef100.exe`,
				HackerDefenderDir + `\hxdef100.ini`,
				`C:\WINDOWS\system32\hxdefdrv.sys`,
			},
			hiddenASEPs: []string{
				`HKLM\SYSTEM\CurrentControlSet\Services\HackerDefender100`,
				`HKLM\SYSTEM\CurrentControlSet\Services\HackerDefenderDrv100`,
			},
			hiddenProcs: []string{"hxdef100.exe"},
		},
		patterns: patterns,
	}
}

// Install drops hxdef100.exe/.ini and hxdefdrv.sys, sets and hides its
// two service hooks, and activates.
func (g *HackerDefender) Install(m *machine.Machine) error {
	exe := HackerDefenderDir + `\hxdef100.exe`
	ini := HackerDefenderDir + `\hxdef100.ini`
	drv := `C:\WINDOWS\system32\hxdefdrv.sys`
	installPatterns := g.patterns
	exempt := g.exempt
	// The rootkit re-reads its ini at every startup; editing the file
	// changes what is hidden after the next boot.
	currentPatterns := func(m *machine.Machine) []string {
		vp, err := machine.VolumePath(ini)
		if err != nil {
			return installPatterns
		}
		data, err := m.Disk.ReadFile(vp)
		if err != nil {
			return installPatterns
		}
		if parsed := ParseHxdefIni(data); len(parsed) > 0 {
			return parsed
		}
		return installPatterns
	}
	var patterns []string
	matches := func(s string) bool {
		up := strings.ToUpper(s)
		for _, p := range patterns {
			if strings.Contains(up, strings.ToUpper(p)) {
				return true
			}
		}
		return false
	}
	var appliesTo func(winapi.Proc) bool
	if len(exempt) > 0 {
		appliesTo = func(p winapi.Proc) bool {
			for _, e := range exempt {
				if strings.EqualFold(p.Name, e) {
					return false
				}
			}
			return true
		}
	}
	act := func(m *machine.Machine) error {
		patterns = currentPatterns(m)
		if _, err := m.StartProcess("hxdef100.exe", exe); err != nil {
			return err
		}
		if _, err := m.Kern.LoadDriver(drv); err != nil {
			return err
		}
		m.API.Install(winapi.NewFileHideHook(g.name, winapi.LevelNtdll,
			"NtQueryDirectoryFile detour", appliesTo,
			func(call *winapi.Call, e winapi.DirEntry) bool { return matches(e.Name) }))
		m.API.Install(winapi.NewRegHideHook(g.name, winapi.LevelNtdll,
			"NtEnumerateKey detour", appliesTo,
			func(call *winapi.Call, keyPath, subkey string) bool {
				return strings.HasSuffix(strings.ToUpper(keyPath), `\SERVICES`) && strings.HasPrefix(strings.ToUpper(subkey), "HACKERDEFENDER")
			}, nil))
		m.API.Install(winapi.NewProcHideHook(g.name, winapi.LevelNtdll,
			"NtQuerySystemInformation detour", appliesTo,
			func(call *winapi.Call, p winapi.ProcEntry) bool { return matches(p.Name) }))
		return nil
	}
	if err := dropAndRegister(m, exe, "MZ hxdef", act); err != nil {
		return err
	}
	if err := m.DropFile(ini, BuildHxdefIni(g.patterns)); err != nil {
		return err
	}
	if err := m.DropFile(drv, []byte("MZ hxdefdrv")); err != nil {
		return err
	}
	if _, err := serviceHook(m, "HackerDefender100", exe); err != nil {
		return err
	}
	if _, err := serviceHook(m, "HackerDefenderDrv100", `system32\hxdefdrv.sys`); err != nil {
		return err
	}
	return act(m)
}

// --- Berbew [ZB] ----------------------------------------------------------------
//
// Backdoor that hides its (randomly named) process by placing a jmp
// inside the in-memory NtDll!NtQuerySystemInformation code (Figure 5).

// Berbew is the Berbew backdoor.
type Berbew struct {
	hider
	exeName string // filled at Install (random)
}

// NewBerbew constructs the backdoor model.
func NewBerbew() *Berbew {
	return &Berbew{hider: hider{
		name: "Berbew", class: "backdoor",
		techniques: []Technique{
			{API: winapi.APIProcEnum, Level: winapi.LevelNtdll, Label: "jmp inside NtDll!NtQuerySystemInformation code"},
		},
	}}
}

// Install drops a randomly named exe, adds a visible Run hook, and
// activates the process-hiding detour.
func (g *Berbew) Install(m *machine.Machine) error {
	g.exeName = randName(m) + ".exe"
	g.hiddenProcs = []string{g.exeName}
	exe := `C:\WINDOWS\system32\` + g.exeName
	name := g.exeName
	act := func(m *machine.Machine) error {
		if _, err := m.StartProcess(name, exe); err != nil {
			return err
		}
		m.API.Install(winapi.NewProcHideHook(g.name, winapi.LevelNtdll,
			"NtQuerySystemInformation jmp", nil,
			func(call *winapi.Call, p winapi.ProcEntry) bool { return strings.EqualFold(p.Name, name) }))
		return nil
	}
	if err := dropAndRegister(m, exe, "MZ berbew", act); err != nil {
		return err
	}
	if _, err := runHook(m, strings.TrimSuffix(g.exeName, ".exe"), exe); err != nil {
		return err
	}
	return act(m)
}

// --- FU [ZFU] ----------------------------------------------------------------
//
// The DKOM rootkit: its driver removes a target process's EPROCESS from
// the Active Process List. No API is hooked anywhere; the process
// remains fully functional because the scheduler works from threads, not
// from that list. Only GhostBuster's advanced mode (CID-table traversal)
// sees through it (Figure 6).

// FU is the FU rootkit.
type FU struct{ hider }

// NewFU constructs the rootkit model.
func NewFU() *FU {
	return &FU{hider{
		name: "FU", class: "rootkit (DKOM)",
		techniques: []Technique{
			{API: winapi.APIProcEnum, Level: winapi.LevelNone, Label: "DKOM: unlinks EPROCESS from the Active Process List"},
		},
	}}
}

// Install drops fu.exe and msdirectx.sys and loads the driver. Use
// HideProcess ("fu -ph <pid>") to hide targets.
func (g *FU) Install(m *machine.Machine) error {
	exe := `C:\fu\fu.exe`
	drv := `C:\fu\msdirectx.sys`
	act := func(m *machine.Machine) error {
		_, err := m.Kern.LoadDriver(drv)
		return err
	}
	if err := dropAndRegister(m, exe, "MZ fu", act); err != nil {
		return err
	}
	if err := m.DropFile(drv, []byte("MZ msdirectx")); err != nil {
		return err
	}
	if _, err := serviceHook(m, "msdirectx", drv); err != nil {
		return err
	}
	return act(m)
}

// HideProcess is "fu -ph <pid>": DKOM-unlink the process from the
// Active Process List, leaving its entry self-linked.
func (g *FU) HideProcess(m *machine.Machine, pid uint64) error {
	eproc, err := m.Kern.EprocessByPid(pid)
	if err != nil {
		return fmt.Errorf("ghostware: fu -ph %d: %w", pid, err)
	}
	if err := m.Kern.Mem.ListRemove(eproc + kernel.EprocActiveLinks); err != nil {
		return err
	}
	g.hiddenProcs = appendUnique(g.hiddenProcs, pidName(m, pid))
	return nil
}

// HideByName hides the first live process with the given image name.
func (g *FU) HideByName(m *machine.Machine, imageName string) error {
	pid, err := m.Kern.PidByName(imageName)
	if err != nil {
		return err
	}
	return g.HideProcess(m, pid)
}

func pidName(m *machine.Machine, pid uint64) string {
	procs, err := m.Kern.ProcessesAdvanced()
	if err != nil {
		return ""
	}
	for _, p := range procs {
		if p.Pid == pid {
			return p.Name
		}
	}
	return ""
}

func appendUnique(list []string, s string) []string {
	if s == "" {
		return list
	}
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return list
		}
	}
	return append(list, s)
}
