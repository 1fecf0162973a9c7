package ghostware

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ghostbuster/internal/kernel"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/ntfs"
	"ghostbuster/internal/winapi"
)

// This file provides the composable technique constructors the ghostfuzz
// adversary generator draws from: a Composite assembles hiding "atoms"
// from the full technique lattice (hook-based hiding at any interception
// level × any resource type, plus the hookless tricks — Win32-restricted
// names, ADS payloads, NUL/over-long Registry names, DKOM — and the §5
// targeting and decoy behaviours). Every artifact name is derived purely
// from the atom's position in the list, never from the machine RNG, so a
// shrunk atom list replays the surviving atoms byte-for-byte.

// AtomKind selects one hiding technique.
type AtomKind int

// The technique lattice.
const (
	// AtomFileHide drops files and hides them with an enumeration filter
	// at the atom's Level.
	AtomFileHide AtomKind = iota + 1
	// AtomWin32Name drops files whose names Win32 cannot address
	// (trailing dot/space, reserved device names). No hook anywhere.
	AtomWin32Name
	// AtomADS tucks payloads into alternate data streams of an innocent
	// carrier file. No hook anywhere.
	AtomADS
	// AtomRegHide creates ASEP hooks (Run values and service keys) and
	// hides them with a Registry-query filter at the atom's Level.
	AtomRegHide
	// AtomRegNul creates Run values with embedded-NUL or over-long
	// counted-string names via the Native API. No hook anywhere.
	AtomRegNul
	// AtomProcHide starts processes and hides them with a
	// process-enumeration filter at the atom's Level.
	AtomProcHide
	// AtomProcDKOM starts processes and unlinks their EPROCESS from the
	// Active Process List (the FU technique). No hook anywhere.
	AtomProcDKOM
	// AtomModHide loads DLLs into explorer.exe and hides them with a
	// module-enumeration filter at the atom's Level.
	AtomModHide
	// AtomDecoy hides Count innocent files together with its payload
	// (the §5 mass-hiding attack) at the atom's Level.
	AtomDecoy
	// AtomEvasive starts processes and hides them with an ADAPTIVE
	// process filter: a companion watcher hook observes directory
	// enumeration, and when it sees a scan-shaped signature (an
	// enumeration of the volume root — every full file walk starts
	// there), the filter unhides for a window so a cross-view diff that
	// walked files first sees nothing. Countered by randomized scan-unit
	// ordering and cross-time diffing.
	AtomEvasive
	// AtomMemOnly starts processes and scrubs them from the Active
	// Process List AND the CID handle table, keeping zero file/Registry
	// footprint of its own. Only a pool-tag carve of kernel memory (live
	// or crash dump) sees the EPROCESS allocation.
	AtomMemOnly
	// AtomBootkit writes its payload into the boot sector's bootstrap-
	// code slack (below every file) and hooks the boot-sector read API to
	// hand back the pristine pre-infection sector. Countered by the
	// boot-chain truth source: inside read vs raw device bytes.
	AtomBootkit
	// AtomUSBHide drops payloads on the removable E: volume and hides
	// them with an enumeration filter at the atom's Level (the USBcat
	// pattern). Countered by the removable-device truth source.
	AtomUSBHide
)

// kindCodes maps atom kinds to the one-letter code used in artifact
// names and spec lines.
var kindCodes = map[AtomKind]string{
	AtomFileHide: "f", AtomWin32Name: "w", AtomADS: "a",
	AtomRegHide: "k", AtomRegNul: "r",
	AtomProcHide: "p", AtomProcDKOM: "q",
	AtomModHide: "m", AtomDecoy: "d",
	AtomEvasive: "v", AtomMemOnly: "y",
	AtomBootkit: "b", AtomUSBHide: "u",
}

// String names the atom kind as spec lines spell it.
func (k AtomKind) String() string {
	switch k {
	case AtomFileHide:
		return "file"
	case AtomWin32Name:
		return "win32"
	case AtomADS:
		return "ads"
	case AtomRegHide:
		return "reg"
	case AtomRegNul:
		return "regnul"
	case AtomProcHide:
		return "proc"
	case AtomProcDKOM:
		return "dkom"
	case AtomModHide:
		return "mod"
	case AtomDecoy:
		return "decoy"
	case AtomEvasive:
		return "evasive"
	case AtomMemOnly:
		return "memonly"
	case AtomBootkit:
		return "bootkit"
	case AtomUSBHide:
		return "usbhide"
	default:
		return "unknown"
	}
}

// Hooked reports whether the kind installs an API filter (and therefore
// has a meaningful Level and Scope).
func (k AtomKind) Hooked() bool {
	switch k {
	case AtomFileHide, AtomRegHide, AtomProcHide, AtomModHide, AtomDecoy,
		AtomEvasive, AtomBootkit, AtomUSBHide:
		return true
	}
	return false
}

// Scope is the §5 targeting dimension: which processes experience the
// lie.
type Scope int

// Targeting scopes.
const (
	// ScopeAll lies to every process.
	ScopeAll Scope = iota
	// ScopeUtilities lies only to the common OS utilities (Task Manager,
	// tlist, Explorer, cmd, RegEdit) — the HideFromUtilities strategy.
	ScopeUtilities
	// ScopeExcept lies to everything except the process named
	// ExemptName.
	ScopeExcept
)

// Atom is one hiding technique instance inside a Composite.
type Atom struct {
	Kind AtomKind
	// Level is the interception level for Hooked() kinds; ignored (and
	// normalized to LevelNone) otherwise.
	Level winapi.Level
	// Count is how many artifacts the atom plants (files, values,
	// processes, modules; for AtomDecoy, innocent files). Zero means 1.
	Count int
	// Scope selects the §5 targeting behaviour for Hooked() kinds.
	Scope Scope
	// ExemptName is the process spared the lie when Scope is
	// ScopeExcept.
	ExemptName string
}

func (a Atom) count() int {
	if a.Count <= 0 {
		return 1
	}
	return a.Count
}

// appliesTo converts the atom's scope to a hook predicate (nil = every
// caller).
func (a Atom) appliesTo() func(winapi.Proc) bool {
	switch a.Scope {
	case ScopeUtilities:
		return func(p winapi.Proc) bool { return utilityNames[strings.ToUpper(p.Name)] }
	case ScopeExcept:
		name := a.ExemptName
		return func(p winapi.Proc) bool { return !strings.EqualFold(p.Name, name) }
	default:
		return nil
	}
}

// tag is the unique uppercase name fragment every artifact of atom i
// carries: "GFZ" + kind letter + index + "X". The trailing X stops an
// index from matching a longer index's prefix.
func atomTag(i int, k AtomKind) string {
	return strings.ToUpper(fmt.Sprintf("gfz%s%dx", kindCodes[k], i))
}

const (
	compositeDir    = `C:\WINDOWS\system32`
	compositeRunKey = `HKLM\SOFTWARE\Microsoft\Windows\CurrentVersion\Run`
	compositeSvcKey = `HKLM\SYSTEM\CurrentControlSet\Services`
)

// Composite is a generated ghostware assembled from technique atoms. It
// implements Ghostware plus module ground truth (HiddenModules), and it
// registers a visible loader ASEP so its volatile behaviour — hooks,
// processes, DKOM unlinks, module injections — reinstalls at every
// boot, exactly as real ghostware survives reboots.
type Composite struct {
	hider
	atoms      []Atom
	hiddenMods []string // uppercase DLL base-name fragments
	loaderExe  string

	// Next-generation ground truth, kept out of the classic fields
	// because the paper's four pairs do NOT see these artifacts — each
	// has its own counter-unit.
	hiddenEvasive   []string // evasive process image names
	hiddenMemOnly   []string // memory-only process image names
	hiddenBoot      []string // tampered boot-sector region names
	hiddenRemovable []string // full E:\ paths of hidden removable payloads
}

// EvasiveProcs returns image names of adaptive-evasion processes: hidden
// from a fixed-order sweep, exposed by randomized ordering or cross-time
// diffing.
func (c *Composite) EvasiveProcs() []string { return append([]string(nil), c.hiddenEvasive...) }

// MemOnlyProcs returns image names of memory-only processes, visible
// solely to the pool-carve scan.
func (c *Composite) MemOnlyProcs() []string { return append([]string(nil), c.hiddenMemOnly...) }

// BootRegions returns boot-sector region names the composite tampers
// with ("CODE").
func (c *Composite) BootRegions() []string { return append([]string(nil), c.hiddenBoot...) }

// RemovableFiles returns full paths of hidden payloads on the removable
// volume.
func (c *Composite) RemovableFiles() []string { return append([]string(nil), c.hiddenRemovable...) }

// Atoms returns the technique list (copies).
func (c *Composite) Atoms() []Atom { return append([]Atom(nil), c.atoms...) }

// HiddenModules returns uppercase DLL base names the composite hides
// from module enumeration (match findings by substring).
func (c *Composite) HiddenModules() []string { return append([]string(nil), c.hiddenMods...) }

// NewComposite assembles a ghostware from atoms. The label personalizes
// loader names so several composites can coexist on one fleet host; it
// must be a plain letters-and-digits token.
func NewComposite(label string, atoms []Atom) *Composite {
	c := &Composite{
		hider: hider{
			name:  "Composite-" + label,
			class: "generated ghostware (ghostfuzz)",
		},
		atoms:     append([]Atom(nil), atoms...),
		loaderExe: compositeDir + `\gfzldr` + label + `.exe`,
	}
	for i, a := range c.atoms {
		if !a.Kind.Hooked() {
			c.atoms[i].Level = winapi.LevelNone
		}
		c.declare(i, c.atoms[i])
	}
	return c
}

// declare computes atom i's ground-truth artifacts and technique rows.
func (c *Composite) declare(i int, a Atom) {
	tag := strings.ToLower(atomTag(i, a.Kind))
	n := a.count()
	label := fmt.Sprintf("%s hiding at %v (atom %d)", a.Kind, a.Level, i)
	switch a.Kind {
	case AtomFileHide:
		c.techniques = append(c.techniques, Technique{API: winapi.APIFileEnum, Level: a.Level, Label: label})
		for j := 0; j < n; j++ {
			c.hiddenFiles = append(c.hiddenFiles, fmt.Sprintf(`%s\%s%d.exe`, compositeDir, tag, j))
		}
	case AtomWin32Name:
		c.techniques = append(c.techniques, Technique{API: winapi.APIFileEnum, Level: winapi.LevelNone, Label: "Win32-unaddressable filenames"})
		for j := 0; j < n; j++ {
			c.hiddenFiles = append(c.hiddenFiles, win32TrickPath(tag, j))
		}
	case AtomADS:
		c.techniques = append(c.techniques, Technique{API: winapi.APIFileEnum, Level: winapi.LevelNone, Label: "payload in alternate data streams"})
		host := adsHostPath(tag)
		for j := 0; j < n; j++ {
			c.hiddenFiles = append(c.hiddenFiles, fmt.Sprintf("%s:s%d", host, j))
		}
	case AtomRegHide:
		c.techniques = append(c.techniques, Technique{API: winapi.APIRegQuery, Level: a.Level, Label: label})
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("%s%d", tag, j)
			if j%2 == 0 {
				c.hiddenASEPs = append(c.hiddenASEPs, compositeRunKey+"|"+name)
			} else {
				c.hiddenASEPs = append(c.hiddenASEPs, compositeSvcKey+`\`+name)
			}
		}
	case AtomRegNul:
		c.techniques = append(c.techniques, Technique{API: winapi.APIRegQuery, Level: winapi.LevelNone, Label: "embedded-NUL and over-long counted-string names"})
		for j := 0; j < n; j++ {
			c.hiddenASEPs = append(c.hiddenASEPs, compositeRunKey+"|"+regNulValueName(tag, j))
		}
	case AtomProcHide:
		c.techniques = append(c.techniques, Technique{API: winapi.APIProcEnum, Level: a.Level, Label: label})
		for j := 0; j < n; j++ {
			c.hiddenProcs = append(c.hiddenProcs, fmt.Sprintf("%s%d.exe", tag, j))
		}
	case AtomProcDKOM:
		c.techniques = append(c.techniques, Technique{API: winapi.APIProcEnum, Level: winapi.LevelNone, Label: "DKOM: unlinks EPROCESS from the Active Process List"})
		for j := 0; j < n; j++ {
			c.hiddenProcs = append(c.hiddenProcs, fmt.Sprintf("%s%d.exe", tag, j))
		}
	case AtomModHide:
		c.techniques = append(c.techniques, Technique{API: winapi.APIModEnum, Level: a.Level, Label: label})
		for j := 0; j < n; j++ {
			c.hiddenMods = append(c.hiddenMods, strings.ToUpper(fmt.Sprintf("%s%d.dll", tag, j)))
		}
	case AtomDecoy:
		c.techniques = append(c.techniques, Technique{API: winapi.APIFileEnum, Level: a.Level, Label: fmt.Sprintf("mass-hides %d innocents plus payload (atom %d)", n, i)})
		dir := decoyDir(tag)
		c.hiddenFiles = append(c.hiddenFiles, dir)
		for j := 0; j < n; j++ {
			c.hiddenFiles = append(c.hiddenFiles, fmt.Sprintf(`%s\doc%04d.txt`, dir, j))
		}
		c.hiddenFiles = append(c.hiddenFiles, decoyPayload(tag))
	case AtomEvasive:
		c.techniques = append(c.techniques, Technique{API: winapi.APIProcEnum, Level: a.Level, Label: fmt.Sprintf("adaptive evasion: unhides during scan-shaped enumeration (atom %d)", i)})
		for j := 0; j < n; j++ {
			c.hiddenEvasive = append(c.hiddenEvasive, fmt.Sprintf("%s%d.exe", tag, j))
		}
	case AtomMemOnly:
		c.techniques = append(c.techniques, Technique{API: winapi.APIProcEnum, Level: winapi.LevelNone, Label: "memory-only: scrubbed from the APL and the CID handle table, zero disk footprint"})
		for j := 0; j < n; j++ {
			c.hiddenMemOnly = append(c.hiddenMemOnly, fmt.Sprintf("%s%d.exe", tag, j))
		}
	case AtomBootkit:
		c.techniques = append(c.techniques, Technique{API: winapi.APIBootRead, Level: a.Level, Label: fmt.Sprintf("bootkit: payload in boot-sector code slack, sanitized inside reads (atom %d)", i)})
		c.hiddenBoot = append(c.hiddenBoot, "CODE")
	case AtomUSBHide:
		c.techniques = append(c.techniques, Technique{API: winapi.APIFileEnum, Level: a.Level, Label: fmt.Sprintf("removable-device payload hidden from enumeration (atom %d)", i)})
		for j := 0; j < n; j++ {
			c.hiddenRemovable = append(c.hiddenRemovable, fmt.Sprintf(`%s\%s%d.sys`, machine.RemovableDrive, tag, j))
		}
	}
}

func win32TrickPath(tag string, j int) string {
	base := fmt.Sprintf(`%s\%s%d`, compositeDir, tag, j)
	switch j % 3 {
	case 0:
		return base + "." // trailing dot
	case 1:
		return base + " " // trailing space
	default:
		return fmt.Sprintf(`%s\NUL.%s%d`, compositeDir, tag, j) // reserved device base name
	}
}

func adsHostPath(tag string) string   { return fmt.Sprintf(`%s\%s-host.txt`, compositeDir, tag) }
func decoyDir(tag string) string      { return `C:\` + tag }
func decoyPayload(tag string) string  { return fmt.Sprintf(`%s\%spay.exe`, compositeDir, tag) }
func regNulPayload(tag string) string { return fmt.Sprintf(`%s\%spay.exe`, compositeDir, tag) }
func regHidePayload(tag string, j int) string {
	return fmt.Sprintf(`%s\%s%d.exe`, compositeDir, tag, j)
}

func regNulValueName(tag string, j int) string {
	if j%2 == 0 {
		return fmt.Sprintf("%s%d\x00drv", tag, j)
	}
	// Over-long counted-string name: invisible to Win32 readers.
	return fmt.Sprintf("%s%d", tag, j) + strings.Repeat("A", 256)
}

// Install drops every persistent artifact, creates the ASEP hooks, and
// registers + runs the loader activation (hooks, processes, DKOM,
// module loads). The loader itself — file, Run value — is deliberately
// visible: the stealth budget is spent on the atoms.
func (c *Composite) Install(m *machine.Machine) error {
	act := c.activation()
	if err := dropAndRegister(m, c.loaderExe, "MZ gfz loader", act); err != nil {
		return err
	}
	if _, err := runHook(m, baseName(strings.TrimSuffix(c.loaderExe, ".exe")), c.loaderExe); err != nil {
		return err
	}
	for i, a := range c.atoms {
		if err := c.installPersistent(m, i, a); err != nil {
			return fmt.Errorf("ghostware: composite atom %d (%v): %w", i, a.Kind, err)
		}
	}
	return act(m)
}

// installPersistent lays down atom i's on-disk and in-hive state.
func (c *Composite) installPersistent(m *machine.Machine, i int, a Atom) error {
	tag := strings.ToLower(atomTag(i, a.Kind))
	n := a.count()
	switch a.Kind {
	case AtomFileHide:
		for j := 0; j < n; j++ {
			if err := m.DropFile(fmt.Sprintf(`%s\%s%d.exe`, compositeDir, tag, j), []byte("MZ gfz file")); err != nil {
				return err
			}
		}
	case AtomWin32Name:
		for j := 0; j < n; j++ {
			if err := m.DropFile(win32TrickPath(tag, j), []byte("MZ gfz name trick")); err != nil {
				return err
			}
		}
	case AtomADS:
		host := adsHostPath(tag)
		if err := m.DropFile(host, []byte("perfectly ordinary notes")); err != nil {
			return err
		}
		vp, err := machine.VolumePath(host)
		if err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			if err := m.Disk.CreateStream(vp, fmt.Sprintf("s%d", j), []byte("MZ gfz ads payload")); err != nil {
				return err
			}
		}
	case AtomRegHide:
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("%s%d", tag, j)
			payload := regHidePayload(tag, j)
			if err := m.DropFile(payload, []byte("MZ gfz asep payload")); err != nil {
				return err
			}
			if j%2 == 0 {
				if _, err := runHook(m, name, payload); err != nil {
					return err
				}
			} else if _, err := serviceHook(m, name, payload); err != nil {
				return err
			}
		}
	case AtomRegNul:
		payload := regNulPayload(tag)
		if err := m.DropFile(payload, []byte("MZ gfz nul payload")); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			if err := m.Reg.SetString(compositeRunKey, regNulValueName(tag, j), payload); err != nil {
				return err
			}
		}
	case AtomProcHide, AtomProcDKOM, AtomEvasive:
		for j := 0; j < n; j++ {
			if err := m.DropFile(fmt.Sprintf(`%s\%s%d.exe`, compositeDir, tag, j), []byte("MZ gfz proc")); err != nil {
				return err
			}
		}
	case AtomModHide:
		for j := 0; j < n; j++ {
			if err := m.DropFile(fmt.Sprintf(`%s\%s%d.dll`, compositeDir, tag, j), []byte("MZ gfz module")); err != nil {
				return err
			}
		}
	case AtomDecoy:
		for j := 0; j < n; j++ {
			if err := m.DropFile(fmt.Sprintf(`%s\doc%04d.txt`, decoyDir(tag), j), []byte("innocent user document")); err != nil {
				return err
			}
		}
		if err := m.DropFile(decoyPayload(tag), []byte("MZ gfz decoy payload")); err != nil {
			return err
		}
	case AtomMemOnly:
		// Deliberately nothing: the whole point is zero file and Registry
		// footprint. The (visible) composite loader re-runs the activation
		// at every boot, which is how real memory-only malware persists —
		// through some other component, not through its own artifacts.
	case AtomBootkit:
		payload := []byte("GFZBOOT " + tag)
		off := ntfs.BootCodeOff + (i*31)%(ntfs.BootCodeLen-len(payload))
		if err := m.WriteDeviceBytes(off, payload); err != nil {
			return err
		}
	case AtomUSBHide:
		m.EnsureRemovable()
		for j := 0; j < n; j++ {
			full := fmt.Sprintf(`%s\%s%d.sys`, machine.RemovableDrive, tag, j)
			if err := m.DropRemovableFile(full, []byte("MZ gfz usb payload")); err != nil {
				return err
			}
		}
	}
	return nil
}

// activation builds the boot-time (re)install: every volatile behaviour
// of every atom, in atom order.
func (c *Composite) activation() machine.Activation {
	atoms := append([]Atom(nil), c.atoms...)
	owner := c.name
	return func(m *machine.Machine) error {
		for i, a := range atoms {
			if err := activateAtom(m, owner, i, a); err != nil {
				return fmt.Errorf("ghostware: composite atom %d (%v) activation: %w", i, a.Kind, err)
			}
		}
		return nil
	}
}

func activateAtom(m *machine.Machine, owner string, i int, a Atom) error {
	tag := atomTag(i, a.Kind)
	lower := strings.ToLower(tag)
	n := a.count()
	applies := a.appliesTo()
	switch a.Kind {
	case AtomFileHide:
		m.API.Install(winapi.NewFileHideHook(owner, a.Level, "generated file filter", applies,
			func(call *winapi.Call, e winapi.DirEntry) bool { return pathMatches(e.Path, tag) }))
	case AtomRegHide:
		m.API.Install(winapi.NewRegHideHook(owner, a.Level, "generated Registry filter", applies,
			func(call *winapi.Call, keyPath, subkey string) bool {
				return strings.HasSuffix(strings.ToUpper(keyPath), `\SERVICES`) && strings.HasPrefix(strings.ToUpper(subkey), tag)
			},
			func(call *winapi.Call, keyPath, valueName string) bool {
				return strings.HasSuffix(strings.ToUpper(keyPath), `\RUN`) && strings.HasPrefix(strings.ToUpper(valueName), tag)
			}))
	case AtomProcHide:
		m.API.Install(winapi.NewProcHideHook(owner, a.Level, "generated process filter", applies,
			func(call *winapi.Call, p winapi.ProcEntry) bool {
				return strings.Contains(strings.ToUpper(p.Name), tag)
			}))
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("%s%d.exe", lower, j)
			if _, err := m.StartProcess(name, compositeDir+`\`+name); err != nil {
				return err
			}
		}
	case AtomProcDKOM:
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("%s%d.exe", lower, j)
			pid, err := m.StartProcess(name, compositeDir+`\`+name)
			if err != nil {
				return err
			}
			eproc, err := m.Kern.EprocessByPid(pid)
			if err != nil {
				return err
			}
			if err := m.Kern.Mem.ListRemove(eproc + kernel.EprocActiveLinks); err != nil {
				return err
			}
		}
	case AtomModHide:
		m.API.Install(winapi.NewModHideHook(owner, a.Level, "generated module filter", applies,
			func(call *winapi.Call, mod winapi.ModEntry) bool { return pathMatches(mod.Path, tag) }))
		pid, err := m.Kern.PidByName("explorer.exe")
		if err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			if _, err := m.Kern.LoadModule(pid, fmt.Sprintf(`%s\%s%d.dll`, compositeDir, lower, j)); err != nil {
				return err
			}
		}
	case AtomDecoy:
		dir := strings.ToUpper(decoyDir(lower))
		m.API.Install(winapi.NewFileHideHook(owner, a.Level, "generated mass-hide filter", applies,
			func(call *winapi.Call, e winapi.DirEntry) bool {
				up := strings.ToUpper(e.Path)
				if up == dir || strings.HasPrefix(up, dir+`\`) {
					return true
				}
				return pathMatches(e.Path, tag+"PAY")
			}))
	case AtomEvasive:
		// Two cooperating hooks share one trigger: the watcher observes
		// directory enumeration and fires on the scan signature (an
		// enumeration of the system volume root — every full file walk
		// starts there); the process filter lies only while the trigger is
		// cold. A sweep that walks files before processes therefore sees
		// the process in BOTH views (clean diff); only an ordering the
		// ghost cannot predict catches the hide in the act.
		watch := &evasiveState{window: evasiveWindow}
		m.API.Install(winapi.NewFileEnumWatchHook(owner, a.Level, "scan-signature watcher",
			func(call *winapi.Call, dir string) {
				if strings.EqualFold(strings.TrimSuffix(dir, `\`), machine.Drive) {
					watch.trigger(callNow(m, call))
				}
			}))
		m.API.Install(winapi.NewProcHideHook(owner, a.Level, "adaptive process filter", applies,
			func(call *winapi.Call, p winapi.ProcEntry) bool {
				if watch.active(callNow(m, call)) {
					return false // scan-shaped activity seen: act innocent
				}
				return strings.Contains(strings.ToUpper(p.Name), tag)
			}))
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("%s%d.exe", lower, j)
			if _, err := m.StartProcess(name, compositeDir+`\`+name); err != nil {
				return err
			}
		}
	case AtomMemOnly:
		// Empty image path: the process has no on-disk backing at all.
		for j := 0; j < n; j++ {
			pid, err := m.StartProcess(fmt.Sprintf("%s%d.exe", lower, j), "")
			if err != nil {
				return err
			}
			if err := m.Kern.ConcealProcess(pid); err != nil {
				return err
			}
		}
	case AtomBootkit:
		m.API.Install(winapi.NewBootSanitizeHook(owner, a.Level, "boot-read sanitizer", applies, m.BootBaseline()))
	case AtomUSBHide:
		m.API.Install(winapi.NewFileHideHook(owner, a.Level, "removable payload filter", applies,
			func(call *winapi.Call, e winapi.DirEntry) bool { return pathMatches(e.Path, tag) }))
	}
	return nil
}

// evasiveWindow is how long an evasive atom stays unhidden after seeing
// scan-shaped activity. Long enough to outlast any one sweep; the
// counter is ordering the ghost cannot predict, not outwaiting it.
const evasiveWindow = 2 * time.Hour

// evasiveState is the trigger shared between an evasive atom's watcher
// and its process filter. Virtual-time based: "now" comes from the
// calling sweep's clock, so the window is deterministic under replay.
type evasiveState struct {
	mu     sync.Mutex
	until  time.Duration
	window time.Duration
}

func (s *evasiveState) trigger(now time.Duration) {
	s.mu.Lock()
	if t := now + s.window; t > s.until {
		s.until = t
	}
	s.mu.Unlock()
}

func (s *evasiveState) active(now time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return now < s.until
}

// callNow returns the current virtual time as hook code sees it: the
// calling sweep's clock when one is attached, the machine wall clock
// otherwise.
func callNow(m *machine.Machine, call *winapi.Call) time.Duration {
	if call != nil && call.Clock != nil {
		return call.Clock.Now()
	}
	return m.Clock.Now()
}
