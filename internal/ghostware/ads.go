package ghostware

import (
	"fmt"

	"ghostbuster/internal/machine"
	"ghostbuster/internal/winapi"
)

// ADSGhost hides its payload in NTFS Alternate Data Streams attached to
// innocent system files (paper §6 future work: "Stealth software may
// hide their persistent state in a form for which current OS does not
// provide query/enumeration APIs ... Alternate Data Streams (ADS)").
// No hook is installed anywhere: directory enumeration simply never
// mentions streams. Only the raw MFT parse lists them.
type ADSGhost struct {
	hider
	hostFile string
	streams  []string
}

// NewADSGhost constructs the ADS hider. It attaches streams to
// C:\WINDOWS\system32\calc-host.txt (created if missing).
func NewADSGhost() *ADSGhost {
	host := `C:\WINDOWS\system32\calc-host.txt`
	streams := []string{"payload.exe", "cfg"}
	g := &ADSGhost{
		hider: hider{
			name: "ADSGhost", class: "ADS hider (§6 future work)",
			techniques: []Technique{
				{API: winapi.APIFileEnum, Level: winapi.LevelNone, Label: "payload in NTFS alternate data streams"},
			},
		},
		hostFile: host,
		streams:  streams,
	}
	for _, s := range streams {
		g.hiddenFiles = append(g.hiddenFiles, host+":"+s)
	}
	return g
}

// HostFile returns the innocent carrier file.
func (g *ADSGhost) HostFile() string { return g.hostFile }

// Install drops the innocent host file and tucks the payload into its
// streams.
func (g *ADSGhost) Install(m *machine.Machine) error {
	if !m.FileExists(g.hostFile) {
		if err := m.DropFile(g.hostFile, []byte("perfectly ordinary notes")); err != nil {
			return err
		}
	}
	vp, err := machine.VolumePath(g.hostFile)
	if err != nil {
		return err
	}
	for _, s := range g.streams {
		if err := m.Disk.CreateStream(vp, s, []byte("MZ ads payload "+s)); err != nil {
			return fmt.Errorf("ghostware: creating stream %s: %w", s, err)
		}
	}
	// An ASEP hook keeps the payload running across reboots; the hook
	// launch command references the stream directly (cmd.exe supports
	// starting file:stream paths). The hook itself is visible — the
	// stealth is all in the file system.
	_, err = runHook(m, "adsldr", g.hostFile+":payload.exe")
	return err
}
