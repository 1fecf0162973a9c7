package machine

import (
	"fmt"
	"time"
)

// minuteTick is the virtual time one churn tick represents.
const minuteTick = time.Minute

// ChurnKind identifies an always-running service that writes files on
// its own schedule. These are the paper's outside-the-box false-positive
// sources (§2): "log files generated by always-running services (such as
// anti-virus real-time scanners and Change and Configuration Management
// (CCM) services), System Restore file-change log entries, OS prefetched
// files, and browser temporary files."
type ChurnKind int

// The churn services observed in the paper.
const (
	ChurnAVLogger ChurnKind = iota + 1
	ChurnCCM
	ChurnPrefetch
	ChurnSystemRestore
	ChurnBrowserTemp
)

// String names the churn service.
func (k ChurnKind) String() string {
	switch k {
	case ChurnAVLogger:
		return "anti-virus real-time scanner"
	case ChurnCCM:
		return "Change and Configuration Management service"
	case ChurnPrefetch:
		return "OS prefetcher"
	case ChurnSystemRestore:
		return "System Restore"
	case ChurnBrowserTemp:
		return "browser temporary files"
	default:
		return "unknown churn"
	}
}

type churnState struct {
	kind  ChurnKind
	ticks int
}

func newChurn(kind ChurnKind, m *Machine) (*churnState, error) {
	c := &churnState{kind: kind}
	// Each service has an install footprint so its churn has somewhere
	// to live.
	switch kind {
	case ChurnAVLogger:
		if err := m.MkdirAll(`C:\Program Files\eTrust\logs`); err != nil {
			return nil, err
		}
		if err := m.DropFile(`C:\Program Files\eTrust\InocIT.exe`, []byte("MZ")); err != nil {
			return nil, err
		}
	case ChurnCCM:
		if err := m.MkdirAll(`C:\WINDOWS\ccm\inventory`); err != nil {
			return nil, err
		}
	case ChurnSystemRestore:
		if err := m.MkdirAll(`C:\System Volume Information\_restore{B7A4-11D9}\RP1`); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// onBoot writes the files a fresh boot produces: prefetch entries for
// the base processes.
func (c *churnState) onBoot(m *Machine) error {
	if c.kind != ChurnPrefetch {
		return nil
	}
	for _, p := range bootProcesses {
		pf := fmt.Sprintf(`C:\WINDOWS\Prefetch\%s-%08X.pf`, p.name, hashString(p.path))
		if m.FileExists(pf) {
			continue
		}
		if err := m.DropFile(pf, []byte("SCCA")); err != nil {
			return err
		}
	}
	return nil
}

// onShutdown flushes service state: these are precisely the new files
// that appear between the inside scan and the WinPE outside scan.
func (c *churnState) onShutdown(m *Machine) error {
	boot := m.bootCount
	switch c.kind {
	case ChurnAVLogger:
		// Rotate the realtime log: one new file per shutdown.
		return m.DropFile(fmt.Sprintf(`C:\Program Files\eTrust\logs\rt-%04d.log`, boot), []byte("scan clean\n"))
	case ChurnCCM:
		// The CCM agent snapshots inventory state in several files; this
		// machine shows ~5 extra false positives until CCM is disabled
		// (the paper's 7 -> 2 experiment).
		for i := 0; i < 5; i++ {
			f := fmt.Sprintf(`C:\WINDOWS\ccm\inventory\inv-%04d-%d.xml`, boot, i)
			if err := m.DropFile(f, []byte("<inventory/>")); err != nil {
				return err
			}
		}
		return nil
	case ChurnSystemRestore:
		f := fmt.Sprintf(`C:\System Volume Information\_restore{B7A4-11D9}\RP1\change-%04d.log`, boot)
		return m.DropFile(f, []byte("SR"))
	default:
		return nil
	}
}

// onTick performs the service's periodic work: mostly appends, with
// occasional new files (browser cache).
func (c *churnState) onTick(m *Machine) error {
	c.ticks++
	switch c.kind {
	case ChurnAVLogger:
		return m.AppendFile(`C:\Program Files\eTrust\logs\realtime.log`, []byte("ok\n"))
	case ChurnCCM:
		return m.AppendFile(`C:\WINDOWS\ccm\ccm.log`, []byte("heartbeat\n"))
	case ChurnBrowserTemp:
		if c.ticks%3 != 0 {
			return nil
		}
		f := fmt.Sprintf(`C:\Documents and Settings\user\Local Settings\Temporary Internet Files\cache%06d.tmp`, c.ticks+m.bootCount*1000)
		if err := m.DropFile(f, []byte("GIF89a")); err != nil {
			return err
		}
		// Downloads carry the browser's zone marker in an alternate data
		// stream — the benign ADS population real machines have.
		vp, err := VolumePath(f)
		if err != nil {
			return err
		}
		return m.Disk.CreateStream(vp, "Zone.Identifier", []byte("[ZoneTransfer]\nZoneId=3\n"))
	case ChurnSystemRestore:
		if c.ticks%10 != 0 {
			return nil
		}
		f := fmt.Sprintf(`C:\System Volume Information\_restore{B7A4-11D9}\RP1\A%07d.cpy`, c.ticks)
		return m.DropFile(f, []byte("copy"))
	default:
		return nil
	}
}

// DisableChurn removes a churn service (the paper disables the CCM
// service to cut outside-the-box false positives from 7 to 2).
func (m *Machine) DisableChurn(kind ChurnKind) {
	kept := m.churn[:0]
	for _, c := range m.churn {
		if c.kind != kind {
			kept = append(kept, c)
		}
	}
	m.churn = kept
}

// hashString is a small deterministic string hash (FNV-1a) for stable
// synthetic filenames.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
