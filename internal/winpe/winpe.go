// Package winpe implements the paper's outside-the-box solution: boot
// the suspect machine from a clean WinPE CD and scan its disk and
// Registry hives with no ghostware running, then diff against the
// high-level scan taken inside the box. "Since the ghostware programs
// are not running when we perform a scan from WinPE, there will not be
// any hiding or malicious interference" (§1).
//
// The price of the larger time gap is reboot-window churn: always-
// running services flush logs during shutdown, so the outside diff
// contains a handful of benign new files (§2's false positives), which
// the standard noise filters classify.
package winpe

import (
	"fmt"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/machine"
)

// Session is a machine booted into WinPE. While the session is open the
// suspect OS is down; Exit boots it back.
type Session struct {
	m          *machine.Machine
	diskImage  []byte
	hiveImages map[string][]byte
	exited     bool
}

// BootCD shuts the machine down (service-flush churn happens here, as in
// a real shutdown), charges the CD boot time (the paper's 1.5–3 min),
// and captures the persistent state for clean scanning.
func BootCD(m *machine.Machine) (*Session, error) {
	// Capture hive images BEFORE shutdown? No — the hive files on disk
	// are flushed at shutdown; WinPE reads the post-shutdown state.
	if err := m.Shutdown(); err != nil {
		return nil, fmt.Errorf("winpe: shutting down: %w", err)
	}
	boot := m.Profile.RebootTime
	if boot <= 0 {
		boot = 2 * time.Minute
	}
	m.Clock.Advance(boot)
	s := &Session{m: m, hiveImages: map[string][]byte{}}
	s.diskImage = m.Disk.SnapshotImage()
	for _, root := range m.Reg.Roots() {
		h, ok := m.Reg.HiveAt(root)
		if !ok {
			continue
		}
		s.hiveImages[root] = h.Snapshot()
	}
	return s, nil
}

// ScanFiles performs the clean outside file scan over the captured
// disk, interning into t (the table of the inside scan it is diffed
// against).
func (s *Session) ScanFiles(t *core.InternTable) (*core.ColumnarSnapshot, error) {
	return core.ScanFilesImage(s.diskImage, core.ViewWinPE, s.m.Clock, s.m.Profile, t)
}

// ScanASEPs mounts the captured hive files under the WinPE OS and
// collects ASEP hooks from the truth, interning into t.
func (s *Session) ScanASEPs(t *core.InternTable) (*core.ColumnarSnapshot, error) {
	return core.ScanASEPImages(s.hiveImages, core.ViewWinPE, s.m.Clock, s.m.Profile, t)
}

// Exit reboots the suspect machine back into its own OS (ASEP hooks
// fire again, so surviving ghostware reactivates).
func (s *Session) Exit() error {
	if s.exited {
		return nil
	}
	s.exited = true
	boot := s.m.Profile.RebootTime
	if boot <= 0 {
		boot = 2 * time.Minute
	}
	s.m.Clock.Advance(boot / 2)
	return s.m.Boot()
}

// OutsideFileCheck runs the complete outside-the-box hidden-file
// detection: inside high-level scan, WinPE boot, outside scan, diff
// (with the standard noise filters), reboot back.
func OutsideFileCheck(m *machine.Machine, opts core.DiffOptions) (*core.Report, error) {
	t := core.NewInternTable()
	inside, err := core.ScanFilesHighC(m, m.SystemCall(), t)
	if err != nil {
		return nil, err
	}
	s, err := BootCD(m)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Exit() }()
	outside, err := s.ScanFiles(t)
	if err != nil {
		return nil, err
	}
	if opts.NoiseFilters == nil {
		opts.NoiseFilters = core.StandardNoiseFilters()
	}
	report, err := core.SealedDiffColumnar(inside, outside, opts)
	if err != nil {
		return nil, err
	}
	if err := s.Exit(); err != nil {
		return nil, err
	}
	return report, nil
}

// OutsideASEPCheck runs the complete outside-the-box hidden-ASEP
// detection.
func OutsideASEPCheck(m *machine.Machine, opts core.DiffOptions) (*core.Report, error) {
	t := core.NewInternTable()
	inside, err := core.ScanASEPHighC(m, m.SystemCall(), t)
	if err != nil {
		return nil, err
	}
	s, err := BootCD(m)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Exit() }()
	outside, err := s.ScanASEPs(t)
	if err != nil {
		return nil, err
	}
	report, err := core.SealedDiffColumnar(inside, outside, opts)
	if err != nil {
		return nil, err
	}
	if err := s.Exit(); err != nil {
		return nil, err
	}
	return report, nil
}
