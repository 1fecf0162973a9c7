package machine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ghostbuster/internal/ntfs"
)

// RemovableDrive is the drive letter the hot-pluggable volume mounts at.
const RemovableDrive = "E:"

// ErrNoMedia reports an access to the removable drive while nothing is
// attached.
var ErrNoMedia = errors.New("machine: no media in " + RemovableDrive)

// Removable-volume geometry: a small stick — enough records for
// ghostware payloads plus a little user content.
const (
	removableClusters = 512
	removableRecords  = 128
)

// drivePath strips a drive prefix from a full Win32 path, yielding the
// volume-relative path.
func drivePath(drive, full string) (string, error) {
	if !strings.HasPrefix(strings.ToUpper(full), drive+`\`) && !strings.EqualFold(full, drive) {
		return "", fmt.Errorf("%w: %s", ErrBadPath, full)
	}
	return full[len(drive):], nil
}

// AttachRemovable plugs in a freshly formatted removable volume,
// replacing any currently attached media. Every attach is a new device:
// the hot-plug event counter advances so caches keyed on the old
// stick's generation can never validate against the new one.
func (m *Machine) AttachRemovable() error {
	vol, err := ntfs.Format(removableClusters, removableRecords)
	if err != nil {
		return fmt.Errorf("machine: formatting removable volume: %w", err)
	}
	m.remMu.Lock()
	if m.removableFault != nil {
		vol.SetDeviceFault(m.removableFault)
	}
	m.removable = vol
	m.removableEvents++
	m.remMu.Unlock()
	return nil
}

// SetRemovableFault installs (or, with nil, removes) the raw-read fault
// hook for the removable volume. The hook outlives hot-plug churn: it
// is stored on the machine and re-applied to every freshly attached
// stick, because a fault plan armed before the attach must still fire.
func (m *Machine) SetRemovableFault(f ntfs.DeviceFault) {
	m.remMu.Lock()
	m.removableFault = f
	if m.removable != nil {
		m.removable.SetDeviceFault(f)
	}
	m.remMu.Unlock()
}

// DetachRemovable unplugs the removable volume. Its contents are gone
// from the machine's point of view (the stick left with them).
func (m *Machine) DetachRemovable() {
	m.remMu.Lock()
	if m.removable != nil {
		m.removable = nil
		m.removableEvents++
	}
	m.remMu.Unlock()
}

// EnsureRemovable attaches media only if none is present, so several
// ghostware atoms can share one stick.
func (m *Machine) EnsureRemovable() error {
	if m.RemovableVolume() != nil {
		return nil
	}
	return m.AttachRemovable()
}

// RemovableVolume returns the attached volume, or nil when the bay is
// empty.
func (m *Machine) RemovableVolume() *ntfs.Volume {
	m.remMu.Lock()
	defer m.remMu.Unlock()
	return m.removable
}

// RemovableKey is the removable drive's cache-generation key: the
// hot-plug event count plus the attached volume's mutation generation
// ("-" when detached). Any attach, detach, or on-stick write changes
// the key.
func (m *Machine) RemovableKey() string {
	m.remMu.Lock()
	defer m.remMu.Unlock()
	if m.removable == nil {
		return strconv.FormatUint(m.removableEvents, 10) + ":-"
	}
	return strconv.FormatUint(m.removableEvents, 10) + ":" + strconv.FormatUint(m.removable.Generation(), 10)
}

// DropRemovableFile writes a file on the removable volume (creating
// parent directories), at the driver level like DropFile.
func (m *Machine) DropRemovableFile(full string, data []byte) error {
	vol := m.RemovableVolume()
	if vol == nil {
		return fmt.Errorf("%w: dropping %s", ErrNoMedia, full)
	}
	vp, err := drivePath(RemovableDrive, full)
	if err != nil {
		return err
	}
	if dir := removableDir(full); dir != RemovableDrive {
		dvp, err := drivePath(RemovableDrive, dir)
		if err != nil {
			return err
		}
		if err := vol.MkdirAll(dvp, m.Now()); err != nil {
			return err
		}
	}
	if vol.Exists(vp) {
		return vol.WriteFile(vp, data, m.Now())
	}
	return vol.Create(vp, ntfs.CreateOptions{Data: data, Created: m.Now(), Modified: m.Now()})
}

func removableDir(full string) string {
	i := strings.LastIndexByte(full, '\\')
	if i < 0 {
		return RemovableDrive
	}
	d := full[:i]
	if strings.EqualFold(d, RemovableDrive) {
		return RemovableDrive
	}
	return d
}
