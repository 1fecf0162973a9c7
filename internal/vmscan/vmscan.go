// Package vmscan implements the §5 virtual-machine automation of the
// outside-the-box scan: run the infected high-level scan inside the
// guest, "power down" the VM, and scan the released virtual disk from
// the host. Because the host reads exactly the drive image the guest
// scan saw — no reboot window, no service churn in between — the diff
// has zero false positives ("a diff of the two scans revealed all the
// hidden files and contained zero false positive because the two scans
// were performed on exactly the same drive image").
package vmscan

import (
	"fmt"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/machine"
)

// GuestResult carries the artifacts captured from a powered-down guest.
type GuestResult struct {
	// InsideHigh is the guest's file scan; the host scan interns into
	// its table so the two views diff directly.
	InsideHigh *core.ColumnarSnapshot
	DiskImage  []byte
	HiveImages map[string][]byte
}

// PowerDownAndCapture runs the inside high-level scan in the guest, then
// powers the VM off without an orderly shutdown (the host simply stops
// the VM process), releasing the virtual disk in exactly the scanned
// state.
func PowerDownAndCapture(guest *machine.Machine) (*GuestResult, error) {
	inside, err := core.ScanFilesHighC(guest, guest.SystemCall(), core.NewInternTable())
	if err != nil {
		return nil, fmt.Errorf("vmscan: guest scan: %w", err)
	}
	res := &GuestResult{InsideHigh: inside, HiveImages: map[string][]byte{}}
	res.DiskImage = guest.Disk.SnapshotImage()
	for _, root := range guest.Reg.Roots() {
		h, ok := guest.Reg.HiveAt(root)
		if !ok {
			continue
		}
		res.HiveImages[root] = h.Snapshot()
	}
	// Power-off is near-instant compared to a CD boot.
	guest.Clock.Advance(5 * time.Second)
	return res, nil
}

// HostFileCheck mounts the released virtual drive on the host ("a
// utility that allows a virtual drive to appear as a normal drive") and
// diffs the host's clean scan against the guest's infected scan.
func HostFileCheck(guest *machine.Machine, res *GuestResult, opts core.DiffOptions) (*core.Report, error) {
	outside, err := core.ScanFilesImage(res.DiskImage, core.ViewVMHost, guest.Clock, guest.Profile, res.InsideHigh.Table())
	if err != nil {
		return nil, err
	}
	if opts.NoiseFilters == nil {
		// No reboot window exists in the VM flow, so only the baseline
		// filters (benign ADS markers) apply.
		opts.NoiseFilters = core.BaselineNoiseFilters()
	}
	return core.SealedDiffColumnar(res.InsideHigh, outside, opts)
}

// Check runs the full VM flow: guest scan, power down, host scan, diff.
func Check(guest *machine.Machine, opts core.DiffOptions) (*core.Report, error) {
	res, err := PowerDownAndCapture(guest)
	if err != nil {
		return nil, err
	}
	return HostFileCheck(guest, res, opts)
}
