package core

import (
	"fmt"

	"ghostbuster/internal/machine"
	"ghostbuster/internal/ntfs"
	"ghostbuster/internal/vtime"
	"ghostbuster/internal/winapi"
)

// This file holds the detection surfaces beyond the paper's four
// resource types: loaded-driver diffing and deleted-file forensics.

// scanDriversHighC lists loaded drivers through the (hookable) API chain.
func scanDriversHighC(m *machine.Machine, call *winapi.Call, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(m.Clock)
	drvs, err := m.API.EnumDriversWin32(call)
	if err != nil {
		return nil, fmt.Errorf("core: high-level driver scan: %w", err)
	}
	// The "base 0x<hex>" detail matches the former fmt.Sprintf("base %#x")
	// rendering byte-for-byte.
	bld := NewColumnarBuilder(t, KindDrivers, ViewWin32Inside, len(drvs))
	var idBuf, detBuf []byte
	for _, d := range drvs {
		var sym Sym
		sym, idBuf = internFileID(t, idBuf, d.Path)
		detBuf = appendBaseDetail(detBuf, d.Base)
		bld.AddRow(sym, d.Path, t.InternStrBytes(detBuf))
	}
	snap := bld.Build()
	m.Clock.ChargeOps(int64(len(drvs)), costPerModule)
	snap.Taken = m.Clock.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// scanDriversLowC walks the kernel's loaded-module list directly.
func scanDriversLowC(m *machine.Machine, clk *vtime.Clock, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clk)
	drvs, err := m.Kern.Drivers()
	if err != nil {
		return nil, fmt.Errorf("core: low-level driver scan: %w", err)
	}
	bld := NewColumnarBuilder(t, KindDrivers, ViewKernelAPL, len(drvs))
	var idBuf, detBuf []byte
	for _, d := range drvs {
		var sym Sym
		sym, idBuf = internFileID(t, idBuf, d.Path)
		detBuf = appendBaseDetail(detBuf, d.Base)
		bld.AddRow(sym, d.Path, t.InternStrBytes(detBuf))
	}
	snap := bld.Build()
	clk.ChargeOps(int64(len(drvs)), costPerModule)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// driversPair is the driver diff, run on its own outside any sweep.
var driversPair = pairSpec{"drivers", 0, KindDrivers, ViewWin32Inside, ViewKernelAPL, apiUnit(scanDriversHighC), rawUnit(scanDriversLowC)}

// ScanDrivers diffs the driver views, exposing rootkits that filter the
// driver-enumeration API (a natural next step for Hacker Defender-style
// rootkits once AskStrider made the visible driver a liability, §4).
func (d *Detector) ScanDrivers() (*Report, error) { return d.scanPair(&driversPair) }

// DeletedFile is one stale MFT record recovered forensically.
type DeletedFile struct {
	Name   string
	Record uint32
	Size   uint64
}

// ScanDeletedFiles lists files whose MFT records were freed but not yet
// reused — the residue left when ghostware deletes itself (or when an
// operator removes it). The paper's removal story ends with file
// deletion; this extension proves post-hoc what was removed.
func ScanDeletedFiles(m *machine.Machine) ([]DeletedFile, error) {
	var entries []ntfs.DeletedEntry
	err := m.Disk.WithDevice(func(dev []byte) error {
		var err error
		entries, err = ntfs.ScanDeleted(dev)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: deleted-file scan: %w", err)
	}
	out := make([]DeletedFile, 0, len(entries))
	for _, e := range entries {
		out = append(out, DeletedFile{Name: e.Name, Record: e.Record, Size: e.Size})
	}
	m.Clock.ChargeOps(int64(len(entries)), costPerRepFileLow)
	return out, nil
}
