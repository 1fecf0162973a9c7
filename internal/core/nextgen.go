package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"ghostbuster/internal/kernel"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/ntfs"
	"ghostbuster/internal/vtime"
	"ghostbuster/internal/winapi"
)

// This file holds the next-generation scan units: detections for
// ghostware families that evade the paper's four cross-view pairs.
//
//   - kmem-carve: a pool-tag sweep of kernel memory diffed against the
//     CID table walk. A memory-only ghost unlinks itself from every
//     kernel list and keeps zero file/Registry footprint; its EPROCESS
//     allocation still carries the 'Proc' pool tag.
//   - boot-chain: the boot sector read through the (hookable) API
//     diffed region-by-region against the raw device bytes. A bootkit
//     lives in the sector's bootstrap-code slack and sanitizes inside
//     reads.
//   - removable: the paper's file pair replayed over the hot-pluggable
//     E: volume, whose own truth source (the raw stick image) comes and
//     goes with the hardware.

// UnitSet selects which next-generation scan units a sweep runs, beyond
// the always-on paper eight.
type UnitSet uint32

// The next-generation scan units.
const (
	UnitCrossMem UnitSet = 1 << iota
	UnitBootChain
	UnitRemovable
)

// Has reports whether u is enabled in s.
func (s UnitSet) Has(u UnitSet) bool { return s&u != 0 }

// Cost constants for the next-generation units: the pool carve is a
// sequential memory sweep (cheap per page), the boot reads are two
// single-sector accesses.
const (
	costPerCarvePage = 20 * time.Microsecond
	carvePageSize    = 4096
)

// --- kmem-carve pair -----------------------------------------------------------

// scanCrossMemHighC is the "lie" side of the memory pair: the CID table
// walk, i.e. what the kernel's own bookkeeping admits to. A memory-only
// ghost has scrubbed itself from here.
func scanCrossMemHighC(m *machine.Machine, clk *vtime.Clock, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clk)
	procs, err := kernel.WalkCidProcesses(m.Kern.ScanMem(), m.Kern.Layout())
	if err != nil {
		return nil, fmt.Errorf("core: kmem-carve high scan: %w", err)
	}
	snap := buildProcSnapshot(t, ViewKernelCID, procs)
	clk.ChargeOps(int64(len(procs)), costPerProcess)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// scanCrossMemLowC is the truth side: carve kernel memory for tagged
// EPROCESS allocations, trusting no list.
func scanCrossMemLowC(m *machine.Machine, clk *vtime.Clock, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clk)
	limit := m.Kern.Mem.Size()
	procs, err := kernel.CarveProcesses(m.Kern.ScanMem(), limit)
	if err != nil {
		return nil, fmt.Errorf("core: kmem-carve low scan: %w", err)
	}
	snap := buildProcSnapshot(t, ViewKernelCarve, procs)
	clk.ChargeOps(int64(limit/carvePageSize)+1, costPerCarvePage)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// --- boot-chain pair -----------------------------------------------------------

// scanBootHighC reads sector 0 through the hooked API chain and decodes
// it into regions against the machine's format-time baseline.
func scanBootHighC(m *machine.Machine, call *winapi.Call, t *InternTable) (*ColumnarSnapshot, error) {
	clk := clockFor(m, call)
	sw := vtime.NewStopwatch(clk)
	sector, err := m.API.ReadBootSectorWin32(call)
	if err != nil {
		return nil, fmt.Errorf("core: boot-chain high scan: %w", err)
	}
	snap, err := buildBootSnapshot(t, ViewBootAPI, sector, m.BootBaseline())
	if err != nil {
		return nil, fmt.Errorf("core: boot-chain high scan: %w", err)
	}
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// scanBootLowC reads sector 0 straight off the device, under the fault
// hook like every other raw scan (op "boot-read").
func scanBootLowC(m *machine.Machine, clk *vtime.Clock, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clk)
	var sector []byte
	err := m.Disk.WithDeviceOp("boot-read", func(dev []byte) error {
		if len(dev) < ntfs.BytesPerSector {
			return fmt.Errorf("core: device shorter than one sector (%d bytes)", len(dev))
		}
		sector = append([]byte(nil), dev[:ntfs.BytesPerSector]...)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: boot-chain low scan: %w", err)
	}
	snap, err := buildBootSnapshot(t, ViewBootRaw, sector, m.BootBaseline())
	if err != nil {
		return nil, fmt.Errorf("core: boot-chain low scan: %w", err)
	}
	clk.ChargeBytes(ntfs.BytesPerSector, diskBytesPerSecond(m.Profile))
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

func buildBootSnapshot(t *InternTable, view View, sector, baseline []byte) (*ColumnarSnapshot, error) {
	regions, err := ntfs.DecodeBootRegions(sector, baseline)
	if err != nil {
		return nil, err
	}
	bld := NewColumnarBuilder(t, KindBootChain, view, len(regions))
	for _, r := range regions {
		bld.Add(r.ID(), "boot sector "+r.Name, r.Status)
	}
	return bld.Build(), nil
}

// --- removable pair ------------------------------------------------------------

// scanRemovableHighC walks the removable drive through the API chain.
// An empty bay yields an empty snapshot: nothing attached, nothing to
// lie about.
func scanRemovableHighC(m *machine.Machine, call *winapi.Call, t *InternTable) (*ColumnarSnapshot, error) {
	clk := clockFor(m, call)
	sw := vtime.NewStopwatch(clk)
	entries, err := m.API.WalkTreeWin32(call, machine.RemovableDrive)
	if err != nil {
		if !errors.Is(err, machine.ErrNoMedia) {
			return nil, fmt.Errorf("core: removable high scan: %w", err)
		}
		entries = nil
	}
	bld := NewColumnarBuilder(t, KindFiles, ViewWin32Inside, len(entries))
	var idBuf, detBuf []byte
	for _, e := range entries {
		var sym Sym
		sym, idBuf = internFileID(t, idBuf, e.Path)
		detBuf = strconv.AppendUint(detBuf[:0], e.Size, 10)
		detBuf = append(detBuf, " bytes"...)
		bld.AddRow(sym, e.Path, t.InternStrBytes(detBuf))
	}
	snap := bld.Build()
	clk.ChargeOps(int64(len(entries)), costPerRepFileHigh)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}

// scanRemovableLowC raw-parses the removable device bytes — the stick's
// own MFT is the truth source, and it detaches with the hardware.
func scanRemovableLowC(m *machine.Machine, clk *vtime.Clock, t *InternTable) (*ColumnarSnapshot, error) {
	sw := vtime.NewStopwatch(clk)
	vol := m.RemovableVolume()
	if vol == nil {
		bld := NewColumnarBuilder(t, KindFiles, ViewRawRemovable, 0)
		snap := bld.Build()
		snap.Taken = clk.Now()
		snap.Elapsed = sw.Elapsed()
		return snap, nil
	}
	var snap *ColumnarSnapshot
	err := vol.WithDeviceOp("removable-scan", func(dev []byte) error {
		var err error
		snap, err = scanImageDriveC(dev, ViewRawRemovable, machine.RemovableDrive, 1, t)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: removable low scan: %w", err)
	}
	clk.ChargeBytes(int64(snap.Len())*ntfs.RecordSize, diskBytesPerSecond(m.Profile))
	clk.ChargeOps(int64(snap.Len()), costPerRepFileLow)
	snap.Taken = clk.Now()
	snap.Elapsed = sw.Elapsed()
	return snap, nil
}
