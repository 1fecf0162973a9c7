package crashdump

import (
	"fmt"
	"strings"

	"ghostbuster/internal/core"
	"ghostbuster/internal/machine"
)

// This file implements the complete §4 outside-the-box flows for
// volatile state: take the inside high-level scan, induce the blue
// screen, and diff against the dump's kernel-structure walk.

// OutsideProcessCheck runs the outside-the-box hidden-process detection:
// inside API scan vs crash-dump traversal (advanced selects the CID
// walk).
func OutsideProcessCheck(m *machine.Machine, advanced bool) (*core.Report, error) {
	t := core.NewInternTable()
	high, err := core.ScanProcsHighC(m, m.SystemCall(), t)
	if err != nil {
		return nil, err
	}
	dumpBytes, err := Write(m)
	if err != nil {
		return nil, err
	}
	d, err := Parse(dumpBytes)
	if err != nil {
		return nil, fmt.Errorf("crashdump: parsing own dump: %w", err)
	}
	low, err := core.ScanProcsFromDump(d.Mem, d.Layout, advanced, t)
	if err != nil {
		return nil, err
	}
	return core.SealedDiffColumnar(high, low, core.DiffOptions{})
}

// OutsideModuleCheck runs the outside-the-box hidden-module detection:
// per-process inside API module scan vs the dump's VAD image lists.
func OutsideModuleCheck(m *machine.Machine) (*core.Report, error) {
	pids, err := core.TruthPids(m)
	if err != nil {
		return nil, err
	}
	t := core.NewInternTable()
	high, err := core.ScanModsHighC(m, m.SystemCall(), pids, t)
	if err != nil {
		return nil, err
	}
	dumpBytes, err := Write(m)
	if err != nil {
		return nil, err
	}
	d, err := Parse(dumpBytes)
	if err != nil {
		return nil, err
	}
	procs, err := d.Processes(true)
	if err != nil {
		return nil, err
	}
	low := core.NewModuleBuilder(t, core.ViewCrashDump)
	for _, p := range procs {
		mods, err := d.Modules(p.Addr)
		if err != nil {
			continue
		}
		for _, mod := range mods {
			low.Add(p.Pid, mod.Path, mod.Base)
		}
	}
	return core.SealedDiffColumnar(high, low.Build(), core.DiffOptions{})
}

// DumpSummary renders a short description of a dump's contents for
// operator output.
func DumpSummary(d *Dump) (string, error) {
	procs, err := d.Processes(true)
	if err != nil {
		return "", err
	}
	drvs, err := d.Drivers()
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(procs))
	for _, p := range procs {
		names = append(names, p.Name)
	}
	return fmt.Sprintf("%d processes (%s), %d drivers", len(procs), strings.Join(names[:capInt(4, len(names))], ", ")+", ...", len(drvs)), nil
}

func capInt(limit, n int) int {
	if n < limit {
		return n
	}
	return limit
}
