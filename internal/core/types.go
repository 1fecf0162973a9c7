// Package core implements Strider GhostBuster itself: the high-level and
// low-level scanners for each resource type (files, Registry ASEP hooks,
// processes, loaded modules) and the cross-view diff engine that exposes
// hidden resources by comparing "the lie" (the view through the API
// chain the ghostware intercepts) with "the truth" (raw on-disk or
// in-kernel structures, or an outside-the-box clean scan).
package core

import (
	"fmt"
	"time"
)

// ResourceKind is the type of resource a scan covers.
type ResourceKind int

// The four resource kinds of the paper (§2, §3, §4).
const (
	KindFiles ResourceKind = iota + 1
	KindASEPHooks
	KindProcesses
	KindModules
	// KindDrivers extends the paper's four types with loaded-driver
	// diffing (see forensics.go).
	KindDrivers
	// KindBootChain extends the resource kinds with boot-sector regions:
	// the next-generation bootkit family hides under the NTFS boot
	// sector, below every file (see nextgen.go).
	KindBootChain
)

// String names the resource kind.
func (k ResourceKind) String() string {
	switch k {
	case KindFiles:
		return "files"
	case KindASEPHooks:
		return "ASEP hooks"
	case KindProcesses:
		return "processes"
	case KindModules:
		return "modules"
	case KindDrivers:
		return "drivers"
	case KindBootChain:
		return "boot chain"
	default:
		return "unknown"
	}
}

// View identifies the vantage point of a scan.
type View string

// The scan vantage points GhostBuster supports.
const (
	ViewWin32Inside  View = "inside-high/win32"   // through the full hook chain
	ViewNativeInside View = "inside-high/native"  // entering at ntdll
	ViewRawMFT       View = "inside-low/raw-mft"  // parse the device bytes
	ViewRawHive      View = "inside-low/raw-hive" // copy + parse hive files
	ViewKernelAPL    View = "inside-low/active-process-list"
	ViewKernelCID    View = "inside-low/cid-table" // advanced mode
	ViewKernelVAD    View = "inside-low/vad"
	ViewWinPE        View = "outside/winpe"      // clean CD boot
	ViewCrashDump    View = "outside/crash-dump" // blue-screen memory dump
	ViewVMHost       View = "outside/vm-host"    // powered-down virtual disk

	// Next-generation scan vantage points (see nextgen.go).
	ViewKernelCarve  View = "inside-low/pool-carve"    // pool-tag sweep of kernel memory
	ViewBootAPI      View = "inside-high/boot-read"    // sector 0 through the hooked read path
	ViewBootRaw      View = "inside-low/raw-boot"      // sector 0 straight off the device
	ViewRawRemovable View = "inside-low/raw-removable" // raw parse of the removable device
)

// Entry is one scanned resource instance.
type Entry struct {
	ID      string `json:"id"`      // canonical identity used for diffing
	Display string `json:"display"` // how reports print it
	Detail  string `json:"detail"`  // auxiliary information (size, pid, hook data)
}

// Snapshot is the map-backed form of one scan result: a keyed set of
// entries, with a stable JSON wire format. Every scan and diff runs on
// ColumnarSnapshot; this form exists only for the map-form scanner
// adapters the bench/ probes compile against (ColumnarSnapshot.Snapshot
// materializes it, SnapshotColumnar converts it back).
type Snapshot struct {
	Kind    ResourceKind     `json:"kind"`
	View    View             `json:"view"`
	Taken   time.Duration    `json:"takenNs"` // virtual time when the scan completed
	Entries map[string]Entry `json:"entries"`
	Elapsed time.Duration    `json:"elapsedNs"` // virtual time the scan consumed
	// Skipped counts scan targets the pass could not read (e.g. pids
	// whose process exited mid-scan). A snapshot that skipped half its
	// targets must not be mistaken for a clean one.
	Skipped int `json:"skipped,omitempty"`
}

// Len returns the entry count.
func (s *Snapshot) Len() int { return len(s.Entries) }

// Finding is one cross-view discrepancy.
type Finding struct {
	Kind    ResourceKind `json:"kind"`
	ID      string       `json:"id"`
	Display string       `json:"display"`
	Detail  string       `json:"detail,omitempty"`
	// Noise marks findings matched by a known-benign filter (outside-
	// the-box reboot churn); they remain in the report but are separated
	// the way the paper's "easily filtered out" false positives were.
	Noise  bool   `json:"noise,omitempty"`
	Reason string `json:"reason,omitempty"` // which filter matched, for Noise findings
}

// Report is the outcome of one cross-view diff.
type Report struct {
	Kind     ResourceKind `json:"kind"`
	HighView View         `json:"highView"`
	LowView  View         `json:"lowView"`
	// Hidden: present in the low-level/outside view but absent from the
	// high-level view — the ghostware's hidden resources.
	Hidden []Finding `json:"hidden"`
	// Noise: hidden-side findings attributed to benign churn by filters.
	Noise []Finding `json:"noise,omitempty"`
	// Phantom: present in the high view but absent from the low view.
	// Usually empty; a transient file deleted between the two scans (the
	// paper's race window), or active anti-scanner deception.
	Phantom []Finding `json:"phantom,omitempty"`
	// HighSkipped/LowSkipped propagate the snapshots' skipped-target
	// counts (see Snapshot.Skipped), so partial coverage is visible in
	// the report itself.
	HighSkipped int `json:"highSkipped,omitempty"`
	LowSkipped  int `json:"lowSkipped,omitempty"`
	// Elapsed is total virtual scan+diff time.
	Elapsed time.Duration `json:"elapsedNs"`
	// MassHiding is set when the hidden count is itself an anomaly (the
	// paper's §5 decoy-attack defence).
	MassHiding *MassHidingAnomaly `json:"massHiding,omitempty"`
	// DegradedUnits lists scan units of this resource pair that failed
	// or were abandoned (fault, deadline, mid-scan mutation) under
	// error containment. A report with degraded units carries whatever
	// findings the surviving views support; absence-of-findings claims
	// are not trustworthy for the degraded views.
	DegradedUnits []DegradedUnit `json:"degradedUnits,omitempty"`
	// Digest is the canonical-serialization digest sealing the report's
	// content (everything above except Elapsed; see ComputeDigest). A
	// report whose digest no longer verifies was altered after the scan
	// — the tamper-evidence the operator-facing tools check end-to-end.
	Digest string `json:"digest,omitempty"`
}

// DegradedUnit records one scan unit lost to a fault under containment.
type DegradedUnit struct {
	// Unit names the lost unit, e.g. "files/high", "ASEPs/low", or
	// "files/pair" when the whole comparison was abandoned.
	Unit string `json:"unit"`
	// Fault is the failure that degraded the unit.
	Fault string `json:"fault"`
	// Compared lists the views that still produced usable snapshots for
	// this resource, empty when the comparison was lost entirely.
	Compared []View `json:"compared,omitempty"`
}

// Infected reports whether any non-noise hidden resources were found.
func (r *Report) Infected() bool { return len(r.Hidden) > 0 }

// Degraded reports whether any of the pair's scan units was lost.
func (r *Report) Degraded() bool { return len(r.DegradedUnits) > 0 }

// MassHidingAnomaly flags an implausibly large hidden set: an attacker
// hiding thousands of innocent files to bury its own (paper §5). The
// infection signal survives even though per-file triage is impractical.
type MassHidingAnomaly struct {
	HiddenCount int `json:"hiddenCount"`
	Threshold   int `json:"threshold"`
}

func (a *MassHidingAnomaly) String() string {
	return fmt.Sprintf("ANOMALY: %d hidden entries (threshold %d) — mass-hiding attack suspected", a.HiddenCount, a.Threshold)
}

// Summary renders a one-line result for a report.
func (r *Report) Summary() string {
	verdict := "clean"
	if r.Infected() {
		verdict = fmt.Sprintf("INFECTED (%d hidden)", len(r.Hidden))
	}
	noise := ""
	if len(r.Noise) > 0 {
		noise = fmt.Sprintf(", %d known-benign", len(r.Noise))
	}
	if n := r.HighSkipped + r.LowSkipped; n > 0 {
		noise += fmt.Sprintf(", %d targets skipped", n)
	}
	return fmt.Sprintf("%-10s %s vs %s: %s%s", r.Kind, r.HighView, r.LowView, verdict, noise)
}
