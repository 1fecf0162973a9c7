// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per experiment id — see DESIGN.md's per-experiment index),
// plus micro-benchmarks of the scanning substrates. The experiment
// benchmarks report virtual-time metrics (what the paper's tables show)
// alongside Go's wall-clock numbers.
//
// Run: go test -bench=. -benchmem
package main

import (
	"context"
	"fmt"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/experiments"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/hive"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/ntfs"
	"ghostbuster/internal/workload"
)

// benchExperiment runs one full experiment per iteration and asserts it
// stays mismatch-free.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig2Techniques regenerates Figure 2 (file-hiding taxonomy).
func BenchmarkFig2Techniques(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3HiddenFiles regenerates Figure 3 (hidden-file detection
// for the 10-program corpus).
func BenchmarkFig3HiddenFiles(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4HiddenASEP regenerates Figure 4 (hidden ASEP hooks).
func BenchmarkFig4HiddenASEP(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5ProcTaxonomy regenerates Figure 5 (process-hiding
// taxonomy).
func BenchmarkFig5ProcTaxonomy(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6HiddenProcs regenerates Figure 6 (hidden processes and
// modules, including FU's advanced-mode requirement).
func BenchmarkFig6HiddenProcs(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkScanTimeByDisk regenerates the §2/§3/§4 scan-time tables
// across the 9-machine fleet.
func BenchmarkScanTimeByDisk(b *testing.B) { benchExperiment(b, "scantime") }

// BenchmarkOutsideFalsePositives regenerates the outside-the-box FP
// experiment including the CCM 7->2 ablation.
func BenchmarkOutsideFalsePositives(b *testing.B) { benchExperiment(b, "fp") }

// BenchmarkRegistryCorruptionFP regenerates the §3 corrupted
// AppInit_DLLs false positive and its export/delete/re-import fix.
func BenchmarkRegistryCorruptionFP(b *testing.B) { benchExperiment(b, "regfp") }

// BenchmarkProcScanAndDump regenerates the §4 process/module scan and
// crash-dump timing table.
func BenchmarkProcScanAndDump(b *testing.B) { benchExperiment(b, "procscan") }

// BenchmarkTargeting regenerates the §5 targeting + injection + AV
// dilemma table.
func BenchmarkTargeting(b *testing.B) { benchExperiment(b, "targeting") }

// BenchmarkDecoyAnomaly regenerates the §5 mass-hiding decoy table.
func BenchmarkDecoyAnomaly(b *testing.B) { benchExperiment(b, "decoy") }

// BenchmarkVMScan regenerates the §5 VM-based zero-FP outside scan.
func BenchmarkVMScan(b *testing.B) { benchExperiment(b, "vm") }

// BenchmarkLinuxRootkits regenerates the §5 Unix rootkit table.
func BenchmarkLinuxRootkits(b *testing.B) { benchExperiment(b, "linux") }

// BenchmarkHDLifecycle regenerates the §6 detect/disable/remove
// timeline.
func BenchmarkHDLifecycle(b *testing.B) { benchExperiment(b, "hdlifecycle") }

// BenchmarkCrossTimeComparison regenerates the §1 cross-view vs
// cross-time contrast.
func BenchmarkCrossTimeComparison(b *testing.B) { benchExperiment(b, "crosstime") }

// BenchmarkHookDetectComparison regenerates the §1 hook-detection
// baseline contrast.
func BenchmarkHookDetectComparison(b *testing.B) { benchExperiment(b, "hookdetect") }

// --- substrate micro-benchmarks -------------------------------------------------

func benchMachine(b *testing.B) *machine.Machine {
	b.Helper()
	p := workload.SmallProfile()
	p.Churn = nil
	m, err := workload.NewPaperMachine(p)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkRawMFTScan measures the low-level file scanner (parse the
// device bytes, reconstruct every path).
func BenchmarkRawMFTScan(b *testing.B) {
	m := benchMachine(b)
	img := m.Disk.Device()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, _, err := ntfs.RawScan(img)
		if err != nil {
			b.Fatal(err)
		}
		if len(entries) == 0 {
			b.Fatal("no entries")
		}
	}
}

// BenchmarkHighFileScan measures the hooked Win32 recursive walk.
func BenchmarkHighFileScan(b *testing.B) {
	m := benchMachine(b)
	call := m.SystemCall()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := m.API.WalkTreeWin32(call, machine.Drive)
		if err != nil {
			b.Fatal(err)
		}
		if len(entries) == 0 {
			b.Fatal("no entries")
		}
	}
}

// BenchmarkHighFileScanHooked measures the same walk with Hacker
// Defender's detours installed — the interception overhead.
func BenchmarkHighFileScanHooked(b *testing.B) {
	m := benchMachine(b)
	if err := ghostware.NewHackerDefender().Install(m); err != nil {
		b.Fatal(err)
	}
	call := m.SystemCall()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.API.WalkTreeWin32(call, machine.Drive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHiveRawParse measures the low-level Registry scanner.
func BenchmarkHiveRawParse(b *testing.B) {
	m := benchMachine(b)
	h, ok := m.Reg.HiveAt(`HKLM\SOFTWARE`)
	if !ok {
		b.Fatal("no SOFTWARE hive")
	}
	img := h.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hive.Parse(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossViewFileDiff measures the diff engine itself on a
// realistic snapshot pair.
func BenchmarkCrossViewFileDiff(b *testing.B) {
	m := benchMachine(b)
	if err := ghostware.NewVanquish().Install(m); err != nil {
		b.Fatal(err)
	}
	tab := core.NewInternTable()
	high, err := core.ScanFilesHighC(m, m.SystemCall(), tab)
	if err != nil {
		b.Fatal(err)
	}
	low, err := core.ScanFilesLowC(m, m.Clock, 1, tab)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.DiffColumnar(high, low, core.DiffOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Hidden) != 3 {
			b.Fatalf("hidden = %d", len(r.Hidden))
		}
	}
}

// BenchmarkProcessLowScan measures the kernel-structure traversals.
func BenchmarkProcessLowScan(b *testing.B) {
	m := benchMachine(b)
	for i := 0; i < 30; i++ {
		if _, err := m.StartProcess("svc.exe", `C:\svc.exe`); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("active-process-list", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Kern.Processes(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cid-table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Kern.ProcessesAdvanced(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMachineBuild measures full machine construction+population
// (the per-experiment fixed cost).
func BenchmarkMachineBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := workload.SmallProfile()
		p.Churn = nil
		if _, err := workload.NewPaperMachine(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- incremental scanning & fleet scheduler benchmarks ---------------------

// BenchmarkInsideSweep measures one full inside-the-box detection sweep
// (all four resource types, advanced mode), cold vs warm. Cold drops the
// generation-tracked cache every iteration, so every sweep reparses the
// full MFT image and every hive; warm keeps it, so repeat sweeps of the
// unchanged disk charge only generation verify passes. The warm/cold
// wall-clock ratio is the payoff of the incremental layer.
func BenchmarkInsideSweep(b *testing.B) {
	run := func(warm bool) func(*testing.B) {
		return func(b *testing.B) {
			// A real boot volume's MFT carries far more records than live
			// files (slack from deletions and preallocation), and the
			// truth-side scan must decode all of them. The default test
			// headroom (4096 records) understates that, so size the MFT
			// like a modest real disk.
			p := workload.SmallProfile()
			p.Churn = nil
			p.MFTHeadroom = 32768
			m, err := workload.NewPaperMachine(p)
			if err != nil {
				b.Fatal(err)
			}
			d := core.NewCachedDetector(m)
			d.Advanced = true
			if _, err := d.ScanAll(); err != nil { // prime the cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !warm {
					d.Cache.Invalidate()
				}
				reports, err := d.ScanAll()
				if err != nil {
					b.Fatal(err)
				}
				if len(reports) != 4 {
					b.Fatalf("reports = %d", len(reports))
				}
			}
		}
	}
	b.Run("cold", run(false))
	b.Run("warm", run(true))
}

// BenchmarkScanAllParallel measures the intra-host fan-out: one cold
// inside sweep (cache dropped every iteration, so both truth sides
// reparse) at 1, 2, and 4 lanes. The lanes split the eight scan units
// across goroutines; the 4-lane wall-clock should come in well under
// half of sequential on a multi-core host.
func BenchmarkScanAllParallel(b *testing.B) {
	for _, lanes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("lanes-%d", lanes), func(b *testing.B) {
			p := workload.SmallProfile()
			p.Churn = nil
			p.MFTHeadroom = 32768
			m, err := workload.NewPaperMachine(p)
			if err != nil {
				b.Fatal(err)
			}
			d := core.NewCachedDetector(m)
			d.Advanced = true
			d.Parallelism = lanes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Cache.Invalidate()
				reports, err := d.ScanAll()
				if err != nil {
					b.Fatal(err)
				}
				if len(reports) != 4 {
					b.Fatalf("reports = %d", len(reports))
				}
			}
		})
	}
}

// benchFleet builds n minimal hosts (tiny format headroom, no churn, no
// population) so fleet-scale scheduler benchmarks stay in memory.
func benchFleet(b *testing.B, n int) *fleet.Manager {
	b.Helper()
	mgr := fleet.NewManager()
	for i := 0; i < n; i++ {
		p := machine.DefaultProfile()
		p.DiskUsedGB = 0.05
		p.Churn = nil
		p.Seed = int64(i + 1)
		p.MFTHeadroom = 64
		p.ClusterHeadroom = 64
		m, err := machine.New(p)
		if err != nil {
			b.Fatal(err)
		}
		mgr.Add(fmt.Sprintf("host-%04d", i), m)
	}
	return mgr
}

// benchFleetSweep measures a bounded parallel inside sweep across n
// hosts. The scheduler runs a fixed worker pool regardless of n, and
// per-host caches make repeat sweeps incremental — together this is the
// fleet-scale hot path.
func benchFleetSweep(b *testing.B, hosts int) {
	mgr := benchFleet(b, hosts)
	ctx := context.Background()
	if _, err := mgr.Run(ctx, fleet.Plan{}); err != nil { // prime host caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := mgr.Run(ctx, fleet.Plan{})
		if err != nil {
			b.Fatal(err)
		}
		if sum.Scanned != hosts || sum.Failed != 0 {
			b.Fatalf("scanned %d of %d, %d failed", sum.Scanned, hosts, sum.Failed)
		}
	}
}

// BenchmarkFleetInsideSweep100 sweeps a 100-host fleet.
func BenchmarkFleetInsideSweep100(b *testing.B) { benchFleetSweep(b, 100) }

// BenchmarkFleetInsideSweep1000 sweeps a 1000-host fleet.
func BenchmarkFleetInsideSweep1000(b *testing.B) { benchFleetSweep(b, 1000) }

// BenchmarkRaceWindow regenerates the scan-ordering race ablation.
func BenchmarkRaceWindow(b *testing.B) { benchExperiment(b, "race") }

// BenchmarkExtensions regenerates the extension-surface table (ADS,
// driver diff, AskStrider, Gatekeeper, deleted-file forensics).
func BenchmarkExtensions(b *testing.B) { benchExperiment(b, "extensions") }
