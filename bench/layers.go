package main

import (
	"fmt"
	"time"

	"ghostbuster/internal/core"
	"ghostbuster/internal/hive"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/ntfs"
)

// coveredLayers are the probe calls that together stand for one
// sequential ScanAll: the eight scan units' public entry points plus
// the files pair's diff and seal. trace.coverage is their sum over the
// wall of a lanes-1 ScanAll on the same machine state.
var coveredLayers = []string{
	"winapi.files_high", "winapi.aseps_high", "winapi.procs_high", "winapi.mods_high",
	"core.files_low", "hive.parse", "kernel.procs_low", "kernel.mods_low",
	"core.diff", "core.seal",
}

// hostLayers times each host-scan layer's public entry point from
// outside, one call at a time, on the workload's hosts in turn until the
// budget is spent (at least three rounds, at most 200).
func hostLayers(hosts []*machine.Machine, budget time.Duration, tr *tracer) (map[string]metric, error) {
	samples := map[string][]time.Duration{}
	var rates, coverage []float64
	end := time.Now().Add(budget)
	for i := 0; i < 3 || (i < 200 && time.Now().Before(end)); i++ {
		rate, cov, err := hostRound(hosts[i%len(hosts)], fmt.Sprintf("probe-host-%d", i), tr, samples)
		if err != nil {
			return nil, err
		}
		rates, coverage = append(rates, rate), append(coverage, cov)
	}
	med := func(name string) float64 { return medianIn(samples[name], time.Millisecond) }
	return map[string]metric{
		"winapi.files_high_ms":   {med("winapi.files_high"), "ms"},
		"winapi.aseps_high_ms":   {med("winapi.aseps_high"), "ms"},
		"winapi.procs_high_ms":   {med("winapi.procs_high"), "ms"},
		"winapi.mods_high_ms":    {med("winapi.mods_high"), "ms"},
		"ntfs.raw_decode_ms":     {med("ntfs.raw_decode"), "ms"},
		"ntfs.records_per_s":     {quantile(rates, 0.5), "1/s"},
		"core.files_low_ms":      {med("core.files_low"), "ms"},
		"hive.parse_ms":          {med("hive.parse"), "ms"},
		"kernel.procs_low_ms":    {med("kernel.procs_low"), "ms"},
		"kernel.mods_low_ms":     {med("kernel.mods_low"), "ms"},
		"core.columnar_build_ms": {med("core.columnar_build"), "ms"},
		"core.diff_ms":           {med("core.diff"), "ms"},
		"core.seal_ms":           {med("core.seal"), "ms"},
		"core.pair_ms.files":     {med("core.pair.files"), "ms"},
		"core.pair_ms.aseps":     {med("core.pair.aseps"), "ms"},
		"core.pair_ms.processes": {med("core.pair.processes"), "ms"},
		"core.pair_ms.modules":   {med("core.pair.modules"), "ms"},
		"core.lane_speedup":      {med("core.scan_all.lanes1") / med("core.scan_all.lanes"), "ratio"},
		"trace.coverage":         {quantile(coverage, 0.5), "ratio"},
	}, nil
}

// hostRound is one probe round on one machine state. It returns the raw
// decode rate in records per second and the round's coverage.
func hostRound(m *machine.Machine, trace string, tr *tracer, samples map[string][]time.Duration) (rate, coverage float64, err error) {
	call := m.SystemCall()
	pids, err := core.TruthPids(m)
	if err != nil {
		return 0, 0, err
	}
	var images [][]byte
	for _, root := range m.Reg.Roots() {
		if h, ok := m.Reg.HiveAt(root); ok {
			images = append(images, h.Snapshot())
		}
	}
	var (
		filesHigh, filesLow *core.Snapshot
		high, low           *core.ColumnarSnapshot
		rep                 *core.Report
		records             int
	)
	pair := newDetector(m, false)
	lanes1 := newDetector(m, true)
	lanes1.Parallelism = 1
	steps := []struct {
		name string
		call func() error
	}{
		{"winapi.files_high", func() (err error) { filesHigh, err = core.ScanFilesHigh(m, call); return }},
		{"winapi.aseps_high", func() error { _, err := core.ScanASEPHigh(m, call); return err }},
		{"winapi.procs_high", func() error { _, err := core.ScanProcsHigh(m, call); return err }},
		{"winapi.mods_high", func() error { _, err := core.ScanModsHigh(m, call, pids); return err }},
		{"ntfs.raw_decode", func() error {
			return m.Disk.WithDevice(func(dev []byte) error {
				_, st, err := ntfs.RawScan(dev)
				records = st.RecordsParsed
				return err
			})
		}},
		{"core.files_low", func() (err error) { filesLow, err = core.ScanFilesLow(m); return }},
		{"hive.parse", func() error {
			for _, img := range images {
				if _, _, err := hive.Parse(img); err != nil {
					return err
				}
			}
			return nil
		}},
		{"kernel.procs_low", func() error { _, err := core.ScanProcsLow(m, true); return err }},
		{"kernel.mods_low", func() error { _, err := core.ScanModsLow(m, pids); return err }},
		{"core.columnar_build", func() error {
			t := core.NewInternTable()
			high, low = core.SnapshotColumnar(filesHigh, t), core.SnapshotColumnar(filesLow, t)
			return nil
		}},
		{"core.diff", func() (err error) {
			rep, err = core.DiffColumnar(high, low, core.DiffOptions{NoiseFilters: standard.Filters()})
			return
		}},
		{"core.seal", func() error { rep.ComputeDigest(); return nil }},
		{"core.pair.files", func() error { _, err := pair.ScanFiles(); return err }},
		{"core.pair.aseps", func() error { _, err := pair.ScanASEPs(); return err }},
		{"core.pair.processes", func() error { _, err := pair.ScanProcesses(); return err }},
		{"core.pair.modules", func() error { _, err := pair.ScanModules(); return err }},
		{"core.scan_all.lanes1", func() error { _, err := lanes1.ScanAll(); return err }},
		{"core.scan_all.lanes", func() error { _, err := newDetector(m, true).ScanAll(); return err }},
	}
	root := tr.newID()
	rootStart := time.Now()
	took := map[string]time.Duration{}
	for _, s := range steps {
		start := time.Now()
		err := s.call()
		stop := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", s.name, err)
		}
		tr.record(s.name, root, trace, start, stop)
		samples[s.name] = append(samples[s.name], stop.Sub(start))
		took[s.name] = stop.Sub(start)
	}
	tr.add(root, "probe.host_layers", 0, trace, rootStart, time.Now())
	var sum time.Duration
	for _, name := range coveredLayers {
		sum += took[name]
	}
	return float64(records) / took["ntfs.raw_decode"].Seconds(), float64(sum) / float64(took["core.scan_all.lanes1"]), nil
}
