package experiments

import (
	"fmt"

	"ghostbuster/internal/core"
	"ghostbuster/internal/crashdump"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/workload"
)

// ScanTimes regenerates the §2/§3/§4 timing discussion across the
// 9-machine fleet: inside-the-box file scan (30 s–7 min for the seven
// 5–34 GB machines, 38 min on the 95 GB workstation), WinPE boot adding
// 1.5–3 min, ASEP scan 18–63 s, process+module scan 1–5 s.
func ScanTimes() (*Table, error) {
	t := &Table{ID: "scantime", Title: "Scan times across the machine fleet (virtual time)",
		Header: []string{"Machine", "Kind", "CPU", "Disk used", "File scan (inside)", "ASEP scan", "Proc+mod scan", "WinPE boot adds"}}
	for _, p := range workload.PaperMachines() {
		m, err := workload.NewPaperMachine(p)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", p.Name, err)
		}
		call := m.SystemCall()
		tab := core.NewInternTable()
		high, err := core.ScanFilesHighC(m, call, tab)
		if err != nil {
			return nil, err
		}
		low, err := core.ScanFilesLowC(m, m.Clock, 1, tab)
		if err != nil {
			return nil, err
		}
		fileScan := (high.Elapsed + low.Elapsed).Seconds()

		aHigh, err := core.ScanASEPHighC(m, call, tab)
		if err != nil {
			return nil, err
		}
		aLow, err := core.ScanASEPLowC(m, m.Clock, tab)
		if err != nil {
			return nil, err
		}
		asepScan := (aHigh.Elapsed + aLow.Elapsed).Seconds()

		d := core.NewDetector(m)
		d.Advanced = true
		procStart := m.Clock.Now()
		if _, err := d.ScanProcesses(); err != nil {
			return nil, err
		}
		if _, err := d.ScanModules(); err != nil {
			return nil, err
		}
		procScan := (m.Clock.Now() - procStart).Seconds()

		t.AddRow(p.Name, p.Kind, fmt.Sprintf("%d MHz", p.CPUMHz),
			fmt.Sprintf("%.0f GB", p.DiskUsedGB),
			fmtDur(fileScan), fmtDur(asepScan), fmtDur(procScan),
			fmtDur(p.RebootTime.Seconds()))
	}
	t.AddNote("paper: file scans 30s-7min on the 5-34GB machines, 38min on the 95GB workstation; ASEP scans 18-63s; proc+mod scans 1-5s; WinPE adds 1.5-3min")
	return t, nil
}

// ProcScanTimes regenerates the §4 text: process/module scans take
// seconds, and the blue-screen crash dump adds 15–45 s.
func ProcScanTimes() (*Table, error) {
	t := &Table{ID: "procscan", Title: "Process/module scan and crash-dump timing",
		Header: []string{"Scenario", "Processes", "Scan+diff", "Dump write adds", "Hidden found"}}
	for _, extra := range []int{0, 10, 40} {
		m, err := labMachine()
		if err != nil {
			return nil, err
		}
		for i := 0; i < extra; i++ {
			if _, err := m.StartProcess(fmt.Sprintf("svc%02d.exe", i), fmt.Sprintf(`C:\svc\svc%02d.exe`, i)); err != nil {
				return nil, err
			}
		}
		if err := ghostware.NewBerbew().Install(m); err != nil {
			return nil, err
		}
		d := core.NewDetector(m)
		d.Advanced = true
		start := m.Clock.Now()
		pr, err := d.ScanProcesses()
		if err != nil {
			return nil, err
		}
		if _, err := d.ScanModules(); err != nil {
			return nil, err
		}
		scan := (m.Clock.Now() - start).Seconds()

		dumpStart := m.Clock.Now()
		dumpBytes, err := crashdump.Write(m)
		if err != nil {
			return nil, err
		}
		dump := (m.Clock.Now() - dumpStart).Seconds()
		parsed, err := crashdump.Parse(dumpBytes)
		if err != nil {
			return nil, err
		}
		procs, err := parsed.Processes(true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d extra services", extra), fmt.Sprintf("%d", len(procs)),
			fmtDur(scan), fmtDur(dump), fmt.Sprintf("%d", len(pr.Hidden)))
	}
	t.AddNote("paper: combined hidden-process and hidden-module scan+diff took 1-5s; the kernel dump through blue screen added 15-45s")
	return t, nil
}
