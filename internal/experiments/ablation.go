package experiments

import (
	"fmt"
	"strings"

	"ghostbuster/internal/askstrider"
	"ghostbuster/internal/core"
	"ghostbuster/internal/gatekeeper"
	"ghostbuster/internal/ghostware"
)

// RaceWindow is the DESIGN.md scan-ordering ablation: files created in
// the small window between the high- and low-level scans become
// transient diff entries (§2: "files may be created in the very small
// time window between when the high- and low-level scans are taken.
// However, in practice the noise level from this is extremely low").
// The direction of the transient depends on which scan ran first.
func RaceWindow() (*Table, error) {
	t := &Table{ID: "race", Title: "Scan-ordering race window (ablation)",
		Header: []string{"Ordering", "Mid-scan activity", "Transient hidden", "Transient phantom"}}

	type ordering struct {
		name      string
		highFirst bool
	}
	for _, ord := range []ordering{{"high then low (GhostBuster's order)", true}, {"low then high", false}} {
		for _, active := range []bool{false, true} {
			m, err := labMachine()
			if err != nil {
				return nil, err
			}
			call := m.SystemCall()
			tab := core.NewInternTable()
			var high, low *core.ColumnarSnapshot
			burst := func() error {
				if !active {
					return nil
				}
				// A service writes two files right between the scans.
				for i := 0; i < 2; i++ {
					if err := m.DropFile(fmt.Sprintf(`C:\WINDOWS\midscan%d.tmp`, i), []byte("x")); err != nil {
						return err
					}
				}
				return nil
			}
			if ord.highFirst {
				if high, err = core.ScanFilesHighC(m, call, tab); err != nil {
					return nil, err
				}
				if err := burst(); err != nil {
					return nil, err
				}
				if low, err = core.ScanFilesLowC(m, m.Clock, 1, tab); err != nil {
					return nil, err
				}
			} else {
				if low, err = core.ScanFilesLowC(m, m.Clock, 1, tab); err != nil {
					return nil, err
				}
				if err := burst(); err != nil {
					return nil, err
				}
				if high, err = core.ScanFilesHighC(m, call, tab); err != nil {
					return nil, err
				}
			}
			r, err := core.DiffColumnar(high, low, core.DiffOptions{})
			if err != nil {
				return nil, err
			}
			activity := "idle"
			if active {
				activity = "2 files created mid-scan"
			}
			t.AddRow(ord.name, activity, fmt.Sprintf("%d", len(r.Hidden)), fmt.Sprintf("%d", len(r.Phantom)))
		}
	}
	t.AddNote("high-then-low turns mid-scan creations into transient hidden entries; low-then-high turns them into phantoms; an idle window is exact in both orders")
	t.AddNote("a re-scan confirms transients: real hidden files persist, race artifacts do not")
	return t, nil
}

// Extensions exercises the detection surfaces this reproduction adds
// beyond the paper's four (its §6 future-work list and §4 asides): ADS
// payloads, driver-list hiding, AskStrider's recent-driver lead,
// Gatekeeper ASEP monitoring, and deleted-file forensics.
func Extensions() (*Table, error) {
	t := &Table{ID: "extensions", Title: "Extension surfaces (paper §4 asides and §6 future work)",
		Header: []string{"Surface", "Adversary", "Result"}}

	// 1. ADS payloads (no hook anywhere).
	m1, err := labMachine()
	if err != nil {
		return nil, err
	}
	ads := ghostware.NewADSGhost()
	if err := ads.Install(m1); err != nil {
		return nil, err
	}
	r1, err := core.NewDetector(m1).ScanFiles()
	if err != nil {
		return nil, err
	}
	t.AddRow("alternate data streams (raw MFT parse)", ads.Name(),
		fmt.Sprintf("%d hidden streams found, e.g. %s", len(r1.Hidden), firstDisplay(r1.Hidden)))

	// 2. Driver-list hiding.
	m2, err := labMachine()
	if err != nil {
		return nil, err
	}
	if err := ghostware.NewDriverHider().Install(m2); err != nil {
		return nil, err
	}
	r2, err := core.NewDetector(m2).ScanDrivers()
	if err != nil {
		return nil, err
	}
	t.AddRow("loaded-driver cross-view diff", "DriverHider", verdict(len(r2.Hidden) == 1))

	// 3. AskStrider: the unhidden Hacker Defender driver is "recent".
	m3, err := labMachine()
	if err != nil {
		return nil, err
	}
	since := m3.Now()
	m3.Clock.Advance(1)
	if err := ghostware.NewHackerDefender().Install(m3); err != nil {
		return nil, err
	}
	as, err := askstrider.Run(m3, since)
	if err != nil {
		return nil, err
	}
	t.AddRow("AskStrider recent-change shortlist", "Hacker Defender (driver not hidden)",
		verdict(len(as.FindRecent("hxdefdrv.sys")) == 1))

	// 4. Gatekeeper + GhostBuster correlation.
	m4, err := labMachine()
	if err != nil {
		return nil, err
	}
	baseline, err := gatekeeper.Take(m4)
	if err != nil {
		return nil, err
	}
	if err := ghostware.NewHackerDefender().Install(m4); err != nil {
		return nil, err
	}
	gk, err := gatekeeper.Check(m4, baseline)
	if err != nil {
		return nil, err
	}
	t.AddRow("Gatekeeper ASEP monitor + cross-view correlation", "Hacker Defender",
		fmt.Sprintf("%d additions, %d CRITICAL (hidden)", len(gk.AddedHooks()), len(gk.HiddenAdditions())))

	// 5. Deleted-file forensics.
	m5, err := labMachine()
	if err != nil {
		return nil, err
	}
	if err := m5.DropFile(`C:\mal\dropper.exe`, []byte("MZ")); err != nil {
		return nil, err
	}
	if err := m5.RemoveFile(`C:\mal\dropper.exe`); err != nil {
		return nil, err
	}
	deleted, err := core.ScanDeletedFiles(m5)
	if err != nil {
		return nil, err
	}
	recovered := false
	for _, d := range deleted {
		if strings.EqualFold(d.Name, "dropper.exe") {
			recovered = true
		}
	}
	t.AddRow("deleted-file forensics (stale MFT records)", "self-deleting dropper", verdict(recovered))
	return t, nil
}

func firstDisplay(fs []core.Finding) string {
	if len(fs) == 0 {
		return "-"
	}
	return fs[0].Display
}
