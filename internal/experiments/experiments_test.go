package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/crashdump"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/vmscan"
	"ghostbuster/internal/winpe"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestEveryExperimentRuns renders the complete paper-reproduction
// matrix — every experiment in All() order, exactly as `paperbench`
// prints it — and byte-compares it with testdata/paperbench.golden. The
// per-figure assertions live in the package tests of
// core/ghostware/winpe/etc.; here every experiment must complete,
// produce rows, and contain no mismatch marker before its table counts,
// so -update cannot approve a broken table. Regenerate only for an
// intended change: go test -run TestEveryExperimentRuns
// ./internal/experiments/ -update
func TestEveryExperimentRuns(t *testing.T) {
	var out bytes.Buffer
	fmt.Fprintln(&out, Banner)
	rendered := 0
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "scantime" && testing.Short() {
				t.Skip("fleet build is slow; run without -short")
			}
			table, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if table.ID != e.ID {
				t.Errorf("table ID = %q, want %q", table.ID, e.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for _, row := range table.Rows {
				for _, cell := range row {
					if strings.Contains(cell, "MISSING") || strings.Contains(cell, "want") && strings.Contains(cell, "got") {
						t.Errorf("mismatch cell in %s: %q (row %v)", e.ID, cell, row)
					}
				}
			}
			if !t.Failed() {
				table.Render(&out)
				rendered++
			}
		})
	}
	if rendered != len(All()) {
		t.Logf("%d of %d tables rendered; golden not compared", rendered, len(All()))
		return
	}
	checkGolden(t, "paperbench.golden", out.Bytes())
}

// TestOutsideChecksGolden pins the outside-the-box flows the tables do
// not exercise, each on a fixed infected machine: the report's content
// digest (ComputeDigest, so an unsealed report is pinned too) and its
// virtual Elapsed nanoseconds.
func TestOutsideChecksGolden(t *testing.T) {
	infected := func(g ghostware.Ghostware) *machine.Machine {
		t.Helper()
		m, err := labMachine()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Install(m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	dkom := func() *machine.Machine {
		t.Helper()
		m := infected(ghostware.NewBerbew())
		fu := ghostware.NewFU()
		if err := fu.Install(m); err != nil {
			t.Fatal(err)
		}
		if _, err := m.StartProcess("lurker.exe", `C:\lurker.exe`); err != nil {
			t.Fatal(err)
		}
		if err := fu.HideByName(m, "lurker.exe"); err != nil {
			t.Fatal(err)
		}
		return m
	}
	checks := []struct {
		name string
		run  func() (*core.Report, error)
	}{
		{"winpe.OutsideFileCheck", func() (*core.Report, error) {
			return winpe.OutsideFileCheck(infected(ghostware.NewHackerDefender()), core.DiffOptions{})
		}},
		{"winpe.OutsideASEPCheck", func() (*core.Report, error) {
			return winpe.OutsideASEPCheck(infected(ghostware.NewHackerDefender()), core.DiffOptions{})
		}},
		{"crashdump.OutsideProcessCheck", func() (*core.Report, error) {
			return crashdump.OutsideProcessCheck(dkom(), false)
		}},
		{"crashdump.OutsideProcessCheck/advanced", func() (*core.Report, error) {
			return crashdump.OutsideProcessCheck(dkom(), true)
		}},
		{"crashdump.OutsideModuleCheck", func() (*core.Report, error) {
			return crashdump.OutsideModuleCheck(infected(ghostware.NewVanquish()))
		}},
		{"vmscan.Check", func() (*core.Report, error) {
			return vmscan.Check(infected(ghostware.NewHackerDefender()), core.DiffOptions{})
		}},
	}
	var out bytes.Buffer
	for _, c := range checks {
		r, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !r.Infected() {
			t.Fatalf("%s: fixture machine reported clean", c.name)
		}
		fmt.Fprintf(&out, "%-38s hidden=%-2d %s %d\n", c.name, len(r.Hidden), r.ComputeDigest(), r.Elapsed)
	}
	checkGolden(t, "outside.golden", out.Bytes())
}

// checkGolden byte-compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s drifted at line %d:\n got: %q\nwant: %q", path, i+1, gl, wl)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig3"); !ok {
		t.Error("fig3 should resolve")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestTableRenderAlignsAndEscapes(t *testing.T) {
	table := &Table{ID: "x", Title: "T", Header: []string{"A", "B"}}
	table.AddRow("short", "with\x00nul")
	table.AddRow("a-much-longer-cell", "b")
	table.AddNote("note %d", 1)
	var buf bytes.Buffer
	table.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, `\0`) {
		t.Error("NUL not escaped in render")
	}
	if !strings.Contains(out, "note: note 1") {
		t.Error("note missing")
	}
}

// TestHookDetectTableShowsBothFailureModes pins the §1 argument: the
// baseline table must contain at least one FALSE NEGATIVE and one FALSE
// POSITIVE row while cross-view stays correct.
func TestHookDetectTableShowsBothFailureModes(t *testing.T) {
	table, err := HookDetectComparison()
	if err != nil {
		t.Fatal(err)
	}
	var fn, fp int
	for _, row := range table.Rows {
		switch row[len(row)-1] {
		case "FALSE NEGATIVE":
			fn++
		case "FALSE POSITIVE":
			fp++
		}
	}
	if fn < 2 {
		t.Errorf("false negatives = %d, want >= 2 (filter driver, DKOM, name tricks)", fn)
	}
	if fp != 1 {
		t.Errorf("false positives = %d, want 1 (benign detour)", fp)
	}
}

// TestHDLifecycleEndsClean pins the §6 story: the final scan row must
// report zero hidden files and the timeline must not carry budget
// warnings.
func TestHDLifecycleEndsClean(t *testing.T) {
	table, err := HDLifecycle()
	if err != nil {
		t.Fatal(err)
	}
	last := table.Rows[len(table.Rows)-1]
	if !strings.Contains(last[2], "final hidden count 0") {
		t.Errorf("final row = %v", last)
	}
	for _, n := range table.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("budget warning: %s", n)
		}
	}
}

// TestTargetingTablePinsTheDilemma: the §5 story requires (a) targeted
// hiding to defeat the plain tool while the injected sweep catches it,
// and (b) the AV dilemma — hide and the injected diff wins, show and the
// signatures win.
func TestTargetingTablePinsTheDilemma(t *testing.T) {
	table, err := Targeting()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for i := 0; i < 2; i++ {
		if table.Rows[i][1] != "missed" || table.Rows[i][2] != "DETECTED" {
			t.Errorf("row %d: plain=%s injected=%s", i, table.Rows[i][1], table.Rows[i][2])
		}
	}
	if table.Rows[2][2] != "DETECTED" || table.Rows[2][3] != "missed" {
		t.Errorf("hiding horn: %v", table.Rows[2])
	}
	if table.Rows[3][2] != "missed" || table.Rows[3][3] != "DETECTED" {
		t.Errorf("showing horn: %v", table.Rows[3])
	}
}

// TestScanTimesLandInPaperBands pins the timing reproduction: the seven
// small machines' file scans sit in the paper's 30s-7min band (with a
// little slack at the bottom), the workstation is a >20-minute outlier,
// ASEP scans sit near 18-63s, and process scans stay under 5s.
func TestScanTimesLandInPaperBands(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet build is slow; run without -short")
	}
	table, err := ScanTimes()
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		var m, sec float64
		if n, _ := fmt.Sscanf(s, "%fm%fs", &m, &sec); n == 2 {
			return m*60 + sec
		}
		if n, _ := fmt.Sscanf(s, "%fs", &sec); n == 1 {
			return sec
		}
		t.Fatalf("unparseable duration %q", s)
		return 0
	}
	for _, row := range table.Rows {
		name, file, asep, proc := row[0], parse(row[4]), parse(row[5]), parse(row[6])
		if name == "workstation" {
			if file < 20*60 {
				t.Errorf("workstation file scan = %s, want a >20min outlier", row[4])
			}
		} else {
			if file < 30 || file > 7*60 {
				t.Errorf("%s file scan = %s, outside the paper's 30s-7min band", name, row[4])
			}
		}
		if asep < 10 || asep > 70 {
			t.Errorf("%s ASEP scan = %s, outside ~18-63s", name, row[5])
		}
		if proc > 5 {
			t.Errorf("%s proc scan = %s, paper says 1-5s", name, row[6])
		}
	}
}
