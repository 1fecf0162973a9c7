// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment
// builds fresh machines, runs GhostBuster, and returns a Table whose
// rows correspond to the paper's; cmd/paperbench renders them and the
// repository benchmarks wrap them.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"ghostbuster/internal/machine"
	"ghostbuster/internal/workload"
)

// Banner heads the full evaluation matrix as paperbench prints it.
const Banner = "Strider GhostBuster reproduction — full evaluation matrix"

// Table is one regenerated table or figure.
type Table struct {
	ID     string // e.g. "fig3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string // paper-vs-measured commentary
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render pretty-prints the table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = displayLen(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && displayLen(c) > widths[i] {
				widths[i] = displayLen(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - displayLen(c)
			}
			parts[i] = escape(c) + strings.Repeat(" ", pad)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  | "), " "))
	}
	printRow(t.Header)
	total := 2
	for _, wd := range widths {
		total += wd + 5
	}
	fmt.Fprintln(w, "  "+strings.Repeat("-", total-4))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func escape(s string) string  { return strings.ReplaceAll(s, "\x00", `\0`) }
func displayLen(s string) int { return len([]rune(escape(s))) }

// Experiment is one runnable experiment.
type Experiment struct {
	ID          string
	Description string
	Run         func() (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig2", "File-hiding technique taxonomy (Figure 2)", Fig2Taxonomy},
		{"fig3", "Hidden-file detection per program (Figure 3)", Fig3HiddenFiles},
		{"fig4", "Hidden ASEP hook detection per program (Figure 4)", Fig4HiddenASEPs},
		{"fig5", "Process-hiding technique taxonomy (Figure 5)", Fig5ProcTaxonomy},
		{"fig6", "Hidden process/module detection per program (Figure 6)", Fig6HiddenProcs},
		{"scantime", "Inside-the-box scan times across the 9-machine fleet (§2, §3, §4 text)", ScanTimes},
		{"fp", "Outside-the-box false positives and the CCM 7->2 experiment (§2 text)", OutsideFP},
		{"regfp", "Registry corruption false positive and its fix (§3 text)", RegistryCorruptionFP},
		{"procscan", "Process/module scan and crash-dump timing (§4 text)", ProcScanTimes},
		{"targeting", "Targeted hiding vs the DLL-injection extension and the AV dilemma (§5)", Targeting},
		{"decoy", "Mass-hiding decoy attack anomaly (§5)", DecoyAnomaly},
		{"vm", "VM-based outside-the-box scan, zero false positives (§5)", VMScan},
		{"linux", "Linux/Unix rootkit detection (§5)", LinuxRootkits},
		{"hdlifecycle", "Hacker Defender end-to-end detect/disable/remove timeline (§6)", HDLifecycle},
		{"crosstime", "Cross-view vs cross-time false-positive burden (§1 contrast)", CrossTimeComparison},
		{"hookdetect", "Hook-detection baseline: misses and false alarms (§1 contrast)", HookDetectComparison},
		{"race", "Scan-ordering race window (DESIGN.md ablation)", RaceWindow},
		{"extensions", "Extension surfaces: ADS, driver diff, AskStrider, Gatekeeper, forensics", Extensions},
	}
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// labMachine builds the standard small machine the per-program
// experiments install onto (with the user content the file hiders
// protect).
func labMachine() (*machine.Machine, error) {
	p := workload.SmallProfile()
	p.Churn = nil
	m, err := machine.New(p)
	if err != nil {
		return nil, err
	}
	for _, f := range []string{`C:\Private\diary.txt`, `C:\Private\taxes.xls`} {
		if err := m.DropFile(f, []byte("user data")); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// fmtDur renders a virtual duration for tables.
func fmtDur(secs float64) string {
	switch {
	case secs < 60:
		return fmt.Sprintf("%.1fs", secs)
	default:
		return fmt.Sprintf("%.0fm%02.0fs", secs/60, float64(int(secs)%60))
	}
}
