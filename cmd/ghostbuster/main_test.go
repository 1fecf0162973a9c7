package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ghostbuster/internal/fleet"
)

func TestListGhostware(t *testing.T) {
	if code, err := run([]string{"-list-ghostware"}); err != nil || code != exitClean {
		t.Fatalf("code %d, err %v", code, err)
	}
}

func TestCleanMachineScan(t *testing.T) {
	if code, err := run([]string{"-scan", "procs"}); err != nil || code != exitClean {
		t.Fatalf("clean machine: code %d, err %v", code, err)
	}
}

func TestInfectedExitCode(t *testing.T) {
	code, err := run([]string{"-infect", "FU", "-scan", "procs", "-advanced"})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitFindings {
		t.Fatalf("infected machine exit = %d, want %d", code, exitFindings)
	}
}

func TestUnknownGhostwareErrors(t *testing.T) {
	if _, err := run([]string{"-infect", "NotARootkit"}); err == nil {
		t.Fatal("unknown ghostware should error")
	}
}

func TestUnknownScanKindErrors(t *testing.T) {
	if _, err := run([]string{"-scan", "bogus"}); err == nil {
		t.Fatal("unknown scan kind should error")
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	if _, err := run([]string{"-fleet", "2", "-resume"}); err == nil {
		t.Fatal("-resume without -journal should error")
	}
}

// TestFleetSweepExitCodes: the documented contract — findings beat
// degradation, clean fleet is 0 — through the real CLI path.
func TestFleetSweepExitCodes(t *testing.T) {
	code, err := run([]string{"-fleet", "2"})
	if err != nil || code != exitClean {
		t.Fatalf("clean fleet: code %d, err %v", code, err)
	}
	code, err = run([]string{"-fleet", "2", "-infect", "Hacker Defender 1.0"})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitFindings {
		t.Fatalf("infected fleet exit = %d, want %d", code, exitFindings)
	}
}

// TestFleetJournalAndResume: a journaled sweep leaves a resumable
// journal; re-running with -resume replays it without error and agrees
// on the verdict.
func TestFleetJournalAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.gbj")
	code, err := run([]string{"-fleet", "3", "-journal", path, "-infect", "Hacker Defender 1.0"})
	if err != nil || code != exitFindings {
		t.Fatalf("journaled sweep: code %d, err %v", code, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal not written: %v", err)
	}
	// Resuming a completed sweep replays every host and re-reports.
	code, err = run([]string{"-fleet", "3", "-journal", path, "-resume", "-infect", "Hacker Defender 1.0"})
	if err != nil || code != exitFindings {
		t.Fatalf("resume: code %d, err %v", code, err)
	}
}

func TestVerifyReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.gbj")
	report := filepath.Join(dir, "report.json")

	// Capture the JSON report by swapping stdout for a file.
	old := os.Stdout
	f, err := os.Create(report)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	code, err := run([]string{"-fleet", "2", "-journal", journal, "-json"})
	os.Stdout = old
	f.Close()
	if err != nil || code != exitClean {
		t.Fatalf("json sweep: code %d, err %v", code, err)
	}

	if code, err := run([]string{"-verify-report", report}); err != nil || code != exitClean {
		t.Fatalf("untouched report: code %d, err %v", code, err)
	}
	// Rewriting a verdict in the saved report must fail verification.
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep fleet.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Results[0].Infected = true
	tampered, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(report, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{"-verify-report", report}); err == nil {
		t.Fatal("tampered report verified")
	}
}

func TestCorpusIsComplete(t *testing.T) {
	names := map[string]bool{}
	for _, e := range catalogOrdered() {
		names[e.Name] = true
	}
	for _, want := range []string{
		"Urbin", "Mersting", "Vanquish", "Aphex", "Hacker Defender 1.0",
		"ProBot SE", "Hide Files 3.3", "Hide Folders XP", "Advanced Hide Folders",
		"File & Folder Protector", "Berbew", "FU",
		"Win32NameGhost", "RegNullGhost", "ADSGhost", "DriverHider", "Targeted", "Decoy",
	} {
		if !names[want] {
			t.Errorf("corpus missing %s", want)
		}
	}
}

// runCaptured runs the CLI with stdout redirected to a file and returns
// what it printed there.
func runCaptured(t *testing.T, args ...string) (int, string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	code, runErr := run(args)
	os.Stdout = old
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), runErr
}

// TestSupervisionFlags: -hedge arms straggler hedging on a plain
// (unsharded) fleet sweep — the sweep reports its hedge tally, and idle
// hedging is digest- and verdict-invisible — -watchdog composes with
// the sharded control plane, and -watchdog without shards is a usage
// error.
func TestSupervisionFlags(t *testing.T) {
	code, out, err := runCaptured(t, "-fleet", "3", "-hedge", "500ms", "-infect", "Hacker Defender 1.0")
	if err != nil || code != exitFindings {
		t.Fatalf("hedged fleet: code %d, err %v", code, err)
	}
	if !strings.Contains(out, "hedging: ") || !strings.Contains(out, "floor 500ms") {
		t.Fatalf("unsharded -hedge left no trace in the sweep output:\n%s", out)
	}
	_, plain, err := runCaptured(t, "-fleet", "3", "-infect", "Hacker Defender 1.0")
	if err != nil {
		t.Fatal(err)
	}
	if digestLine(plain) == "" || digestLine(out) != digestLine(plain) {
		t.Errorf("hedged %q != unhedged %q", digestLine(out), digestLine(plain))
	}
	dir := t.TempDir()
	code, err = run([]string{"-fleet", "8", "-shards", "2", "-shard-journal-dir", dir,
		"-watchdog", "2s", "-hedge", "500ms", "-infect", "Hacker Defender 1.0"})
	if err != nil || code != exitFindings {
		t.Fatalf("supervised sharded fleet: code %d, err %v", code, err)
	}
	if code, err := run([]string{"-fleet", "3", "-watchdog", "1s"}); err == nil || code != exitUsage {
		t.Fatalf("-watchdog without shards: code %d, err %v", code, err)
	}
	if code, err := run([]string{"-fleet", "3", "-hedge", "-1s"}); err == nil || code != exitUsage {
		t.Fatalf("negative -hedge: code %d, err %v", code, err)
	}
}

// digestLine returns the "report digest:" line of a text-mode sweep.
func digestLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "report digest: ") {
			return line
		}
	}
	return ""
}

// TestUnjournaledFleetWritesNoJournal: a fleet sweep without -journal
// is sealed straight from its results — it creates no throwaway journal
// in the temp dir (TMPDIR points at a missing directory, so any attempt
// would fail the run) — and its digest equals a journaled run's.
func TestUnjournaledFleetWritesNoJournal(t *testing.T) {
	dir := t.TempDir() // created before TMPDIR moves; later TempDirs nest here
	t.Setenv("TMPDIR", filepath.Join(dir, "absent"))
	digestOf := func(args ...string) string {
		t.Helper()
		code, out, err := runCaptured(t, append([]string{"-fleet", "3", "-json", "-infect", "Hacker Defender 1.0"}, args...)...)
		if err != nil || code != exitFindings {
			t.Fatalf("%v: code %d, err %v", args, code, err)
		}
		var rep fleet.Report
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if err := rep.Verify(); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return rep.Digest
	}
	plain := digestOf()
	if journaled := digestOf("-journal", filepath.Join(dir, "sweep.gbj")); plain != journaled {
		t.Errorf("unjournaled digest %.12s != journaled %.12s", plain, journaled)
	}
}
