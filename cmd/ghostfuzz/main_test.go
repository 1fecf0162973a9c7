package main

import (
	"os"
	"strings"
	"testing"
)

func capture(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run(args, f); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestSmallRunEmitsDeterministicJSON(t *testing.T) {
	args := []string{"-seed", "3", "-n", "2"}
	a := capture(t, args)
	if !strings.Contains(a, `"cases": 2`) {
		t.Errorf("unexpected output: %s", a)
	}
	if b := capture(t, args); a != b {
		t.Errorf("same seed produced different JSON:\n%s\n%s", a, b)
	}
}

func TestReplayInlineSpec(t *testing.T) {
	out := capture(t, []string{"-replay", "ghostfuzz-v1 seed=7 atoms=ads/1/all"})
	if !strings.Contains(out, `"violations": null`) {
		t.Errorf("replay of a passing spec reported violations: %s", out)
	}
}

func TestSupervisedModeRunsMatrix(t *testing.T) {
	out := capture(t, []string{"-seed", "131", "-n", "1", "-rows", "^supervise/"})
	for _, row := range []string{"wedge-live", "wedge-resume", "wedge-unjournaled", "hedge", "jitter-retry"} {
		if !strings.Contains(out, `"supervise/`+row+`": 1`) {
			t.Errorf("supervision rows did not run %s once: %s", row, out)
		}
	}
	if strings.Contains(out, `"violations"`) {
		t.Errorf("supervision rows reported violations: %s", out)
	}
}

func TestUnknownRowSelectionErrors(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run([]string{"-rows", "^nosuch$"}, f); err == nil {
		t.Fatal("a selection matching no row should error")
	}
	if err := run([]string{"-rows", "^faulted-", "-replay", "ghostfuzz-v1 seed=7 atoms=ads/1/all"}, f); err == nil {
		t.Fatal("a selection with no row for the replayed spec should error")
	}
}

func TestReplayBadSpecErrors(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run([]string{"-replay", "not-a-spec"}, f); err == nil {
		t.Fatal("malformed spec should error")
	}
}
