package winapi

import (
	"strings"
	"testing"
)

func TestWin32NameVisibleTable(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"Updater", true},
		{"", true}, // the empty value name (a key's default value) is legal
		{strings.Repeat("a", 255), true},
		{strings.Repeat("a", 256), false},
		{"with\x00nul", false},
		{"\x00leading", false},
		{"trailing\x00", false},
	}
	for _, tc := range cases {
		if got := Win32NameVisible(tc.name); got != tc.want {
			t.Errorf("Win32NameVisible(%q) = %v, want %v", strings.ReplaceAll(tc.name, "\x00", `\0`), got, tc.want)
		}
	}
}

func TestWin32VisibleTable(t *testing.T) {
	cases := []struct {
		path string
		name string
		want bool
	}{
		{`C:\f.txt`, "f.txt", true},
		{`C:\dir\sub.folder`, "sub.folder", true},
		{`C:\f.`, "f.", false},
		{`C:\f `, "f ", false},
		{`C:\CON`, "CON", false},
		{`C:\con`, "con", false},
		{`C:\CON.txt`, "CON.txt", false},
		{`C:\console.txt`, "console.txt", true}, // only exact base matches
		{`C:\NUL`, "NUL", false},
		{`C:\COM1`, "COM1", false},
		{`C:\COM0`, "COM0", true}, // COM0 is not reserved
		{`C:\LPT9.doc`, "LPT9.doc", false},
		{`C:\a?b`, "a?b", false},
		{`C:\a*b`, "a*b", false},
		{`C:\a|b`, "a|b", false},
		{`C:\a<b`, "a<b", false},
		{`C:\tab\tb`, "ta\tb", false}, // control characters
		{`C:\nul\x00`, "nu\x00l", false},
		{`C:\` + strings.Repeat("d", 300), strings.Repeat("d", 300), false}, // MAX_PATH
		{`C:\ok`, "", false},                                                // empty component never enumerates
		{`C:\nul.TXT`, "nul.TXT", false},                                    // any case, any extension
		{`C:\Com1 .log`, "Com1 .log", false},                                // spaces before the dot trim away
		{`C:\ aux`, " aux", false},                                          // leading spaces trim away
		{`C:\LPT9`, "LPT9", false},
		{`C:\COM10`, "COM10", true}, // only COM1-COM9
		{`C:\CONSOLE12.txt`, "CONSOLE12.txt", true},
		{`C:\   COM1   .txt`, "   COM1   .txt", false}, // a 10-byte base that trims to a device
		{`C:\cón.txt`, "cón.txt", true},                // non-ASCII base
		{"C:\\\u00a0NUL.txt", "\u00a0NUL.txt", false},  // Unicode spaces trim too
	}
	for _, tc := range cases {
		if got := Win32Visible(tc.path, tc.name); got != tc.want {
			t.Errorf("Win32Visible(%q, %q) = %v, want %v", tc.path, tc.name, got, tc.want)
		}
	}
}

// TestWin32VisibleAllocs pins the name check at zero allocations for
// ASCII names, reserved ones included: it runs on every entry of every
// high-side file walk.
func TestWin32VisibleAllocs(t *testing.T) {
	names := []string{"f.txt", "readme", "con", "Com1 .log", "nul.TXT", "lpt9.doc", "CONSOLE12.txt", "   COM1   .txt", "f."}
	for _, name := range names {
		path := `C:\dir\` + name
		if n := testing.AllocsPerRun(100, func() { Win32Visible(path, name) }); n != 0 {
			t.Errorf("Win32Visible(%q) = %v allocs, want 0", name, n)
		}
	}
}

func TestLevelStrings(t *testing.T) {
	for _, l := range []Level{LevelNone, LevelIAT, LevelUserCode, LevelNtdll, LevelSSDT, LevelFilter} {
		if l.String() == "unknown level" {
			t.Errorf("level %d has no name", l)
		}
	}
	if Level(42).String() != "unknown level" {
		t.Error("unexpected name for bogus level")
	}
}

func TestResourceChainsIndependent(t *testing.T) {
	// A file hook must never affect Registry or process queries.
	s := newTestStack(fakeFS{`C:`: {file(`C:`, "x")}}, nil)
	s.Install(NewFileHideHook("mal", LevelSSDT, "t", nil, func(*Call, DirEntry) bool { return true }))
	ks, err := s.QueryKeyWin32(testCall, `HKLM\X`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Subkeys) == 0 {
		t.Error("file hook bled into the Registry chain")
	}
	procs, err := s.EnumProcessesWin32(testCall)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 3 {
		t.Error("file hook bled into the process chain")
	}
}
