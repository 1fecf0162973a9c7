package winapi

import (
	"strings"
	"unicode/utf8"
)

// MaxPath is the Win32 full-path limit (MAX_PATH). Entries whose full
// path exceeds it are unaddressable by Win32 callers, and "dir /s /b"
// cannot descend past it.
const MaxPath = 260

// win32Reserved is the set of device names Win32 refuses to open as
// files [MSDN "Naming a File"]. A reserved base name with any extension
// is also reserved (e.g. "NUL.txt").
var win32Reserved = map[string]bool{
	"CON": true, "PRN": true, "AUX": true, "NUL": true,
	"COM1": true, "COM2": true, "COM3": true, "COM4": true, "COM5": true,
	"COM6": true, "COM7": true, "COM8": true, "COM9": true,
	"LPT1": true, "LPT2": true, "LPT3": true, "LPT4": true, "LPT5": true,
	"LPT6": true, "LPT7": true, "LPT8": true, "LPT9": true,
}

// Win32NameVisible reports whether a single name is representable under
// Win32 string semantics: NUL-terminated, and within editor length
// limits. Registry entries violating either rule are invisible to
// RegEdit and the Win32 Registry APIs (paper §3).
func Win32NameVisible(name string) bool {
	if strings.ContainsRune(name, 0) {
		return false
	}
	return len(name) <= 255
}

// Win32Visible reports whether a directory entry is addressable by the
// Win32 file APIs. NTFS happily stores names that violate these rules
// when created through low-level APIs; such files are effectively hidden
// from every Win32 program (paper §2: trailing dots or spaces, reserved
// device names, over-long full pathnames, special characters).
func Win32Visible(fullPath, name string) bool {
	if name == "" {
		return false
	}
	if strings.HasSuffix(name, ".") || strings.HasSuffix(name, " ") {
		return false
	}
	if strings.ContainsRune(name, 0) {
		return false
	}
	for _, r := range name {
		switch r {
		case '<', '>', ':', '"', '/', '|', '?', '*':
			return false
		}
		if r < 0x20 {
			return false
		}
	}
	base := name
	if i := strings.IndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	if reservedBase(base) {
		return false
	}
	return len(fullPath) <= MaxPath
}

// reservedBase reports whether base, trimmed of spaces, is a reserved
// device name in any case. An ASCII base upper-cases into a stack buffer
// and allocates nothing; anything else takes strings.ToUpper.
func reservedBase(base string) bool {
	for i := 0; i < len(base); i++ {
		if base[i] >= utf8.RuneSelf {
			return win32Reserved[strings.ToUpper(strings.TrimSpace(base))]
		}
	}
	base = strings.TrimSpace(base)
	var buf [4]byte // the longest reserved names: COMn, LPTn
	if len(base) > len(buf) {
		return false
	}
	for i := 0; i < len(base); i++ {
		c := base[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return win32Reserved[string(buf[:len(base)])]
}
