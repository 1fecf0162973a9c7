package winapi

// This file provides the hook constructors ghostware implementations
// use. Almost all real resource hiding is "interception and filtering":
// call the next layer, then remove the to-be-hidden entries from the
// returned result set. The constructors capture that pattern; bespoke
// hooks (e.g. result *rewriting*) can still be built from raw Hook
// values.

// filter returns the elements of s that keep accepts, in order. When
// keep accepts them all it returns s itself, so a filter layer that
// hides nothing from a listing costs no copy; otherwise it copies into
// a new slice and never writes to s.
func filter[T any](s []T, keep func(T) bool) []T {
	for i := range s {
		if !keep(s[i]) {
			out := make([]T, i, len(s)-1)
			copy(out, s[:i])
			for _, e := range s[i+1:] {
				if keep(e) {
					out = append(out, e)
				}
			}
			return out
		}
	}
	return s
}

// NewFileHideHook builds a file-enumeration filter at the given level
// that drops entries for which hide returns true.
func NewFileHideHook(owner string, level Level, technique string, appliesTo func(Proc) bool, hide func(call *Call, e DirEntry) bool) *Hook {
	return &Hook{
		Owner: owner, API: APIFileEnum, Level: level, Technique: technique, AppliesTo: appliesTo,
		WrapFileEnum: func(next FileEnumHandler) FileEnumHandler {
			return func(call *Call, dir string) ([]DirEntry, error) {
				entries, err := next(call, dir)
				if err != nil {
					return nil, err
				}
				return filter(entries, func(e DirEntry) bool { return !hide(call, e) }), nil
			}
		},
	}
}

// NewRegHideHook builds a Registry-query filter that drops subkeys and
// values for which the respective predicate returns true. Either
// predicate may be nil.
func NewRegHideHook(owner string, level Level, technique string, appliesTo func(Proc) bool,
	hideSubkey func(call *Call, keyPath, subkey string) bool,
	hideValue func(call *Call, keyPath, valueName string) bool) *Hook {
	return &Hook{
		Owner: owner, API: APIRegQuery, Level: level, Technique: technique, AppliesTo: appliesTo,
		WrapRegQuery: func(next RegQueryHandler) RegQueryHandler {
			return func(call *Call, keyPath string) (KeySnapshot, error) {
				snap, err := next(call, keyPath)
				if err != nil {
					return KeySnapshot{}, err
				}
				out := KeySnapshot{}
				for _, k := range snap.Subkeys {
					if hideSubkey != nil && hideSubkey(call, keyPath, k) {
						continue
					}
					out.Subkeys = append(out.Subkeys, k)
				}
				for _, v := range snap.Values {
					if hideValue != nil && hideValue(call, keyPath, v.Name) {
						continue
					}
					out.Values = append(out.Values, v)
				}
				return out, nil
			}
		},
	}
}

// NewProcHideHook builds a process-enumeration filter.
func NewProcHideHook(owner string, level Level, technique string, appliesTo func(Proc) bool, hide func(call *Call, p ProcEntry) bool) *Hook {
	return &Hook{
		Owner: owner, API: APIProcEnum, Level: level, Technique: technique, AppliesTo: appliesTo,
		WrapProcEnum: func(next ProcEnumHandler) ProcEnumHandler {
			return func(call *Call) ([]ProcEntry, error) {
				procs, err := next(call)
				if err != nil {
					return nil, err
				}
				return filter(procs, func(p ProcEntry) bool { return !hide(call, p) }), nil
			}
		},
	}
}

// NewModHideHook builds a module-enumeration filter.
func NewModHideHook(owner string, level Level, technique string, appliesTo func(Proc) bool, hide func(call *Call, m ModEntry) bool) *Hook {
	return &Hook{
		Owner: owner, API: APIModEnum, Level: level, Technique: technique, AppliesTo: appliesTo,
		WrapModEnum: func(next ModEnumHandler) ModEnumHandler {
			return func(call *Call, pid uint64) ([]ModEntry, error) {
				mods, err := next(call, pid)
				if err != nil {
					return nil, err
				}
				return filter(mods, func(m ModEntry) bool { return !hide(call, m) }), nil
			}
		},
	}
}

// NewDriverHideHook builds a driver-enumeration filter.
func NewDriverHideHook(owner string, level Level, technique string, appliesTo func(Proc) bool, hide func(call *Call, m ModEntry) bool) *Hook {
	return &Hook{
		Owner: owner, API: APIDriverEnum, Level: level, Technique: technique, AppliesTo: appliesTo,
		WrapDriverEnum: func(next DriverEnumHandler) DriverEnumHandler {
			return func(call *Call) ([]ModEntry, error) {
				mods, err := next(call)
				if err != nil {
					return nil, err
				}
				return filter(mods, func(m ModEntry) bool { return !hide(call, m) }), nil
			}
		},
	}
}

// NewBootSanitizeHook builds a boot-read hook that substitutes its own
// sector bytes for the real ones — the bootkit lie: inside-the-box reads
// of sector 0 see the pristine pre-infection image while the device
// holds the patched one.
func NewBootSanitizeHook(owner string, level Level, technique string, appliesTo func(Proc) bool, pristine []byte) *Hook {
	return &Hook{
		Owner: owner, API: APIBootRead, Level: level, Technique: technique, AppliesTo: appliesTo,
		WrapBootRead: func(next BootReadHandler) BootReadHandler {
			return func(call *Call) ([]byte, error) {
				if _, err := next(call); err != nil {
					return nil, err
				}
				return append([]byte(nil), pristine...), nil
			}
		},
	}
}

// NewFileEnumWatchHook builds an observe-only file-enumeration hook that
// calls observe on every enumerated directory before passing the query
// through unmodified. Evasive ghostware uses it to fingerprint
// scan-shaped API traffic (a full-volume walk always starts at the
// drive root) and change its hiding behaviour mid-sweep.
func NewFileEnumWatchHook(owner string, level Level, technique string, observe func(call *Call, dir string)) *Hook {
	return &Hook{
		Owner: owner, API: APIFileEnum, Level: level, Technique: technique,
		WrapFileEnum: func(next FileEnumHandler) FileEnumHandler {
			return func(call *Call, dir string) ([]DirEntry, error) {
				observe(call, dir)
				return next(call, dir)
			}
		},
	}
}

// NewPassthroughFileHook builds a hook that observes but does not
// filter. Legitimate software (in-memory patchers, fault-tolerance
// wrappers, AV real-time shims) installs hooks like this; they are the
// false positives of hook-detection-based scanners (paper §1).
func NewPassthroughFileHook(owner string, level Level, technique string) *Hook {
	return &Hook{
		Owner: owner, API: APIFileEnum, Level: level, Technique: technique,
		WrapFileEnum: func(next FileEnumHandler) FileEnumHandler {
			return func(call *Call, dir string) ([]DirEntry, error) {
				return next(call, dir)
			}
		},
	}
}
