package winapi

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"ghostbuster/internal/vtime"
)

// ErrNoBase reports a query on a chain whose base was never wired.
var ErrNoBase = errors.New("winapi: chain has no base implementation")

// ErrInjectedFault marks API failures fabricated by a fault-injection
// layer. High-level scanners must treat a call failing with this
// sentinel as a loud unit failure, never as "entry absent from this
// view" — silently dropping entries from the high view would turn
// injected faults into false cross-view differences.
var ErrInjectedFault = errors.New("winapi: injected fault")

// CallFault is a fault-injection hook that runs at every API entry
// point before the hook chain. Returning an error fails the call; the
// hook may instead charge latency to the call's clock and return nil.
type CallFault func(api API, call *Call) error

// CostModel prices API traffic in virtual time. The defaults are rough
// desktop-era figures; machine profiles override them.
type CostModel struct {
	PerAPICall time.Duration // fixed cost per query call
	PerEntry   time.Duration // marginal cost per returned entry
}

// DefaultCosts returns the baseline cost model.
func DefaultCosts() CostModel {
	return CostModel{PerAPICall: 50 * time.Microsecond, PerEntry: 2 * time.Microsecond}
}

// Stack is the API stack of one running OS instance: the installed hooks
// plus the base implementations. Queries may run concurrently with hook
// installs/uninstalls; the hook table is guarded by a read-write lock.
type Stack struct {
	mu      sync.RWMutex
	bases   Bases
	hooks   []*Hook
	nextSeq int
	clock   *vtime.Clock
	costs   CostModel
	fault   CallFault
}

// SetCallFault installs (or, with nil, removes) the call fault hook.
func (s *Stack) SetCallFault(f CallFault) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = f
}

// callFault runs the fault hook, if armed, for one API entry.
func (s *Stack) callFault(api API, call *Call) error {
	s.mu.RLock()
	f := s.fault
	s.mu.RUnlock()
	if f == nil {
		return nil
	}
	return f(api, call)
}

// NewStack builds a clean API stack over the given bases. The clock may
// be nil (no time accounting).
func NewStack(bases Bases, clock *vtime.Clock, costs CostModel) *Stack {
	return &Stack{bases: bases, clock: clock, costs: costs}
}

// Install adds a hook to the stack. Hooks at the same level stack in
// install order (later installs sit closer to the caller, like filter
// drivers attaching on top of a device stack).
func (s *Stack) Install(h *Hook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h.installSeq = s.nextSeq
	s.nextSeq++
	s.hooks = append(s.hooks, h)
}

// Uninstall removes every hook owned by owner and returns the count.
func (s *Stack) Uninstall(owner string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.hooks[:0]
	removed := 0
	for _, h := range s.hooks {
		if h.Owner == owner {
			removed++
			continue
		}
		kept = append(kept, h)
	}
	s.hooks = kept
	return removed
}

// Hooks returns descriptions of all installed hooks (for the taxonomy
// figures and the hook-detection baseline).
func (s *Stack) Hooks() []HookInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]HookInfo, 0, len(s.hooks))
	for _, h := range s.hooks {
		out = append(out, HookInfo{Owner: h.Owner, API: h.API, Level: h.Level, Technique: h.Technique})
	}
	return out
}

// chainHooks returns the hooks applicable to one call on one API,
// ordered innermost-first for wrapping: deepest level first, and within
// a level, earliest install first (so later installs end up outermost).
func (s *Stack) chainHooks(api API, entry Level, call *Call) []*Hook {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var hooks []*Hook
	for _, h := range s.hooks {
		if h.API != api {
			continue
		}
		if h.Level < entry {
			continue // the caller entered below this hook's level
		}
		if h.AppliesTo != nil && !h.AppliesTo(call.Proc) {
			continue
		}
		hooks = append(hooks, h)
	}
	sort.SliceStable(hooks, func(i, j int) bool {
		if hooks[i].Level != hooks[j].Level {
			return hooks[i].Level > hooks[j].Level
		}
		return hooks[i].installSeq < hooks[j].installSeq
	})
	return hooks
}

// charge bills the call's API traffic: to the call's lane clock when one
// is set, otherwise to the stack's machine clock.
func (s *Stack) charge(call *Call, entries int) {
	clock := s.clock
	if call != nil && call.Clock != nil {
		clock = call.Clock
	}
	if clock == nil {
		return
	}
	clock.Advance(s.costs.PerAPICall)
	clock.ChargeOps(int64(entries), s.costs.PerEntry)
}

// --- file enumeration --------------------------------------------------------

// enumDir dispatches a directory enumeration entering the chain at the
// given level.
func (s *Stack) enumDir(call *Call, dir string, entry Level) ([]DirEntry, error) {
	if s.bases.FileEnum == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoBase, APIFileEnum)
	}
	if err := s.callFault(APIFileEnum, call); err != nil {
		return nil, err
	}
	handler := s.bases.FileEnum
	for _, h := range s.chainHooks(APIFileEnum, entry, call) {
		if h.WrapFileEnum != nil {
			handler = h.WrapFileEnum(handler)
		}
	}
	out, err := handler(call, dir)
	s.charge(call, len(out))
	return out, err
}

// EnumDirWin32 lists a directory the way a Win32 program (or "dir /s
// /b") sees it: through the full hook chain, with Win32 filename
// restrictions applied at the API boundary. Files NTFS stores but Win32
// cannot address simply do not appear.
func (s *Stack) EnumDirWin32(call *Call, dir string) ([]DirEntry, error) {
	raw, err := s.enumDir(call, dir, LevelIAT)
	if err != nil {
		return nil, err
	}
	return filter(raw, func(e DirEntry) bool { return Win32Visible(e.Path, e.Name) }), nil
}

// EnumDirNative lists a directory via the Native API (direct
// NtQueryDirectoryFile), skipping IAT and user-mode code hooks and Win32
// name restrictions. Tools like the paper's low-level utilities — or
// rootkit user-mode components — use this entry.
func (s *Stack) EnumDirNative(call *Call, dir string) ([]DirEntry, error) {
	return s.enumDir(call, dir, LevelNtdll)
}

// WalkTreeWin32 implements "dir /s /b": a recursive Win32 enumeration.
// Recursion happens through the same hooked chain, so a directory hidden
// at any level hides its whole subtree, and Win32 path-length limits
// prune descent just as they do for the real command.
func (s *Stack) WalkTreeWin32(call *Call, root string) ([]DirEntry, error) {
	// The walk keeps each listing's runs between descents in output
	// order and copies them into the result once, at its final size.
	var runs [][]DirEntry
	var walk func(dir string) error
	walk = func(dir string) error {
		entries, err := s.EnumDirWin32(call, dir)
		if err != nil {
			return err
		}
		start := 0
		for i, e := range entries {
			if e.Dir && len(e.Path) <= MaxPath {
				runs = append(runs, entries[start:i+1])
				start = i + 1
				if err := walk(e.Path); err != nil {
					return err
				}
			}
		}
		runs = append(runs, entries[start:])
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return slices.Concat(runs...), nil
}

// --- boot sector -------------------------------------------------------------

// ReadBootSectorWin32 reads sector 0 of the system drive the way an
// inside-the-box tool would: by opening the physical drive through the
// hooked API chain. A bootkit's filter hook can substitute the pristine
// sector here; the raw device scan bypasses the chain and sees the
// infected truth.
func (s *Stack) ReadBootSectorWin32(call *Call) ([]byte, error) {
	if s.bases.BootRead == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoBase, APIBootRead)
	}
	if err := s.callFault(APIBootRead, call); err != nil {
		return nil, err
	}
	handler := s.bases.BootRead
	for _, h := range s.chainHooks(APIBootRead, LevelIAT, call) {
		if h.WrapBootRead != nil {
			handler = h.WrapBootRead(handler)
		}
	}
	out, err := handler(call)
	s.charge(call, 1)
	return out, err
}

// --- Registry ----------------------------------------------------------------

func (s *Stack) queryKey(call *Call, keyPath string, entry Level) (KeySnapshot, error) {
	if s.bases.RegQuery == nil {
		return KeySnapshot{}, fmt.Errorf("%w: %s", ErrNoBase, APIRegQuery)
	}
	if err := s.callFault(APIRegQuery, call); err != nil {
		return KeySnapshot{}, err
	}
	handler := s.bases.RegQuery
	for _, h := range s.chainHooks(APIRegQuery, entry, call) {
		if h.WrapRegQuery != nil {
			handler = h.WrapRegQuery(handler)
		}
	}
	out, err := handler(call, keyPath)
	s.charge(call, len(out.Subkeys)+len(out.Values))
	return out, err
}

// QueryKeyWin32 reads a key the way RegEdit and the Win32 Registry APIs
// do: through the full chain, with NUL-terminated string semantics —
// names containing embedded NULs, and names exceeding the Win32 editor
// limit, are invisible.
func (s *Stack) QueryKeyWin32(call *Call, keyPath string) (KeySnapshot, error) {
	raw, err := s.queryKey(call, keyPath, LevelIAT)
	if err != nil {
		return KeySnapshot{}, err
	}
	out := KeySnapshot{}
	for _, k := range raw.Subkeys {
		if Win32NameVisible(k) {
			out.Subkeys = append(out.Subkeys, k)
		}
	}
	for _, v := range raw.Values {
		if Win32NameVisible(v.Name) {
			out.Values = append(out.Values, v)
		}
	}
	return out, nil
}

// QueryKeyNative reads a key via the Native API: counted-string
// semantics, entering at the ntdll level.
func (s *Stack) QueryKeyNative(call *Call, keyPath string) (KeySnapshot, error) {
	return s.queryKey(call, keyPath, LevelNtdll)
}

// --- processes and modules ----------------------------------------------------

func (s *Stack) enumProcs(call *Call, entry Level) ([]ProcEntry, error) {
	if s.bases.ProcEnum == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoBase, APIProcEnum)
	}
	if err := s.callFault(APIProcEnum, call); err != nil {
		return nil, err
	}
	handler := s.bases.ProcEnum
	for _, h := range s.chainHooks(APIProcEnum, entry, call) {
		if h.WrapProcEnum != nil {
			handler = h.WrapProcEnum(handler)
		}
	}
	out, err := handler(call)
	s.charge(call, len(out))
	return out, err
}

// EnumProcessesWin32 lists processes as Task Manager / tlist do
// (Process32First→NtQuerySystemInformation through the full chain).
func (s *Stack) EnumProcessesWin32(call *Call) ([]ProcEntry, error) {
	return s.enumProcs(call, LevelIAT)
}

// EnumModulesWin32 lists the modules of pid through the full chain.
// Entries whose pathname has been blanked in the PEB are invisible, as
// the calling chain keys on pathnames.
func (s *Stack) EnumModulesWin32(call *Call, pid uint64) ([]ModEntry, error) {
	if s.bases.ModEnum == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoBase, APIModEnum)
	}
	if err := s.callFault(APIModEnum, call); err != nil {
		return nil, err
	}
	handler := s.bases.ModEnum
	for _, h := range s.chainHooks(APIModEnum, LevelIAT, call) {
		if h.WrapModEnum != nil {
			handler = h.WrapModEnum(handler)
		}
	}
	raw, err := handler(call, pid)
	s.charge(call, len(raw))
	if err != nil {
		return nil, err
	}
	return filter(raw, func(m ModEntry) bool { return m.Path != "" }), nil
}

// EnumDriversWin32 lists loaded drivers through the chain.
func (s *Stack) EnumDriversWin32(call *Call) ([]ModEntry, error) {
	if s.bases.DriverEnum == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoBase, APIDriverEnum)
	}
	if err := s.callFault(APIDriverEnum, call); err != nil {
		return nil, err
	}
	handler := s.bases.DriverEnum
	for _, h := range s.chainHooks(APIDriverEnum, LevelIAT, call) {
		if h.WrapDriverEnum != nil {
			handler = h.WrapDriverEnum(handler)
		}
	}
	out, err := handler(call)
	s.charge(call, len(out))
	return out, err
}
