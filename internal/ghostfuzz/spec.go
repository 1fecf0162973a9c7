// Package ghostfuzz is a seeded, deterministic property-based adversary
// generator and topology oracle for the GhostBuster pipeline. It
// composes random ghostware from the full technique lattice (hook
// levels × resource types, plus the hookless name tricks, DKOM,
// targeting and decoy behaviours), installs each on a randomized
// workload machine, and runs it through one declarative matrix of
// execution topologies: a host table (sequential, parallel lanes, warm
// and cold cache, contained fault plans, scan orders, crash dump,
// WinPE) judged against the planted ground truth, and a fleet table
// (plain, journaled, killed and resumed, sharded, lost shards, wedged,
// hedged and retried sweeps) judged against one uninterrupted
// reference. Failures shrink to a one-line reproducible spec kept as a
// permanent regression corpus.
package ghostfuzz

import (
	"fmt"
	"strconv"
	"strings"

	"ghostbuster/internal/faultinject"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/winapi"
)

// specVersion prefixes every spec line; bump only with a format change.
const specVersion = "ghostfuzz-v1"

// MaxAtomCount bounds an atom's artifact count in a parsed spec. A
// composite declares and installs that many artifacts per atom, so an
// unbounded count in a replayed line or corpus file would let hostile
// input allocate without limit. It sits well above the generator's
// largest count (124, a decoy) and the corpus's (120).
const MaxAtomCount = 1000

// CaseSpec fully determines one fuzz case: the seed picks the machine
// profile (and nothing else — artifact names derive from atom indices),
// the atom list is the composed ghostware. A spec round-trips through
// its one-line String form, which is the corpus format.
type CaseSpec struct {
	Seed  int64
	Atoms []ghostware.Atom
	// Faults, when non-empty, makes this a chaos case: the plan (seeded
	// with Seed) is armed against the machine by the contained host rows
	// instead of the clean ones.
	Faults []faultinject.Fault
}

var levelTokens = map[winapi.Level]string{
	winapi.LevelNone:     "none",
	winapi.LevelIAT:      "iat",
	winapi.LevelUserCode: "user",
	winapi.LevelNtdll:    "ntdll",
	winapi.LevelSSDT:     "ssdt",
	winapi.LevelFilter:   "filter",
}

var kindTokens = map[string]ghostware.AtomKind{
	"file": ghostware.AtomFileHide, "win32": ghostware.AtomWin32Name,
	"ads": ghostware.AtomADS, "reg": ghostware.AtomRegHide,
	"regnul": ghostware.AtomRegNul, "proc": ghostware.AtomProcHide,
	"dkom": ghostware.AtomProcDKOM, "mod": ghostware.AtomModHide,
	"decoy": ghostware.AtomDecoy, "evasive": ghostware.AtomEvasive,
	"memonly": ghostware.AtomMemOnly, "bootkit": ghostware.AtomBootkit,
	"usbhide": ghostware.AtomUSBHide,
}

// String renders the one-line corpus form:
//
//	ghostfuzz-v1 seed=7 atoms=file@ssdt/2/all;ads/1/all;decoy@filter/120/utils
//	ghostfuzz-v1 seed=9 atoms=reg@ntdll/2/all faults=hive:torn@1;api:err@3x2
//
// Hooked atoms carry "@level"; every atom carries "/count/scope" with
// scope one of all, utils, except=<name>. Chaos cases append a fourth
// "faults=" field in the faultinject plan grammar.
func (s CaseSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d atoms=", specVersion, s.Seed)
	for i, a := range s.Atoms {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(a.Kind.String())
		if a.Kind.Hooked() {
			b.WriteByte('@')
			b.WriteString(levelTokens[a.Level])
		}
		count := a.Count
		if count <= 0 {
			count = 1
		}
		fmt.Fprintf(&b, "/%d/%s", count, scopeToken(a))
	}
	if len(s.Faults) > 0 {
		b.WriteString(" faults=")
		b.WriteString(faultinject.FormatFaults(s.Faults))
	}
	return b.String()
}

func scopeToken(a ghostware.Atom) string {
	switch a.Scope {
	case ghostware.ScopeUtilities:
		return "utils"
	case ghostware.ScopeExcept:
		return "except=" + a.ExemptName
	default:
		return "all"
	}
}

// ParseSpec parses a one-line spec back into a CaseSpec. It parses
// every line String emits, rejects malformed or out-of-range fields,
// and any spec it accepts renders (String) to a line that parses back
// to an equal spec.
func ParseSpec(line string) (CaseSpec, error) {
	var s CaseSpec
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 3 || len(fields) > 4 || fields[0] != specVersion {
		return s, fmt.Errorf("ghostfuzz: spec must be %q seed=N atoms=... [faults=...]: %q", specVersion, line)
	}
	seedStr, ok := strings.CutPrefix(fields[1], "seed=")
	if !ok {
		return s, fmt.Errorf("ghostfuzz: missing seed= in %q", line)
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return s, fmt.Errorf("ghostfuzz: bad seed %q: %w", seedStr, err)
	}
	s.Seed = seed
	atomsStr, ok := strings.CutPrefix(fields[2], "atoms=")
	if !ok {
		return s, fmt.Errorf("ghostfuzz: missing atoms= in %q", line)
	}
	for _, tok := range strings.Split(atomsStr, ";") {
		a, err := parseAtom(tok)
		if err != nil {
			return s, err
		}
		s.Atoms = append(s.Atoms, a)
	}
	if len(s.Atoms) == 0 {
		return s, fmt.Errorf("ghostfuzz: spec has no atoms: %q", line)
	}
	if len(fields) == 4 {
		faultsStr, ok := strings.CutPrefix(fields[3], "faults=")
		if !ok || faultsStr == "" {
			return s, fmt.Errorf("ghostfuzz: fourth field must be faults=... in %q", line)
		}
		faults, err := faultinject.ParseFaults(faultsStr)
		if err != nil {
			return s, err
		}
		s.Faults = faults
	}
	return s, nil
}

// hasEvasive reports whether the atom list contains the adaptive-evasion
// kind, which makes the spec evasive: only sequential rows apply.
func hasEvasive(atoms []ghostware.Atom) bool {
	for _, a := range atoms {
		if a.Kind == ghostware.AtomEvasive {
			return true
		}
	}
	return false
}

func parseAtom(tok string) (ghostware.Atom, error) {
	var a ghostware.Atom
	parts := strings.Split(tok, "/")
	if len(parts) != 3 {
		return a, fmt.Errorf("ghostfuzz: atom %q: want kind[@level]/count/scope", tok)
	}
	kindTok, levelTok, hasLevel := parts[0], "", false
	if i := strings.IndexByte(parts[0], '@'); i >= 0 {
		kindTok, levelTok, hasLevel = parts[0][:i], parts[0][i+1:], true
	}
	kind, ok := kindTokens[kindTok]
	if !ok {
		return a, fmt.Errorf("ghostfuzz: unknown atom kind %q", kindTok)
	}
	a.Kind = kind
	if hasLevel {
		if !kind.Hooked() {
			return a, fmt.Errorf("ghostfuzz: hookless atom %q cannot take a level", tok)
		}
		found := false
		for lvl, name := range levelTokens {
			if name == levelTok {
				a.Level, found = lvl, true
				break
			}
		}
		if !found {
			return a, fmt.Errorf("ghostfuzz: unknown hook level %q", levelTok)
		}
	} else if kind.Hooked() {
		return a, fmt.Errorf("ghostfuzz: hooked atom %q needs @level", tok)
	}
	count, err := strconv.Atoi(parts[1])
	if err != nil || count < 1 || count > MaxAtomCount {
		return a, fmt.Errorf("ghostfuzz: atom %q: bad count %q (want 1..%d)", tok, parts[1], MaxAtomCount)
	}
	a.Count = count
	switch {
	case parts[2] == "all":
		a.Scope = ghostware.ScopeAll
	case parts[2] == "utils":
		a.Scope = ghostware.ScopeUtilities
	case strings.HasPrefix(parts[2], "except="):
		a.Scope = ghostware.ScopeExcept
		a.ExemptName = strings.TrimPrefix(parts[2], "except=")
		if a.ExemptName == "" {
			return a, fmt.Errorf("ghostfuzz: atom %q: empty except name", tok)
		}
	default:
		return a, fmt.Errorf("ghostfuzz: atom %q: unknown scope %q", tok, parts[2])
	}
	if a.Scope != ghostware.ScopeAll && !kind.Hooked() {
		return a, fmt.Errorf("ghostfuzz: hookless atom %q cannot be scoped", tok)
	}
	return a, nil
}
