// Package faultinject is a seeded, deterministic fault layer for the
// simulated machine's byte-level truth sources: raw NTFS device reads,
// hive snapshots, kernel-memory reads and crash-dump images, and Win32
// API calls. A fault plan describes which source misbehaves, how, and on
// which access; arming the plan against a machine wires concrete hooks
// into each substrate.
//
// Every injected fault is structurally loud: it produces a read error,
// an unparseable record, or a pointer that dereferences outside the
// arena — never a silently altered name, path, or pid. Loud corruption
// is what keeps the detector's degradation honest: a damaged unit
// surfaces in Report.DegradedUnits instead of contaminating the
// cross-view diff with false positives.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Source names a byte-level truth source a fault attaches to.
type Source string

const (
	// SourceDisk faults raw NTFS device reads (WithDevice, SnapshotImage).
	SourceDisk Source = "disk"
	// SourceHive faults hive file snapshots taken for raw parsing.
	SourceHive Source = "hive"
	// SourceKmem faults kernel-memory scan reads and crash-dump images.
	SourceKmem Source = "kmem"
	// SourceAPI faults Win32 API calls made by the high-level scanners.
	SourceAPI Source = "api"
	// SourceRemovable faults raw reads of the removable (E:) volume's
	// device image — flaky media, the common failure mode of real sticks.
	SourceRemovable Source = "removable"
)

// Kind names the failure mode a fault injects.
type Kind string

const (
	// KindErr fails the access outright with an injected error.
	KindErr Kind = "err"
	// KindTorn delivers a partial result: a half-written MFT record, a
	// hive header whose sequence numbers disagree, a truncated dump, or
	// an address range that has become unreadable mid-walk.
	KindTorn Kind = "torn"
	// KindFlip flips bits in a way that breaks structure (bad record
	// magic, out-of-bounds root cell, wild kernel pointer) rather than
	// content, so parsers fail instead of reading wrong values.
	KindFlip Kind = "flip"
	// KindLag injects a latency spike. On the API source the access
	// succeeds but charges a large burst of virtual time. On the disk
	// source it is a *wall-clock* stall seam instead: device reads have
	// no reachable lane clock, so the read blocks in the injector's
	// stall gate (see Injector.SetStall) the way a dying spindle or a
	// wedged fsync blocks a real scanner — which is exactly what the
	// supervision watchdogs exist to detect.
	KindLag Kind = "lag"
	// KindMut mutates the filesystem mid-scan — a file appears between
	// the high-level walk and the raw MFT pass (disk source only).
	KindMut Kind = "mut"
)

// allowedKinds is the per-source fault matrix. Only disk supports
// mid-scan mutation; disk lag is the wall-clock stall seam (no virtual
// charge — device reads have no reachable lane clock).
var allowedKinds = map[Source]map[Kind]bool{
	SourceDisk:      {KindErr: true, KindTorn: true, KindFlip: true, KindMut: true, KindLag: true},
	SourceHive:      {KindErr: true, KindTorn: true, KindFlip: true},
	SourceKmem:      {KindErr: true, KindTorn: true, KindFlip: true},
	SourceAPI:       {KindErr: true, KindLag: true},
	SourceRemovable: {KindErr: true, KindTorn: true, KindFlip: true},
}

// Fault is one injectable failure: starting at the After-th access to
// Source (1-based), the next Count accesses misbehave with Kind.
type Fault struct {
	Source Source
	Kind   Kind
	After  int
	Count  int
}

// Validate checks the fault against the per-source kind matrix.
func (f Fault) Validate() error {
	kinds, ok := allowedKinds[f.Source]
	if !ok {
		return fmt.Errorf("faultinject: unknown source %q", f.Source)
	}
	if !kinds[f.Kind] {
		return fmt.Errorf("faultinject: source %s does not support kind %q", f.Source, f.Kind)
	}
	if f.After < 1 {
		return fmt.Errorf("faultinject: fault %s:%s after must be >= 1", f.Source, f.Kind)
	}
	if f.Count < 1 {
		return fmt.Errorf("faultinject: fault %s:%s count must be >= 1", f.Source, f.Kind)
	}
	return nil
}

// String renders one fault in the compact plan grammar,
// "source:kind@afterxN" (the "xN" suffix is omitted when Count is 1).
func (f Fault) String() string {
	s := fmt.Sprintf("%s:%s@%d", f.Source, f.Kind, f.After)
	if f.Count != 1 {
		s += "x" + strconv.Itoa(f.Count)
	}
	return s
}

// Plan is a seeded set of faults. The seed drives every offset choice
// the injector makes (which MFT record to tear, which dump word to
// flip), so the same plan against the same machine corrupts the same
// bytes every run.
type Plan struct {
	Seed   int64
	Faults []Fault
}

// String renders the fault list as a semicolon-joined spec fragment,
// e.g. "disk:torn@2;api:err@1x3". The seed is carried separately (it is
// the owning spec's seed).
func (p Plan) String() string { return FormatFaults(p.Faults) }

// FormatFaults renders faults in the compact plan grammar.
func FormatFaults(faults []Fault) string {
	parts := make([]string, len(faults))
	for i, f := range faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// ParseFaults parses the compact plan grammar produced by FormatFaults:
// semicolon-joined "source:kind@after[xcount]" terms.
func ParseFaults(s string) ([]Fault, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Fault
	for _, term := range strings.Split(s, ";") {
		f, err := parseFault(term)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func parseFault(term string) (Fault, error) {
	var f Fault
	colon := strings.IndexByte(term, ':')
	at := strings.IndexByte(term, '@')
	if colon <= 0 || at <= colon {
		return f, fmt.Errorf("faultinject: bad fault term %q (want source:kind@after[xN])", term)
	}
	f.Source = Source(term[:colon])
	f.Kind = Kind(term[colon+1 : at])
	rest := term[at+1:]
	f.Count = 1
	if x := strings.IndexByte(rest, 'x'); x >= 0 {
		n, err := strconv.Atoi(rest[x+1:])
		if err != nil {
			return f, fmt.Errorf("faultinject: bad fault count in %q: %w", term, err)
		}
		f.Count = n
		rest = rest[:x]
	}
	after, err := strconv.Atoi(rest)
	if err != nil {
		return f, fmt.Errorf("faultinject: bad fault offset in %q: %w", term, err)
	}
	f.After = after
	if err := f.Validate(); err != nil {
		return f, err
	}
	return f, nil
}

// Sources returns the distinct sources the plan touches, sorted.
func (p Plan) Sources() []Source {
	seen := map[Source]bool{}
	for _, f := range p.Faults {
		seen[f.Source] = true
	}
	out := make([]Source, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Mix is the seeded offset mixer shared by every fault seam: a
// splitmix64 finalizer over a plan seed and a set of discriminators.
// All injector offset choices flow through it, and external fault
// seams (the sweep journal's torn/flip corruption) reuse it so their
// "which byte breaks" decisions are deterministic the same way.
func Mix(seed int64, vals ...uint64) uint64 { return mix(seed, vals...) }

// mix is a splitmix64 finalizer over the plan seed and a set of
// discriminators; all injector offset choices flow through it.
func mix(seed int64, vals ...uint64) uint64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range vals {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		x = z
	}
	return x
}
