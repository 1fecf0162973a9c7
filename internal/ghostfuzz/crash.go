package ghostfuzz

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"ghostbuster/internal/faultinject"
	"ghostbuster/internal/fleet"
	"ghostbuster/internal/journal"
)

// The crash-resume differential oracle: run a journaled sweep to
// completion as the reference, then simulate process death at several
// journal offsets (plus torn-tail and bit-flip damage to the journal
// file itself), resume each wreck on a freshly rebuilt identical fleet,
// and demand the merged report match the uninterrupted run — same
// verdicts, same per-host content hashes, same fleet digest — with no
// host re-scanned after its committed terminal record.

// crashSeedBase offsets crash-fleet host seeds away from both the
// single-case and fleet-mode seed spaces.
const crashSeedBase = 1 << 21

// crashHosts is the crash fleet size: small enough to sweep quickly,
// large enough that a mid-sweep kill leaves committed, in-flight, and
// unvisited hosts all at once.
const crashHosts = 3

// InvDurability: a resumed sweep diverged from the uninterrupted run,
// lost work it had committed, or accepted a damaged journal silently.
const InvDurability = "durability"

// CrashSummary is the deterministic outcome of one crash-resume fuzz.
type CrashSummary struct {
	Seed       int64       `json:"seed"`
	Variants   int         `json:"variants"`
	Violations []Violation `json:"violations,omitempty"`
}

// buildCrashFleet deterministically builds the crash fleet for a seed.
// Called once per crash variant: each resume happens on a fresh fleet,
// modeling the restarted process rebuilding its view of the hosts.
func buildCrashFleet(seed int64) (*fleet.Manager, map[string]int, error) {
	mgr := fleet.NewManager()
	expected := map[string]int{}
	for i := 0; i < crashHosts; i++ {
		spec := Generate(CaseSeed(seed, crashSeedBase+i))
		c, err := Build(spec)
		if err != nil {
			return nil, nil, err
		}
		host := fmt.Sprintf("crash-%03d", i)
		mgr.Add(host, c.M)
		expected[host] = c.Expect.HiddenTotal()
	}
	return mgr, expected, nil
}

// crashVariant is one way to wreck the reference journal before resume.
type crashVariant struct {
	name string
	// keep is how many records survive the simulated kill, as an offset
	// into the reference journal; negative counts from the end.
	keep int
	// torn leaves a partial record after the kept ones.
	torn bool
	// corrupt, when set, damages the journal file instead of truncating.
	corrupt faultinject.Kind
	// wantResumeError: the resume itself must fail loudly.
	wantResumeError bool
}

func crashVariants() []crashVariant {
	return []crashVariant{
		// Kill before any host ran: resume re-runs the whole fleet.
		{name: "kill@sched", keep: 1 + crashHosts},
		// Kill mid-sweep: one host committed, one in flight, one unvisited.
		{name: "kill@mid", keep: 1 + crashHosts + 3},
		// Kill after the last host started but before it committed.
		{name: "kill@last", keep: -1},
		// The kill tore the final record in half: recoverable, resumable.
		{name: "torn", keep: 1 + crashHosts + 3, torn: true},
		// A bit rotted inside the journal body: resume must refuse it.
		{name: "flip", corrupt: faultinject.KindFlip, wantResumeError: true},
	}
}

// RunCrashResume runs the crash-resume oracle for one seed. The only
// I/O is journal files under a private temp directory, removed before
// return; the summary is deterministic.
func RunCrashResume(seed int64) (*CrashSummary, error) {
	s := &CrashSummary{Seed: seed}
	dir, err := os.MkdirTemp("", "ghostfuzz-crash-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	refMgr, expected, err := buildCrashFleet(seed)
	if err != nil {
		return nil, err
	}
	refPath := filepath.Join(dir, "reference.gbj")
	ref, err := sweepReport(refMgr, refPath, fleet.ModeFresh)
	if err != nil {
		return nil, fmt.Errorf("ghostfuzz: reference sweep: %w", err)
	}
	if err := ref.Verify(); err != nil {
		s.Violations = append(s.Violations, Violation{InvDurability, "crash/reference", err.Error()})
		return s, nil
	}
	for host, want := range expected {
		if want > 0 && !hostResult(ref, host).Infected {
			s.Violations = append(s.Violations, Violation{InvCoverage, "crash/reference",
				fmt.Sprintf("host %s not reported infected (planted %d)", host, want)})
		}
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		return nil, err
	}
	refRecords, _, err := journal.Read(refPath)
	if err != nil {
		return nil, err
	}

	for _, v := range crashVariants() {
		s.Variants++
		mode := "crash/" + v.name
		path := filepath.Join(dir, v.name+".gbj")
		if err := os.WriteFile(path, refBytes, 0o644); err != nil {
			return nil, err
		}
		if v.corrupt != "" {
			if err := journal.Corrupt(path, v.corrupt, seed); err != nil {
				return nil, err
			}
		} else {
			keep := v.keep
			if keep < 0 {
				keep = len(refRecords) + keep
			}
			if _, err := journal.TruncateRecords(path, keep, v.torn); err != nil {
				return nil, err
			}
		}

		mgr, _, err := buildCrashFleet(seed)
		if err != nil {
			return nil, err
		}
		resumed, err := sweepReport(mgr, path, fleet.ModeResume)
		if v.wantResumeError {
			if err == nil {
				s.Violations = append(s.Violations, Violation{InvDurability, mode,
					"damaged journal resumed without error"})
			}
			continue
		}
		if err != nil {
			s.Violations = append(s.Violations, Violation{InvDurability, mode,
				fmt.Sprintf("resume failed: %v", err)})
			continue
		}
		s.Violations = append(s.Violations, checkResumed(mode, ref, resumed, path)...)
	}
	return s, nil
}

// sweepReport runs one journaled single-worker sweep and seals its
// report.
func sweepReport(mgr *fleet.Manager, path string, mode fleet.Mode) (*fleet.Report, error) {
	col := fleet.NewCollector(mgr)
	sum, err := mgr.Run(context.Background(), fleet.Plan{Workers: 1, Journal: path, Mode: mode, Sink: col.Add})
	if err != nil {
		return nil, err
	}
	return col.Report(sum), nil
}

// checkResumed compares a resumed sweep against the uninterrupted
// reference and audits the final journal for double scans.
func checkResumed(mode string, ref, resumed *fleet.Report, path string) []Violation {
	var out []Violation
	if err := resumed.Verify(); err != nil {
		out = append(out, Violation{InvDurability, mode, "resumed report: " + err.Error()})
	}
	if len(resumed.Results) != len(ref.Results) {
		out = append(out, Violation{InvDurability, mode,
			fmt.Sprintf("%d results after resume, reference has %d", len(resumed.Results), len(ref.Results))})
		return out
	}
	for i, hr := range resumed.Results {
		want := ref.Results[i]
		if hr.Host != want.Host || hr.Hash != want.Hash || hr.Infected != want.Infected {
			out = append(out, Violation{InvConsistency, mode,
				fmt.Sprintf("host %s diverged: hash %.12s vs %.12s, infected %v vs %v",
					want.Host, hr.Hash, want.Hash, hr.Infected, want.Infected)})
		}
	}
	if resumed.Digest != ref.Digest {
		out = append(out, Violation{InvDurability, mode,
			fmt.Sprintf("fleet digest %.12s != reference %.12s", resumed.Digest, ref.Digest)})
	}
	if qs := fmt.Sprint(resumed.Quarantined); qs != fmt.Sprint(ref.Quarantined) {
		out = append(out, Violation{InvDurability, mode,
			fmt.Sprintf("quarantine list %v != reference %v", resumed.Quarantined, ref.Quarantined)})
	}
	// The final journal must show each host committed exactly once, with
	// no attempt started after its terminal record — committed work is
	// never re-scanned.
	recs, dropped, err := journal.Read(path)
	if err != nil || dropped != 0 {
		out = append(out, Violation{InvDurability, mode,
			fmt.Sprintf("final journal unreadable: %v (dropped %d)", err, dropped)})
		return out
	}
	committed := map[string]bool{}
	for _, rec := range recs {
		switch {
		case rec.State == journal.StateRunning && committed[rec.Host]:
			out = append(out, Violation{InvDurability, mode,
				fmt.Sprintf("host %s re-scanned after its terminal record (seq %d)", rec.Host, rec.Seq)})
		case rec.State.Terminal():
			if committed[rec.Host] {
				out = append(out, Violation{InvDurability, mode,
					fmt.Sprintf("host %s committed twice (seq %d)", rec.Host, rec.Seq)})
			}
			committed[rec.Host] = true
		}
	}
	for _, hr := range ref.Results {
		if !committed[hr.Host] {
			out = append(out, Violation{InvDurability, mode,
				fmt.Sprintf("host %s has no terminal record after resume", hr.Host)})
		}
	}
	return out
}

func hostResult(r *fleet.Report, host string) fleet.HostResult {
	for _, hr := range r.Results {
		if hr.Host == host {
			return hr
		}
	}
	return fleet.HostResult{}
}
