package ghostfuzz

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/faultinject"
	"ghostbuster/internal/machine"
)

// TestDiffEnginesAgreeAcrossCorpus checks the columnar merge-join
// against referenceDiff, the paper's detection rule written as a plain
// set difference: for every spec in the committed corpus plus a spread
// of generated ones (clean, faulted, and mass-hiding), both must agree
// on every resource pair. The snapshots come through the public scan
// API (map adapters) and are re-encoded into one shared intern table
// for the merge-join.
func TestDiffEnginesAgreeAcrossCorpus(t *testing.T) {
	specs, err := LoadCorpus(filepath.Join("..", "..", "testdata", "ghostfuzz", "corpus"))
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		specs = append(specs, Generate(seed))
	}
	for seed := int64(1); seed <= 2; seed++ {
		specs = append(specs, GenerateFaulted(seed))
	}
	mass, err := ParseSpec("ghostfuzz-v1 seed=7 atoms=file@ssdt/2/all;ads/1/all;decoy@filter/120/utils")
	if err != nil {
		t.Fatalf("mass-hiding spec: %v", err)
	}
	specs = append(specs, mass)

	comparedPairs := 0
	for _, spec := range specs {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			c, err := Build(spec)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if len(spec.Faults) > 0 {
				// Armed faults exercise the engines over degraded inputs
				// (skipped targets, partial views). Scans that error under
				// a fault are skipped — there is nothing to diff.
				inj, err := faultinject.New(c.M, faultinject.Plan{Seed: spec.Seed, Faults: spec.Faults})
				if err != nil {
					t.Fatalf("fault plan: %v", err)
				}
				inj.Arm()
			}
			comparedPairs += diffAllPairsAgainstReference(t, c.M)
		})
	}
	if comparedPairs == 0 {
		t.Fatal("reference check compared no snapshot pairs")
	}
	t.Logf("compared %d snapshot pairs across %d specs", comparedPairs, len(specs))
}

// diffAllPairsAgainstReference gathers the four resource snapshot
// pairs via the public scan API and checks the merge-join against the
// reference on each; returns how many pairs were actually compared.
func diffAllPairsAgainstReference(t *testing.T, m *machine.Machine) int {
	t.Helper()
	call := m.SystemCall()
	type pair struct {
		name      string
		high, low func() (*core.Snapshot, error)
	}
	pids, pidsErr := core.TruthPids(m)
	// A pid with no process behind it (one that exited before the scan):
	// both module scans skip and count it, so the skipped counts are
	// compared nonzero.
	pids = append(pids, 99991)
	pairs := []pair{
		{"files",
			func() (*core.Snapshot, error) { return core.ScanFilesHigh(m, call) },
			func() (*core.Snapshot, error) { return core.ScanFilesLow(m) }},
		{"ASEPs",
			func() (*core.Snapshot, error) { return core.ScanASEPHigh(m, call) },
			func() (*core.Snapshot, error) {
				c, err := core.ScanASEPLowC(m, m.Clock, core.NewInternTable())
				if err != nil {
					return nil, err
				}
				return c.Snapshot(), nil
			}},
		{"processes",
			func() (*core.Snapshot, error) { return core.ScanProcsHigh(m, call) },
			func() (*core.Snapshot, error) { return core.ScanProcsLow(m, true) }},
		{"modules",
			func() (*core.Snapshot, error) {
				if pidsErr != nil {
					return nil, pidsErr
				}
				return core.ScanModsHigh(m, call, pids)
			},
			func() (*core.Snapshot, error) {
				if pidsErr != nil {
					return nil, pidsErr
				}
				return core.ScanModsLow(m, pids)
			}},
	}
	opts := core.DiffOptions{NoiseFilters: core.BaselineNoiseFilters()}
	compared := 0
	for _, p := range pairs {
		high, err := p.high()
		if err != nil {
			t.Logf("%s: high scan skipped under fault: %v", p.name, err)
			continue
		}
		low, err := p.low()
		if err != nil {
			t.Logf("%s: low scan skipped under fault: %v", p.name, err)
			continue
		}
		tab := core.NewInternTable()
		got, err := core.DiffColumnar(core.SnapshotColumnar(high, tab), core.SnapshotColumnar(low, tab), opts)
		if err != nil {
			t.Fatalf("%s: columnar diff: %v", p.name, err)
		}
		if msg := checkAgainstReference(got, high, low, opts); msg != "" {
			t.Errorf("%s: %s", p.name, msg)
		}
		compared++
	}
	return compared
}

// referenceDiff is the detection rule by definition, over two keyed
// entry sets: what the truth (low) view holds and the high view lacks
// is hidden — or noise, when a filter claims it — and what only the
// high view holds is phantom. Each finding carries its own side's
// display and detail, in ID order.
func referenceDiff(high, low *core.Snapshot) (hiddenOrNoise, phantom []core.Finding) {
	only := func(in, notIn *core.Snapshot) []core.Finding {
		var out []core.Finding
		for id, e := range in.Entries {
			if _, ok := notIn.Entries[id]; !ok {
				out = append(out, core.Finding{Kind: in.Kind, ID: id, Display: e.Display, Detail: e.Detail})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	return only(low, high), only(high, low)
}

// checkAgainstReference returns why got disagrees with referenceDiff,
// or "" when it agrees: the finding sets, the noise split, the skipped
// counts and the mass-hiding flag.
func checkAgainstReference(got *core.Report, high, low *core.Snapshot, opts core.DiffOptions) string {
	wantHidden, wantPhantom := referenceDiff(high, low)
	var claimed []core.Finding
	filters := map[string]bool{}
	for _, nf := range opts.NoiseFilters {
		filters[nf.Name] = true
	}
	for _, f := range got.Noise {
		if !f.Noise || !filters[f.Reason] {
			return fmt.Sprintf("noise finding %s not claimed by a filter (reason %q)", f.ID, f.Reason)
		}
		f.Noise, f.Reason = false, ""
		claimed = append(claimed, f)
	}
	gotHidden := append(append([]core.Finding(nil), got.Hidden...), claimed...)
	sort.Slice(gotHidden, func(i, j int) bool { return gotHidden[i].ID < gotHidden[j].ID })
	switch {
	case !reflect.DeepEqual(gotHidden, wantHidden):
		return fmt.Sprintf("hidden+noise = %v, want low\\high = %v", gotHidden, wantHidden)
	case !reflect.DeepEqual(got.Phantom, wantPhantom):
		return fmt.Sprintf("phantom = %v, want high\\low = %v", got.Phantom, wantPhantom)
	case got.HighSkipped != high.Skipped || got.LowSkipped != low.Skipped:
		return fmt.Sprintf("skipped = %d/%d, want %d/%d", got.HighSkipped, got.LowSkipped, high.Skipped, low.Skipped)
	case (len(got.Hidden) > core.DefaultMassHidingThreshold) != (got.MassHiding != nil):
		return fmt.Sprintf("mass-hiding flag %v with %d hidden", got.MassHiding, len(got.Hidden))
	}
	return ""
}
