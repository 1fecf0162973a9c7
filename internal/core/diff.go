package core

import (
	"fmt"
	"slices"
	"time"
)

// DefaultMassHidingThreshold is the hidden-entry count above which a
// report flags a mass-hiding anomaly.
const DefaultMassHidingThreshold = 100

// DiffOptions tunes the cross-view comparison.
type DiffOptions struct {
	// NoiseFilters classify hidden-side findings as known-benign churn.
	NoiseFilters []NoiseFilter
	// MassHidingThreshold overrides DefaultMassHidingThreshold; zero
	// keeps the default, negative disables the anomaly check.
	MassHidingThreshold int
}

// DiffColumnar compares a high-level (possibly lied-to) snapshot with a
// low-level or outside (truth) snapshot of the same resource kind:
// entries present only in the truth view are hidden resources, entries
// present only in the high view are phantoms. It is a sorted merge-join
// over the two snapshots' interned-ID columns, so both snapshots must
// index the same InternTable — every snapshot one detector or one
// outside-the-box check builds does. Snapshots from different tables
// have incomparable symbol orders and are refused.
func DiffColumnar(high, low *ColumnarSnapshot, opts DiffOptions) (*Report, error) {
	if err := checkPair(high, low); err != nil {
		return nil, err
	}
	r := &Report{}
	diffColumnarInto(r, high, low, opts)
	return r, nil
}

// DiffColumnarInto is DiffColumnar reusing the caller's report: the
// finding slices keep their backing arrays, so a warm incremental diff
// of an unchanged volume — the every-sweep fleet case — allocates
// nothing (pinned by TestWarmColumnarDiffZeroAlloc). The report must
// not be retained elsewhere; callers that publish reports use
// DiffColumnar.
func DiffColumnarInto(r *Report, high, low *ColumnarSnapshot, opts DiffOptions) error {
	if err := checkPair(high, low); err != nil {
		return err
	}
	hidden, noise, phantom := r.Hidden[:0], r.Noise[:0], r.Phantom[:0]
	*r = Report{Hidden: hidden, Noise: noise, Phantom: phantom}
	diffColumnarInto(r, high, low, opts)
	if len(r.Hidden) == 0 {
		r.Hidden = nil
	}
	if len(r.Noise) == 0 {
		r.Noise = nil
	}
	if len(r.Phantom) == 0 {
		r.Phantom = nil
	}
	return nil
}

// checkPair refuses a pair the merge-join cannot compare.
func checkPair(high, low *ColumnarSnapshot) error {
	if high.Kind != low.Kind {
		return fmt.Errorf("core: diffing %v against %v", high.Kind, low.Kind)
	}
	if high.table != low.table {
		return fmt.Errorf("core: diffing snapshots from different intern tables")
	}
	return nil
}

// diffColumnarInto merge-joins into r, which carries (possibly
// preallocated, length-zero) finding slices. Findings surface in symbol
// order and are re-sorted to canonical ID order afterwards, so the
// report does not depend on the order identities were interned in.
func diffColumnarInto(r *Report, high, low *ColumnarSnapshot, opts DiffOptions) {
	r.Kind = high.Kind
	r.HighView = high.View
	r.LowView = low.View
	r.HighSkipped = high.Skipped
	r.LowSkipped = low.Skipped
	strs := high.table.view()
	i, j := 0, 0
	for i < len(high.ids) && j < len(low.ids) {
		hs, ls := high.ids[i], low.ids[j]
		switch {
		case hs == ls:
			i++
			j++
		case hs < ls:
			r.Phantom = append(r.Phantom, Finding{Kind: high.Kind, ID: strs[hs], Display: high.displays[i], Detail: high.details[i]})
			i++
		default:
			classifyHidden(r, Finding{Kind: low.Kind, ID: strs[ls], Display: low.displays[j], Detail: low.details[j]}, opts)
			j++
		}
	}
	for ; i < len(high.ids); i++ {
		sym := high.ids[i]
		r.Phantom = append(r.Phantom, Finding{Kind: high.Kind, ID: strs[sym], Display: high.displays[i], Detail: high.details[i]})
	}
	for ; j < len(low.ids); j++ {
		sym := low.ids[j]
		classifyHidden(r, Finding{Kind: low.Kind, ID: strs[sym], Display: low.displays[j], Detail: low.details[j]}, opts)
	}
	sortFindings(r.Hidden)
	sortFindings(r.Noise)
	sortFindings(r.Phantom)
	finishReport(r, high.Elapsed+low.Elapsed, high.Len()+low.Len(), opts)
}

// classifyHidden routes one truth-only finding to Hidden or Noise.
func classifyHidden(r *Report, f Finding, opts DiffOptions) {
	if reason, benign := matchNoise(opts.NoiseFilters, f); benign {
		f.Noise = true
		f.Reason = reason
		r.Noise = append(r.Noise, f)
		return
	}
	r.Hidden = append(r.Hidden, f)
}

// finishReport applies the report tail: the virtual-time charge and the
// mass-hiding anomaly check.
func finishReport(r *Report, scanElapsed time.Duration, entries int, opts DiffOptions) {
	threshold := opts.MassHidingThreshold
	if threshold == 0 {
		threshold = DefaultMassHidingThreshold
	}
	r.Elapsed = scanElapsed + time.Duration(entries)*costDiffPerEntry
	if threshold > 0 && len(r.Hidden) > threshold {
		r.MassHiding = &MassHidingAnomaly{HiddenCount: len(r.Hidden), Threshold: threshold}
	}
}

// SealedDiffColumnar is DiffColumnar plus a digest seal — the form every
// emission path (detector scan methods, outside-the-box checks) uses.
// DiffColumnar itself stays unsealed for callers that diff in a loop.
func SealedDiffColumnar(high, low *ColumnarSnapshot, opts DiffOptions) (*Report, error) {
	r, err := DiffColumnar(high, low, opts)
	if err != nil {
		return nil, err
	}
	r.Seal()
	return r, nil
}

func sortFindings(fs []Finding) {
	// slices.SortFunc stays closure-allocation-free (unlike the old
	// sort.Slice form), so the common clean case costs nothing.
	slices.SortFunc(fs, func(a, b Finding) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
}
