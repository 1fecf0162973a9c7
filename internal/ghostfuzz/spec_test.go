package ghostfuzz

import (
	"reflect"
	"strconv"
	"testing"
)

// TestParseSpecBoundsAtomCount: a hostile count would make Build
// allocate without bound, so the parser caps it at MaxAtomCount — well
// above anything the generator or the corpus emits.
func TestParseSpecBoundsAtomCount(t *testing.T) {
	if MaxAtomCount < 4*124 {
		t.Fatalf("MaxAtomCount %d is not well above the generator's maximum count 124", MaxAtomCount)
	}
	for _, count := range []int{MaxAtomCount + 1, 2000000000} {
		line := "ghostfuzz-v1 seed=1 atoms=decoy@filter/" + strconv.Itoa(count) + "/all"
		if _, err := ParseSpec(line); err == nil {
			t.Errorf("ParseSpec accepted %q", line)
		}
	}
	line := "ghostfuzz-v1 seed=1 atoms=decoy@filter/" + strconv.Itoa(MaxAtomCount) + "/all"
	if _, err := ParseSpec(line); err != nil {
		t.Errorf("ParseSpec rejected the largest legal count: %v", err)
	}
}

// FuzzParseSpec: no spec line panics the parser, and every line it
// accepts re-parses from its String form to an equal spec. Seeded with
// the regression corpus.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		spec, err := ParseSpec(line)
		if err != nil {
			return
		}
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("accepted %q, but its String form %q does not parse: %v", line, spec, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip of %q changed the spec:\n in: %+v\nout: %+v", line, spec, back)
		}
	})
}
