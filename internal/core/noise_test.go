package core

import "testing"

// Reboot-churn paths can reach a diff in Win32-denormalized form: mixed
// case from an alternate enumeration path, or a trailing dot/space the
// Win32 layer would strip. These variants name the same object as the
// canonical path, so the noise filters must classify them identically —
// the finding goes to Noise, never to Hidden, and never to both.

func classify(t *testing.T, filters []NoiseFilter, id string) (string, bool) {
	t.Helper()
	return matchNoise(filters, Finding{Kind: KindFiles, ID: id})
}

func TestNoiseFiltersTrailingDotVariants(t *testing.T) {
	filters := StandardNoiseFilters()
	cases := []struct {
		id, want string
	}{
		{`C:\WINDOWS\PREFETCH\APP-123.PF`, "OS prefetch"},
		{`C:\WINDOWS\PREFETCH\APP-123.PF.`, "OS prefetch"},
		{`C:\WINDOWS\PREFETCH\APP-123.PF. `, "OS prefetch"},
		{`C:\WINDOWS\SYSTEM32\LOGS\RT-0001.LOG.`, "service log file"},
		{`C:\DOWNLOADS\SETUP.EXE:ZONE.IDENTIFIER`, "Zone.Identifier stream"},
		{`C:\SYSTEM VOLUME INFORMATION\SR-CHANGE.LOG `, "System Restore change log"},
	}
	for _, c := range cases {
		reason, benign := classify(t, filters, c.id)
		if !benign {
			t.Errorf("%q not classified as noise, want %q", c.id, c.want)
			continue
		}
		if reason != c.want {
			t.Errorf("%q classified as %q, want %q", c.id, reason, c.want)
		}
	}
}

func TestNoiseFiltersCaseVariants(t *testing.T) {
	filters := StandardNoiseFilters()
	// IDs are canonically uppercase; a mixed-case variant of the same
	// path must classify identically rather than surfacing as Hidden.
	for _, id := range []string{
		`C:\Windows\Prefetch\App-123.pf`,
		`c:\windows\ccm\inv-0003.xml`,
		`C:\Documents and Settings\user\Local Settings\Temporary Internet Files\ad.gif`,
	} {
		if _, benign := classify(t, filters, id); !benign {
			t.Errorf("mixed-case churn path %q not classified as noise", id)
		}
	}
}

func TestNoiseVariantNotDoubleReported(t *testing.T) {
	// A churn file enumerated with a trailing dot on the truth side must
	// land in Noise (once), not in Hidden — and certainly not in both.
	const id = `C:\WINDOWS\PREFETCH\NOTEPAD.EXE-AB12.PF.`
	tab := NewInternTable()
	high := snapOf(tab, KindFiles, ViewWin32Inside)
	low := snapOf(tab, KindFiles, ViewRawMFT, id)
	r, err := DiffColumnar(high, low, DiffOptions{NoiseFilters: StandardNoiseFilters()})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hidden) != 0 {
		t.Errorf("trailing-dot churn variant reported Hidden: %+v", r.Hidden)
	}
	if len(r.Noise) != 1 {
		t.Fatalf("noise findings = %d, want 1: %+v", len(r.Noise), r.Noise)
	}
	if r.Noise[0].ID != id {
		t.Errorf("noise finding ID rewritten to %q; reports must keep the raw ID", r.Noise[0].ID)
	}
	if r.Infected() {
		t.Error("filtered churn variant still marks the machine infected")
	}
}

func TestNoiseNormalizationDoesNotHideRealFindings(t *testing.T) {
	filters := StandardNoiseFilters()
	// Genuinely suspicious paths — including Win32 name tricks outside
	// the churn directories — must stay un-filtered.
	for _, id := range []string{
		`C:\WINDOWS\SYSTEM32\WINCFG.`,
		`C:\WINDOWS\SYSTEM32\UPDATE `,
		`C:\WINDOWS\SYSTEM32\HXDEF.EXE`,
	} {
		if reason, benign := classify(t, filters, id); benign {
			t.Errorf("%q wrongly classified as noise (%s)", id, reason)
		}
	}
}
