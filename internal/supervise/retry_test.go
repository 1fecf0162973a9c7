package supervise

import (
	"testing"
	"time"
)

// walk drives a Retrier through failing attempts until it stops
// retrying, returning every wait it charged and its final verdict.
func walk(p RetryPolicy, tag uint64, failed bool) ([]time.Duration, Verdict) {
	r := p.Begin(tag, 0, 0)
	var waits []time.Duration
	for {
		r.Next()
		v, wait := r.After(false, failed)
		if v != Retry {
			return waits, v
		}
		waits = append(waits, wait)
	}
}

// TestRetryPolicySaturatesAtCap: doubling stops exactly at
// MaxRetryBackoff, so a huge MaxRetries never overflows time.Duration
// into a negative wait, and a configured first wait above the cap is
// clamped, not honored.
func TestRetryPolicySaturatesAtCap(t *testing.T) {
	waits, v := walk(RetryPolicy{MaxRetries: 200}, 0, true)
	if v != Stand || len(waits) != 200 {
		t.Fatalf("verdict %v after %d waits, want Stand after 200", v, len(waits))
	}
	if waits[0] != DefaultRetryBackoff || waits[1] != 2*DefaultRetryBackoff {
		t.Errorf("first waits %v, %v; want %v doubling", waits[0], waits[1], DefaultRetryBackoff)
	}
	for i, w := range waits {
		if w <= 0 || w > MaxRetryBackoff {
			t.Fatalf("wait %d escaped (0, %v]: %v", i, MaxRetryBackoff, w)
		}
	}
	if last := waits[len(waits)-1]; last != MaxRetryBackoff {
		t.Errorf("backoff saturated at %v, want %v", last, MaxRetryBackoff)
	}
	if waits, _ := walk(RetryPolicy{MaxRetries: 1, Backoff: 48 * time.Hour}, 0, true); waits[0] != MaxRetryBackoff {
		t.Errorf("48h first wait = %v, want cap %v", waits[0], MaxRetryBackoff)
	}
}

// TestRetryPolicyJitterDeterministicBoundedCapped: full jitter is a pure
// function of (seed, tag, attempt) — same inputs, same wait — every
// jittered wait stays within [1, backoff], the saturation cap still
// binds, and seed zero is the exact doubling schedule.
func TestRetryPolicyJitterDeterministicBoundedCapped(t *testing.T) {
	p := RetryPolicy{MaxRetries: 3, Backoff: 32 * time.Second, JitterSeed: 42}
	a, _ := walk(p, 7, true)
	b, _ := walk(p, 7, true)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("wait %d: same (seed, tag) gave %v then %v", i, a[i], b[i])
		}
	}
	distinct := map[time.Duration]bool{}
	for tag := uint64(0); tag < 64; tag++ {
		waits, _ := walk(p, tag, true)
		if w := waits[0]; w < 1 || w > p.Backoff {
			t.Fatalf("jittered wait %v escaped [1, %v]", w, p.Backoff)
		}
		distinct[waits[0]] = true
	}
	if len(distinct) < 2 {
		t.Error("64 units drew identical jitter — the herd still thunders")
	}
	if w := jitter(48*time.Hour, 42, 1); w > MaxRetryBackoff {
		t.Errorf("jitter above the saturation cap: %v", w)
	}
	p.JitterSeed = 0
	if waits, _ := walk(p, 7, true); waits[0] != p.Backoff || waits[2] != 4*p.Backoff {
		t.Errorf("seed 0 changed the schedule: %v", waits)
	}
}

// TestRetryPolicyBreakerAndPriorHistory: the breaker counts consecutive
// hard failures (prior dangling attempts included) and wins over
// exhausted retries; a soft failure resets the count; success stands
// at once; attempt numbering continues after the prior attempts.
func TestRetryPolicyBreakerAndPriorHistory(t *testing.T) {
	p := RetryPolicy{MaxRetries: 5, BreakerThreshold: 3}
	if waits, v := walk(p, 0, true); v != Quarantine || len(waits) != 2 {
		t.Errorf("hard failures: verdict %v after %d waits, want Quarantine after 2", v, len(waits))
	}
	if waits, v := walk(p, 0, false); v != Stand || len(waits) != 5 {
		t.Errorf("soft failures: verdict %v after %d waits, want Stand after 5 (breaker never counts)", v, len(waits))
	}
	r := p.Begin(0, 4, 2)
	if n := r.Next(); n != 5 {
		t.Errorf("attempt after 4 prior = %d, want 5", n)
	}
	if v, _ := r.After(false, true); v != Quarantine {
		t.Errorf("2 dangling + 1 live failure = %v, want Quarantine at threshold 3", v)
	}
	r = p.Begin(0, 0, 2)
	r.Next()
	if v, w := r.After(true, false); v != Stand || w != 0 {
		t.Errorf("success = %v/%v, want Stand with no wait", v, w)
	}
	r = RetryPolicy{BreakerThreshold: 1}.Begin(0, 0, 0)
	r.Next()
	if v, _ := r.After(false, true); v != Quarantine {
		t.Errorf("breaker must win over exhausted retries, got %v", v)
	}
}
