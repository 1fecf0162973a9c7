package supervise

import (
	"fmt"
	"time"

	"ghostbuster/internal/faultinject"
)

// DefaultRetryBackoff is the first retry wait when a policy leaves
// Backoff zero.
const DefaultRetryBackoff = 2 * time.Second

// MaxRetryBackoff caps every doubling retry wait. Without the cap a
// large MaxRetries overflows time.Duration (2s doubled 62 times goes
// negative) and a virtual clock advanced by the wait would run
// backwards.
const MaxRetryBackoff = 5 * time.Minute

// RetryPolicy is the one bounded-retry policy of the control plane:
// per-host scan attempts in fleet and per-shard sweep attempts in
// fleetshard both walk it through a Retrier, so the two levels cannot
// drift apart (a duplicated doubling rule is how a coordinator ends up
// with an uncapped wait that overflows time.Duration). Unlike the
// watchdog, waits here are virtual time: the caller charges them.
type RetryPolicy struct {
	// MaxRetries grants this many attempts beyond the first. Zero
	// retries nothing.
	MaxRetries int
	// Backoff is the wait before the first retry, doubling on each later
	// one and saturating at MaxRetryBackoff; zero means
	// DefaultRetryBackoff, and a larger value is clamped to the cap.
	Backoff time.Duration
	// BreakerThreshold opens the unit's circuit breaker after this many
	// consecutive failed attempts: the unit is quarantined instead of
	// retried. Zero disables the breaker.
	BreakerThreshold int
	// JitterSeed, when nonzero, replaces each wait with a deterministic
	// full-jitter sample in [1, wait] drawn from (seed, unit tag, attempt
	// number), so units that failed together do not retry in lockstep.
	// The doubling schedule still bounds every wait. Zero keeps the exact
	// doubling schedule.
	JitterSeed int64
}

// Verdict is a Retrier's decision after one attempt.
type Verdict int

const (
	// Stand: the attempt's outcome is final — it succeeded, or the
	// retries are spent.
	Stand Verdict = iota
	// Retry: charge the returned wait, then run another attempt.
	Retry
	// Quarantine: the circuit breaker opened; stop retrying the unit.
	Quarantine
)

// Retrier walks one unit (a host, a shard) through a RetryPolicy.
type Retrier struct {
	p       RetryPolicy
	tag     uint64
	attempt int           // last attempt number handed out, prior ones included
	local   int           // attempts run under this Retrier
	failed  int           // consecutive failed attempts
	wait    time.Duration // next wait before jitter
}

// Begin starts a unit's attempts. tag tells units apart in the jitter
// mixer. priorAttempts and priorFailed carry journaled history across a
// crash: attempt numbering continues after priorAttempts, and the
// breaker counts priorFailed dangling attempts as failures.
func (p RetryPolicy) Begin(tag uint64, priorAttempts, priorFailed int) *Retrier {
	wait := p.Backoff
	if wait <= 0 {
		wait = DefaultRetryBackoff
	}
	if wait > MaxRetryBackoff {
		wait = MaxRetryBackoff
	}
	return &Retrier{p: p, tag: tag, attempt: priorAttempts, failed: priorFailed, wait: wait}
}

// Next numbers the attempt about to run.
func (r *Retrier) Next() int {
	r.attempt++
	r.local++
	return r.attempt
}

// After judges the attempt just run. ok means it fully succeeded;
// failed means a hard failure, which the breaker counts (a soft,
// retryable outcome such as a degraded scan resets the count). On Retry
// it returns the wait to charge before the next attempt.
func (r *Retrier) After(ok, failed bool) (Verdict, time.Duration) {
	if failed {
		r.failed++
	} else {
		r.failed = 0
	}
	if ok {
		return Stand, 0
	}
	if t := r.p.BreakerThreshold; t > 0 && r.failed >= t {
		return Quarantine, 0
	}
	if r.local > r.p.MaxRetries {
		return Stand, 0
	}
	wait := r.wait
	if r.p.JitterSeed != 0 {
		wait = jitter(wait, r.p.JitterSeed, r.tag, uint64(r.attempt))
	}
	r.wait = nextBackoff(r.wait)
	return Retry, wait
}

// nextBackoff doubles a retry wait, saturating at MaxRetryBackoff.
func nextBackoff(cur time.Duration) time.Duration {
	if cur >= MaxRetryBackoff/2 {
		return MaxRetryBackoff
	}
	return cur * 2
}

// jitter maps a deterministic wait to its full-jitter form: a uniform
// sample in [1, cur] from the shared splitmix64 mixer over (seed, tags).
// The cap still binds; seed 0 returns cur unchanged.
func jitter(cur time.Duration, seed int64, tags ...uint64) time.Duration {
	if cur > MaxRetryBackoff {
		cur = MaxRetryBackoff
	}
	if seed == 0 || cur <= 1 {
		return cur
	}
	return 1 + time.Duration(faultinject.Mix(seed, tags...)%uint64(cur))
}

// ErrorBudget is the fleet sweep's error-budget rule: a sweep aborts
// once more than Fraction of its hosts have failed. Zero Fraction
// disables it.
type ErrorBudget struct {
	Fraction float64
	Total    int
}

// Exceeded returns the abort reason once failed hosts overspend the
// budget, and "" while they do not.
func (b ErrorBudget) Exceeded(failed int) string {
	if b.Fraction <= 0 || float64(failed) <= b.Fraction*float64(b.Total) {
		return ""
	}
	return fmt.Sprintf("error budget exceeded: %d of %d hosts failed (budget %.0f%%) — aborting sweep",
		failed, b.Total, b.Fraction*100)
}
