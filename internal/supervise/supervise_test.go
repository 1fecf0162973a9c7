package supervise

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestWatchdogFiresOnceAfterSilence(t *testing.T) {
	s := New(Policy{Deadline: 10 * time.Millisecond, Misses: 3})
	fired := 0
	s.Watch("shard-0", func() { fired++ })

	base := time.Now()
	if got := s.Check(base.Add(15 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("wedged too early: %v", got)
	}
	got := s.Check(base.Add(time.Second))
	if len(got) != 1 || got[0] != "shard-0" {
		t.Fatalf("Check = %v, want [shard-0]", got)
	}
	if fired != 1 {
		t.Fatalf("onWedge fired %d times, want 1", fired)
	}
	// A second check must not re-fire the same watch.
	if got := s.Check(base.Add(time.Hour)); len(got) != 0 {
		t.Fatalf("re-fired wedged watch: %v", got)
	}
	if fired != 1 {
		t.Fatalf("onWedge fired %d times after re-check, want 1", fired)
	}
	st := s.Stats()
	if st.Wedged != 1 || st.Watching != 0 {
		t.Fatalf("Stats = %+v, want Wedged=1 Watching=0", st)
	}
}

func TestWatchdogBeatsKeepWatchAlive(t *testing.T) {
	s := New(Policy{Deadline: 20 * time.Millisecond, Misses: 2})
	s.Watch("shard-1", func() { t.Error("healthy watch wedged") })
	for i := 0; i < 5; i++ {
		s.Beat("shard-1")
		if got := s.Check(time.Now().Add(30 * time.Millisecond)); len(got) != 0 {
			t.Fatalf("beating watch wedged: %v", got)
		}
	}
	s.Done("shard-1")
	// Done watches never wedge, however long the silence.
	if got := s.Check(time.Now().Add(time.Hour)); len(got) != 0 {
		t.Fatalf("done watch wedged: %v", got)
	}
	if b := s.Stats().Beats; b != 5 {
		t.Fatalf("Beats = %d, want 5", b)
	}
}

func TestWatchdogLateBeatDoesNotResurrect(t *testing.T) {
	s := New(Policy{Deadline: time.Millisecond})
	s.Watch("w", nil)
	if got := s.Check(time.Now().Add(time.Second)); len(got) != 1 {
		t.Fatalf("Check = %v, want one wedge", got)
	}
	s.Beat("w") // late beat from the cancelled worker
	if got := s.Check(time.Now().Add(2 * time.Second)); len(got) != 0 {
		t.Fatalf("late beat resurrected wedged watch: %v", got)
	}
}

func TestDisabledPolicyIsInert(t *testing.T) {
	s := New(Policy{})
	s.Watch("x", func() { t.Error("disabled supervisor fired") })
	s.Beat("x")
	if got := s.Check(time.Now().Add(time.Hour)); got != nil {
		t.Fatalf("disabled Check = %v, want nil", got)
	}
	s.Start() // no-op
	s.Stop()
	s.Done("x")
}

func TestBackgroundTickerDetectsWedge(t *testing.T) {
	s := New(Policy{Deadline: 5 * time.Millisecond, Misses: 2})
	wedged := make(chan struct{})
	s.Watch("bg", func() { close(wedged) })
	s.Start()
	defer s.Stop()
	select {
	case <-wedged:
	case <-time.After(5 * time.Second):
		t.Fatal("background ticker never detected the wedge")
	}
}

func TestPolicyTimeoutTotal(t *testing.T) {
	if got := (Policy{Deadline: time.Second}).TimeoutTotal(); got != time.Second {
		t.Fatalf("TimeoutTotal misses=0 = %v, want 1s", got)
	}
	if got := (Policy{Deadline: time.Second, Misses: 3}).TimeoutTotal(); got != 3*time.Second {
		t.Fatalf("TimeoutTotal misses=3 = %v, want 3s", got)
	}
}

func TestQuantileTrackerThreshold(t *testing.T) {
	tr := &QuantileTracker{Multiplier: 2, MinSamples: 3}
	if th := tr.Threshold(); th != 0 {
		t.Fatalf("threshold with no samples = %v, want 0", th)
	}
	tr.Observe(10 * time.Millisecond)
	tr.Observe(20 * time.Millisecond)
	if th := tr.Threshold(); th != 0 {
		t.Fatalf("threshold below MinSamples = %v, want 0", th)
	}
	tr.Observe(30 * time.Millisecond)
	// median of {10,20,30}ms is 20ms; ×2 = 40ms.
	if th := tr.Threshold(); th != 40*time.Millisecond {
		t.Fatalf("threshold = %v, want 40ms", th)
	}
	if n := tr.Samples(); n != 3 {
		t.Fatalf("Samples = %d, want 3", n)
	}
}

func TestQuantileTrackerFloorAndDefaults(t *testing.T) {
	tr := &QuantileTracker{Floor: time.Second} // defaults: median ×2, 3 samples
	for i := 0; i < 10; i++ {
		tr.Observe(time.Millisecond)
	}
	if th := tr.Threshold(); th != time.Second {
		t.Fatalf("floored threshold = %v, want 1s", th)
	}
	tr2 := &QuantileTracker{}
	tr2.Observe(-5) // clamped to 0
	for i := 0; i < 4; i++ {
		tr2.Observe(100 * time.Millisecond)
	}
	if th := tr2.Threshold(); th != 200*time.Millisecond {
		t.Fatalf("default threshold = %v, want 200ms", th)
	}
}

func TestQuantileTrackerWindowSlides(t *testing.T) {
	tr := &QuantileTracker{Multiplier: 1, MinSamples: 1}
	for i := 0; i < trackerCap; i++ {
		tr.Observe(time.Hour) // ancient slow samples
	}
	for i := 0; i < trackerCap; i++ {
		tr.Observe(10 * time.Millisecond) // the fleet sped up
	}
	if th := tr.Threshold(); th != 10*time.Millisecond {
		t.Fatalf("threshold after window slide = %v, want 10ms", th)
	}
}

func TestAdmissionSlotsAndQueue(t *testing.T) {
	a := NewAdmission(1, 1)
	rel1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Second caller parks in the queue.
	acquired := make(chan func(), 1)
	go func() {
		rel, err := a.Acquire(context.Background())
		if err != nil {
			t.Errorf("queued acquire: %v", err)
		}
		acquired <- rel
	}()
	waitForWaiting(t, a, 1)

	// Third caller overflows the queue: shed immediately.
	if _, err := a.Acquire(context.Background()); err != ErrSaturated {
		t.Fatalf("overflow acquire err = %v, want ErrSaturated", err)
	}
	if ra := a.RetryAfter(); ra < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", ra)
	}

	rel1()
	rel2 := <-acquired
	rel2()

	st := a.Stats()
	if st.Admitted != 2 || st.Shed != 1 || st.Active != 0 || st.Waiting != 0 {
		t.Fatalf("Stats = %+v, want Admitted=2 Shed=1 Active=0 Waiting=0", st)
	}
}

func TestAdmissionContextDeadline(t *testing.T) {
	a := NewAdmission(1, 4)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer rel()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued acquire err = %v, want DeadlineExceeded", err)
	}
	if st := a.Stats(); st.TimedOut != 1 || st.Waiting != 0 {
		t.Fatalf("Stats = %+v, want TimedOut=1 Waiting=0", st)
	}
}

func TestAdmissionDrain(t *testing.T) {
	a := NewAdmission(1, 4)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	errs := make(chan error, 1)
	go func() {
		_, err := a.Acquire(context.Background())
		errs <- err
	}()
	waitForWaiting(t, a, 1)

	a.Drain()
	if err := <-errs; err != ErrDraining {
		t.Fatalf("queued acquire after drain = %v, want ErrDraining", err)
	}
	if _, err := a.Acquire(context.Background()); err != ErrDraining {
		t.Fatalf("new acquire after drain = %v, want ErrDraining", err)
	}
	if a.Ready() {
		t.Fatal("draining gate reports Ready")
	}
	if !a.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	rel() // releasing an already-admitted request still works
}

func TestAdmissionConcurrentChurn(t *testing.T) {
	a := NewAdmission(2, 8)
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted, shed := 0, 0
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := a.Acquire(context.Background())
			mu.Lock()
			if err != nil {
				shed++
			} else {
				admitted++
			}
			mu.Unlock()
			if err == nil {
				time.Sleep(time.Millisecond)
				rel()
			}
		}()
	}
	wg.Wait()
	if admitted == 0 {
		t.Fatal("no requests admitted")
	}
	if st := a.Stats(); st.Active != 0 || st.Waiting != 0 {
		t.Fatalf("gate not drained after churn: %+v", st)
	}
	if !a.Ready() {
		t.Fatal("idle gate not Ready")
	}
}

func waitForWaiting(t *testing.T, a *Admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Waiting < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}
