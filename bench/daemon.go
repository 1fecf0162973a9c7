package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ghostbuster/internal/daemon"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/machine"
)

// sloLimit is the fixed detection limit daemon-delta reports misses of.
const sloLimit = 100 * time.Millisecond

// clean marks a host no mutation has infected.
const clean = math.MaxInt

// daemonBench is daemon-delta, and the harness the traced run's daemon
// probe reuses: a resident daemon over registered hosts, served by an
// in-process HTTP server, with one SSE connection reading /v1/results.
type daemonBench struct {
	sc    scale
	rng   *rand.Rand
	hosts []*machine.Machine
	index map[string]int
	// infectedFrom[i] is the first sweep whose scan of host i must
	// report it infected; clean while no mutation infected it.
	infectedFrom []int
	uninfected   []int // indices of hosts still clean

	state  string
	d      *daemon.Daemon
	srv    *httptest.Server
	client *http.Client // the poller's single connection
	sse    *sseStream
	nextID int // the id the daemon gives its next sweep
	muts   int // mutations applied so far
}

func setupDaemon(seed int64, sc scale, work string) (instance, error) {
	hosts := make([]*machine.Machine, sc.daemonHosts)
	for i := range hosts {
		m, err := smallHost(mix(seed, i))
		if err != nil {
			return nil, err
		}
		// The files mutations rewrite exist before the run: if a run's
		// first mutations created them instead, its first seconds would
		// be slower than the rest.
		for k := 0; k < deltaFiles; k++ {
			if err := m.DropFile(deltaFile(k), []byte("mutation 0")); err != nil {
				return nil, err
			}
		}
		hosts[i] = m
	}
	b, err := newDaemonBench(hosts, seed, sc, work)
	if err != nil {
		return nil, err
	}
	if len(b.uninfected) != len(hosts) {
		b.close()
		return nil, fmt.Errorf("baseline sweep found %d of %d clean hosts infected", len(hosts)-len(b.uninfected), len(hosts))
	}
	var warm tally
	if b.run(time.Duration(sc.daemonWarmup*float64(time.Second)), nil, &warm); warm.failed > 0 {
		b.close()
		return nil, fmt.Errorf("warm-up: %v", warm.failures)
	}
	return b, nil
}

// newDaemonBench registers the hosts with a fresh daemon, runs the
// baseline sweep that fills every host's cache, and connects the API
// clients. The baseline's verdicts are the starting truth the oracle
// tracks mutations from. It runs before the SSE connection opens, so
// its burst of results never queues behind a reader.
func newDaemonBench(hosts []*machine.Machine, seed int64, sc scale, work string) (*daemonBench, error) {
	state, err := os.MkdirTemp(work, "daemon-")
	if err != nil {
		return nil, err
	}
	d, err := daemon.New(daemon.Config{StateDir: state, Seed: seed})
	if err != nil {
		return nil, err
	}
	b := &daemonBench{
		sc: sc, rng: rand.New(rand.NewSource(seed)), hosts: hosts, index: map[string]int{},
		state: state, d: d,
	}
	for i, m := range hosts {
		if err := d.RegisterMachine(hostName(i), m); err != nil {
			return nil, err
		}
		b.index[hostName(i)] = i
	}
	info, err := d.Tick(time.Now())
	if err != nil {
		return nil, fmt.Errorf("baseline sweep: %w", err)
	}
	if info == nil || info.Scanned != len(hosts) {
		return nil, fmt.Errorf("baseline sweep scanned %+v", info)
	}
	infected := map[string]bool{}
	for _, h := range info.Infected {
		infected[h] = true
	}
	for i := range hosts {
		if infected[hostName(i)] {
			b.infectedFrom = append(b.infectedFrom, info.ID)
		} else {
			b.infectedFrom = append(b.infectedFrom, clean)
			b.uninfected = append(b.uninfected, i)
		}
	}
	b.nextID = info.ID + 1
	b.srv = httptest.NewServer(d.Handler())
	b.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	if b.sse, err = openSSE(b.srv.Client(), b.srv.URL+"/v1/results"); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *daemonBench) machines() []*machine.Machine { return b.hosts }

func (b *daemonBench) close() {
	if b.sse != nil {
		b.sse.close()
	}
	if b.srv != nil {
		b.srv.Close()
		b.client.CloseIdleConnections()
	}
	b.d.Shutdown()
	os.RemoveAll(b.state)
}

// mutation is one scheduled write to a host.
type mutation struct {
	due      time.Time
	host     int
	minSweep int // the first sweep that started after the write
	burst    bool
	err      error
}

// tick is one scheduler pass the mutation loop ran.
type tick struct {
	span        int // the tick's span id, parent of its result spans
	id          int // the sweep it ran
	start, stop time.Time
	scanned     int
	err         error
}

// mutate applies the next mutation: every daemonInfect-th one installs
// a file-hiding catalog program on a clean host, the rest rewrite a file
// on a random host. It returns the host it touched.
func (b *daemonBench) mutate() (int, error) {
	b.muts++
	if b.muts%b.sc.daemonInfect == 0 && len(b.uninfected) > 0 {
		j := b.rng.Intn(len(b.uninfected))
		i := b.uninfected[j]
		b.uninfected = append(b.uninfected[:j], b.uninfected[j+1:]...)
		corpus := ghostware.Fig3Corpus()
		b.infectedFrom[i] = b.nextID
		return i, corpus[b.rng.Intn(len(corpus))].Install(b.hosts[i])
	}
	i := b.rng.Intn(len(b.hosts))
	return i, b.drop(i)
}

// deltaFiles is how many files mutations rewrite on each host, so a
// host's MFT never outgrows its headroom however long the run.
const deltaFiles = 8

func deltaFile(k int) string { return fmt.Sprintf(`C:\bench\delta%d.txt`, k%deltaFiles) }

// drop rewrites one of the delta files on host i.
func (b *daemonBench) drop(i int) error {
	return b.hosts[i].DropFile(deltaFile(b.muts), []byte(fmt.Sprintf("mutation %d", b.muts)))
}

// tick runs one scheduler pass; it is only called with a host dirty.
func (b *daemonBench) tick(tr *tracer) tick {
	tk := tick{span: tr.newID(), start: time.Now()}
	info, err := b.d.Tick(tk.start)
	tk.stop, tk.err = time.Now(), err
	switch {
	case info != nil:
		tk.id, tk.scanned = info.ID, info.Scanned
		b.nextID = info.ID + 1
		tr.add(tk.span, "daemon.tick", 0, fmt.Sprintf("sweep-%d", info.ID), tk.start, tk.stop)
	case err == nil:
		tk.err = errors.New("tick swept nothing although a host was mutated")
	}
	return tk
}

// clock is the open loop's time source; tests substitute a fake one.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var realClock = clock{time.Now, time.Sleep}

// openLoop runs an open-loop schedule: op k is due at t0+due[k] whatever
// happened before it. While the next op is not yet due, work runs if it
// has anything to do (the mutation loop ticks); otherwise the loop sleeps
// until the due time. openLoop returns the generator's lateness: how long
// after its due time each op that followed a sleep started, which is the
// timer and scheduler slop of the generator itself. An op that came due
// while work ran starts late because the system under test was busy;
// that wait belongs to its latency, which runs from the due time.
func openLoop(c clock, t0 time.Time, due []time.Duration, fire func(k int, at time.Time), work func() bool) []time.Duration {
	var late []time.Duration
	slept := false
	for k := 0; k < len(due); {
		at := t0.Add(due[k])
		now := c.now()
		if now.Before(at) {
			if work != nil && work() {
				slept = false
				continue
			}
			c.sleep(at.Sub(now))
			slept = true
			continue
		}
		if slept {
			late = append(late, now.Sub(at))
			slept = false
		}
		fire(k, at)
		k++
	}
	return late
}

// schedule lays mutations evenly over dur: the steady rate for the first
// three quarters, the burst rate for the rest. burstFrom is the first burst
// mutation.
func schedule(dur time.Duration, steady, burst float64) (due []time.Duration, burstFrom int) {
	split := dur * 3 / 4
	for k := 0; ; k++ {
		t := time.Duration(float64(k) * float64(time.Second) / steady)
		if t >= split {
			break
		}
		due = append(due, t)
	}
	burstFrom = len(due)
	for k := 0; ; k++ {
		t := split + time.Duration(float64(k)*float64(time.Second)/burst)
		if t >= dur {
			break
		}
		due = append(due, t)
	}
	return due, burstFrom
}

// poll is one GET /v1/hosts.
type poll struct {
	due, stop time.Time
	err       error
}

func (b *daemonBench) run(dur time.Duration, tr *tracer, t *tally) *opStats {
	due, burstFrom := schedule(dur, b.sc.steadyRate, b.sc.burstRate)
	firstSweep := b.nextID
	before := b.d.Snapshot()
	var inproc *subscription
	if tr != nil {
		inproc = subscribe(b.d)
	}

	t0 := time.Now().Add(time.Millisecond)
	var polls []poll
	var pollLate []time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		interval := float64(time.Second) / b.sc.pollRate
		var pollDue []time.Duration
		for k := 0; time.Duration(float64(k)*interval) < dur; k++ {
			pollDue = append(pollDue, time.Duration(float64(k)*interval))
		}
		pollLate = openLoop(realClock, t0, pollDue, func(_ int, at time.Time) {
			err := b.getHosts()
			polls = append(polls, poll{due: at, stop: time.Now(), err: err})
		}, nil)
	}()

	muts := make([]mutation, len(due))
	var ticks []tick
	dirty := false
	late := openLoop(realClock, t0, due, func(k int, at time.Time) {
		host, err := b.mutate()
		muts[k] = mutation{due: at, host: host, minSweep: b.nextID, burst: k >= burstFrom, err: err}
		dirty = true
	}, func() bool {
		if !dirty {
			return false
		}
		ticks = append(ticks, b.tick(tr))
		dirty = false
		return true
	})
	if dirty {
		ticks = append(ticks, b.tick(tr))
	}
	wg.Wait()

	// Every sweep's events must reach the SSE reader before judging.
	if b.nextID > firstSweep {
		if err := b.sse.waitSweep(b.nextID-1, 10*time.Second); err != nil {
			t.check(err)
		}
	}
	if inproc != nil {
		inproc.close()
	}
	events := b.sse.since(firstSweep)
	st := b.judge(events, muts, ticks, t, tr)
	var api []time.Duration
	for _, p := range polls {
		t.check(p.err)
		api = append(api, p.stop.Sub(p.due))
	}
	st.extras["api_ms.p50"] = quantile(millis(api), 0.5)
	st.extras["api_ms.p99"] = quantile(millis(api), 0.99)
	after := b.d.Snapshot()
	if n := after.DroppedEvents - before.DroppedEvents; n > 0 {
		t.check(fmt.Errorf("daemon dropped %d subscriber events", n))
	} else {
		t.check(nil)
	}
	st.cacheHits = after.CacheHits - before.CacheHits
	st.cacheLookups = st.cacheHits + after.CacheMisses - before.CacheMisses
	st.late = append(late, pollLate...)
	if tr != nil {
		b.traceResults(tr, ticks, events, inproc)
	}
	return st
}

// judge is daemon-delta's oracle. Every swept host's verdict must be
// infected exactly when a mutation infected it before the sweep began;
// every sweep's results must all arrive over SSE, with its closing
// event; and every mutation must be detected by the first result for
// its host from a sweep that started after the write.
func (b *daemonBench) judge(events []sseEvent, muts []mutation, ticks []tick, t *tally, tr *tracer) *opStats {
	st := &opStats{extras: map[string]float64{}}
	results := map[int][]sseEvent{}
	byHost := map[int][]sseEvent{} // in arrival order
	closed := map[int]bool{}
	for _, e := range events {
		if e.kind == "sweep" {
			closed[e.sweep] = true
		} else {
			results[e.sweep] = append(results[e.sweep], e)
			byHost[b.index[e.host]] = append(byHost[b.index[e.host]], e)
		}
	}
	swept := 0
	for _, tk := range ticks {
		err := tk.err
		if err == nil {
			rs := results[tk.id]
			switch {
			case !closed[tk.id]:
				err = fmt.Errorf("sweep %d: no sweep event over SSE", tk.id)
			case len(rs) != tk.scanned:
				err = fmt.Errorf("sweep %d: SSE delivered %d of %d results", tk.id, len(rs), tk.scanned)
			}
			for _, r := range rs {
				i, ok := b.index[r.host]
				if err == nil && (!ok || r.infected != (b.infectedFrom[i] <= tk.id)) {
					err = fmt.Errorf("sweep %d: host %s verdict infected=%v is wrong", tk.id, r.host, r.infected)
				}
			}
			var virt time.Duration
			for _, r := range rs {
				virt += r.elapsed
			}
			st.virtual = append(st.virtual, virt)
		}
		t.check(err)
		st.roots = append(st.roots, tk.stop.Sub(tk.start))
		swept += tk.scanned
	}
	var steady, burst []time.Duration
	misses := 0
	for k, m := range muts {
		err := m.err
		if err == nil {
			err = fmt.Errorf("mutation %d on %s: never detected", k, hostName(m.host))
			for _, e := range byHost[m.host] {
				if e.sweep < m.minSweep {
					continue
				}
				err = nil
				lat := e.at.Sub(m.due)
				if m.burst {
					burst = append(burst, lat)
				} else {
					steady = append(steady, lat)
				}
				if lat > sloLimit {
					misses++
				}
				tr.record("daemon.mutation", 0, fmt.Sprintf("mutation-%d", k), m.due, e.at)
				break
			}
		}
		if err != nil {
			misses++
		}
		t.check(err)
	}
	// The end-to-end latency is the steady phase's. The burst runs near
	// saturation, where a slightly slower machine grows the queue without
	// bound; its numbers are reported beside, not gated.
	st.latencies = steady
	st.extras["detect_ms.steady.p99"] = quantile(millis(steady), 0.99)
	st.extras["detect_ms.burst.p50"] = quantile(millis(burst), 0.5)
	st.extras["detect_ms.burst.p99"] = quantile(millis(burst), 0.99)
	st.extras["slo_miss_ratio"] = float64(misses) / float64(max(len(muts), 1))
	st.extras["hosts_per_tick"] = float64(swept) / float64(max(len(ticks), 1))
	return st
}

// traceResults nests each tick's results under its span, and each
// result's SSE delivery under the result: a result span runs from the
// previous in-process arrival of the same tick (or the tick's start) to
// its own, the delivery span from there to the SSE reader.
func (b *daemonBench) traceResults(tr *tracer, ticks []tick, events []sseEvent, inproc *subscription) {
	sseAt := resultArrivals(events)
	byID := map[int]tick{}
	for _, tk := range ticks {
		byID[tk.id] = tk
	}
	prev := map[int]time.Time{}
	for _, a := range inproc.arrivals() {
		tk, ok := byID[a.key.sweep]
		if !ok {
			continue
		}
		from, ok := prev[tk.id]
		if !ok {
			from = tk.start
		}
		prev[tk.id] = a.at
		trace := fmt.Sprintf("sweep-%d", tk.id)
		id := tr.newID()
		tr.add(id, "daemon.result", tk.span, trace, from, a.at)
		// The in-process subscriber is itself a receiver of the broadcast;
		// when the SSE reader was scheduled first there is no interval to
		// record, only the negative lag http.sse_lag_ms keeps.
		if at, ok := sseAt[a.key]; ok && !at.Before(a.at) {
			tr.record("http.sse", id, trace, a.at, at)
		}
	}
}

// resultKey names one host's result in one sweep.
type resultKey struct {
	sweep int
	host  string
}

// resultArrivals maps each result the SSE reader received to its arrival.
func resultArrivals(events []sseEvent) map[resultKey]time.Time {
	at := map[resultKey]time.Time{}
	for _, e := range events {
		if e.kind == "result" {
			at[resultKey{e.sweep, e.host}] = e.at
		}
	}
	return at
}

// getHosts is one API read, checked for a complete host list.
func (b *daemonBench) getHosts() error {
	resp, err := b.client.Get(b.srv.URL + "/v1/hosts")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/hosts: %s", resp.Status)
	}
	var hs []daemon.HostStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		return fmt.Errorf("GET /v1/hosts: %w", err)
	}
	if len(hs) != len(b.hosts) {
		return fmt.Errorf("GET /v1/hosts listed %d of %d hosts", len(hs), len(b.hosts))
	}
	return nil
}

// sseEvent is one frame the SSE reader received, stamped on arrival.
type sseEvent struct {
	at       time.Time
	kind     string // "result" or "sweep"
	sweep    int
	host     string
	infected bool
	elapsed  time.Duration
}

// sseStream reads GET /v1/results on one connection for the daemon's
// lifetime.
type sseStream struct {
	cancel  context.CancelFunc
	done    chan struct{}
	changed chan struct{} // signalled after each frame

	mu     sync.Mutex
	events []sseEvent
	closed map[int]bool // sweeps whose closing event arrived
	err    error
}

func openSSE(client *http.Client, url string) (*sseStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// The handler subscribes before it answers, so once the headers are
	// back no event can be missed.
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /v1/results: %s", resp.Status)
	}
	s := &sseStream{cancel: cancel, done: make(chan struct{}), changed: make(chan struct{}, 1), closed: map[int]bool{}}
	go s.read(ctx, resp.Body)
	return s, nil
}

func (s *sseStream) read(ctx context.Context, body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		at := time.Now()
		var ev struct {
			Type   string `json:"type"`
			Sweep  int    `json:"sweep"`
			Result *struct {
				Host     string        `json:"host"`
				Infected bool          `json:"infected"`
				Elapsed  time.Duration `json:"elapsedNs"`
			} `json:"result"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			s.fail(fmt.Errorf("SSE frame: %w", err))
			return
		}
		e := sseEvent{at: at, kind: ev.Type, sweep: ev.Sweep}
		if ev.Result != nil {
			e.host, e.infected, e.elapsed = ev.Result.Host, ev.Result.Infected, ev.Result.Elapsed
		}
		s.mu.Lock()
		s.events = append(s.events, e)
		if e.kind == "sweep" {
			s.closed[e.sweep] = true
		}
		s.mu.Unlock()
		select {
		case s.changed <- struct{}{}:
		default:
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		s.fail(err)
	}
}

func (s *sseStream) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// waitSweep blocks until sweep id's closing event has arrived.
func (s *sseStream) waitSweep(id int, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		done, err := s.closed[id], s.err
		s.mu.Unlock()
		switch {
		case err != nil:
			return err
		case done:
			return nil
		}
		select {
		case <-s.changed:
		case <-s.done:
			return fmt.Errorf("SSE stream ended before sweep %d closed", id)
		case <-deadline.C:
			return fmt.Errorf("sweep %d: no closing SSE event within %v", id, timeout)
		}
	}
}

// since returns the received events of sweeps from first on.
func (s *sseStream) since(first int) []sseEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []sseEvent
	for _, e := range s.events {
		if e.sweep >= first {
			out = append(out, e)
		}
	}
	return out
}

func (s *sseStream) close() {
	s.cancel()
	<-s.done
}

// subscription drains an in-process Daemon.Subscribe channel, stamping
// each result's arrival: the reference the SSE lag is measured against.
type subscription struct {
	cancel func()
	done   chan struct{}
	mu     sync.Mutex
	seen   []arrival
}

type arrival struct {
	at  time.Time
	key resultKey
}

func subscribe(d *daemon.Daemon) *subscription {
	ch, cancel := d.Subscribe()
	s := &subscription{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for ev := range ch {
			if ev.Type == "result" && ev.Result != nil {
				s.mu.Lock()
				s.seen = append(s.seen, arrival{time.Now(), resultKey{ev.Sweep, ev.Result.Host}})
				s.mu.Unlock()
			}
		}
	}()
	return s
}

func (s *subscription) close() {
	s.cancel()
	<-s.done
}

func (s *subscription) arrivals() []arrival {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]arrival(nil), s.seen...)
}

// daemonLayers probes the daemon and HTTP layers over (up to
// daemonHosts of) a workload's hosts with a fresh daemon: closed-loop
// single-host delta ticks, quiet ticks, the SSE delivery lag against an
// in-process subscriber, and GET /v1/hosts against a direct Hosts call.
func daemonLayers(hosts []*machine.Machine, sc scale, seed int64, work string, budget time.Duration, tr *tracer) (map[string]metric, error) {
	b, err := newDaemonBench(hosts[:min(len(hosts), sc.daemonHosts)], seed, sc, work)
	if err != nil {
		return nil, err
	}
	defer b.close()
	inproc := subscribe(b.d)
	first, state0 := b.nextID, dirSize(b.state)
	var ticks []time.Duration
	end := time.Now().Add(budget)
	for i := 0; i < 5 || (i < 200 && time.Now().Before(end)); i++ {
		b.muts++
		if err := b.drop(i % len(b.hosts)); err != nil {
			return nil, err
		}
		tk := b.tick(tr)
		if tk.err != nil {
			return nil, tk.err
		}
		if err := b.sse.waitSweep(tk.id, 10*time.Second); err != nil {
			return nil, err
		}
		ticks = append(ticks, tk.stop.Sub(tk.start))
	}
	sweeps := b.nextID - first
	stateBytes := float64(dirSize(b.state)-state0) / float64(sweeps)
	inproc.close()

	sseAt := resultArrivals(b.sse.since(first))
	var lags []time.Duration
	for _, a := range inproc.arrivals() {
		if at, ok := sseAt[a.key]; ok {
			lags = append(lags, at.Sub(a.at))
		}
	}
	if len(lags) != sweeps {
		return nil, fmt.Errorf("daemon probe: %d of %d results reached both subscribers", len(lags), sweeps)
	}

	var quiet, viaHTTP, direct []time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		info, err := b.d.Tick(start)
		quiet = append(quiet, time.Since(start))
		if err != nil || info != nil {
			return nil, fmt.Errorf("quiet tick swept %+v: %v", info, err)
		}
		start = time.Now()
		if err := b.getHosts(); err != nil {
			return nil, err
		}
		viaHTTP = append(viaHTTP, time.Since(start))
		start = time.Now()
		b.d.Hosts()
		direct = append(direct, time.Since(start))
	}
	dropped := b.d.Snapshot().DroppedEvents
	if dropped != 0 {
		return nil, fmt.Errorf("daemon probe: %d subscriber events dropped", dropped)
	}
	return map[string]metric{
		"daemon.tick_ms.p50":           {quantile(millis(ticks), 0.5), "ms"},
		"daemon.tick_ms.p99":           {quantile(millis(ticks), 0.99), "ms"},
		"daemon.quiet_tick_us":         {medianIn(quiet, time.Microsecond), "us"},
		"daemon.state_bytes_per_sweep": {stateBytes, "B"},
		"daemon.dropped_events":        {float64(dropped), "count"},
		"http.sse_lag_ms.p50":          {quantile(millis(lags), 0.5), "ms"},
		"http.sse_lag_ms.p99":          {quantile(millis(lags), 0.99), "ms"},
		"http.hosts_overhead_ms":       {medianIn(viaHTTP, time.Millisecond) - medianIn(direct, time.Millisecond), "ms"},
	}, nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
