package daemon

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ghostbuster/internal/fleet"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/journal"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/profile"
)

func newDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("daemon.New: %v", err)
	}
	t.Cleanup(d.Shutdown)
	return d
}

func infest(t *testing.T, m *machine.Machine, name string) {
	t.Helper()
	e, ok := ghostware.Lookup(name)
	if !ok {
		t.Fatalf("no ghostware %q", name)
	}
	g := e.New()
	if err := g.Install(m); err != nil {
		t.Fatal(err)
	}
	if e.Arm != nil {
		if err := e.Arm(m, g); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuietHostCostsNothing: after the first sweep, a host whose
// substrates have not moved is never re-swept until its interval
// elapses — a scheduler pass over a quiet fleet runs zero scans.
func TestQuietHostCostsNothing(t *testing.T) {
	d := newDaemon(t, Config{Seed: 7})
	if err := d.Register(HostSpec{Name: "host-a", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	info, err := d.Tick(now)
	if err != nil {
		t.Fatalf("first tick: %v", err)
	}
	if info == nil || info.Trigger != "delta" || info.Scanned != 1 {
		t.Fatalf("first tick = %+v, want delta sweep of 1 host", info)
	}
	for i := 0; i < 3; i++ {
		info, err = d.Tick(time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if info != nil {
			t.Fatalf("quiet host re-swept: %+v", info)
		}
	}
	if m := d.Snapshot(); m.Sweeps != 1 {
		t.Fatalf("sweeps = %d, want 1", m.Sweeps)
	}
}

// TestDeltaSweepMatchesColdScanDigest is the incremental-correctness
// acceptance: mutate a host's substrate, let the generation delta
// trigger a warm incremental sweep, and require its sealed digest to
// equal a cold one-shot sweep of an identically-built-and-infected
// host. The warm cache may only save work, never change the verdict.
func TestDeltaSweepMatchesColdScanDigest(t *testing.T) {
	d := newDaemon(t, Config{Seed: 3})
	m, err := BuildHost(HostSpec{Name: "h", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterMachine("h", m); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tick(time.Now()); err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}

	infest(t, m, "Urbin")
	info, err := d.Tick(time.Now())
	if err != nil {
		t.Fatalf("delta sweep: %v", err)
	}
	if info == nil || info.Trigger != "delta" {
		t.Fatalf("mutation did not trigger a delta sweep: %+v", info)
	}
	if len(info.Infected) != 1 || info.Infected[0] != "h" {
		t.Fatalf("infected = %v, want [h]", info.Infected)
	}

	// Cold reference: same spec, infection included at build time, one
	// fresh journaled sweep under the same profile.
	cold, err := BuildHost(HostSpec{Name: "h", Seed: 5, Infect: "Urbin"})
	if err != nil {
		t.Fatal(err)
	}
	rep := coldReport(t, d.ActiveProfile(), "h", cold)
	if rep.Digest != info.Digest {
		t.Fatalf("warm incremental digest %s != cold one-shot digest %s", info.Digest, rep.Digest)
	}
}

// TestMutationRacingSweepRetriggers: bytes written between the
// scheduler's baseline read and the commit are never masked — the host
// stays delta-due on the next pass.
func TestMutationRacingSweepRetriggers(t *testing.T) {
	d := newDaemon(t, Config{Seed: 11})
	m, err := BuildHost(HostSpec{Name: "r", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterMachine("r", m); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tick(time.Now()); err != nil {
		t.Fatal(err)
	}
	base := d.Snapshot()
	// Mutate after the sweep committed: the baseline was read pre-scan,
	// so the current key differs and the next tick must re-sweep.
	if err := m.DropFile(`C:\Private\new.txt`, []byte("x")); err != nil {
		t.Fatal(err)
	}
	info, err := d.Tick(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Trigger != "delta" {
		t.Fatalf("post-sweep mutation not re-swept: %+v", info)
	}
	// Only the disk moved: the registry side of the incremental sweep
	// must come out of the daemon-owned warm cache.
	if warm := d.Snapshot(); warm.CacheHits <= base.CacheHits {
		t.Fatalf("file-only delta reused no cached hive parse (hits %d -> %d)", base.CacheHits, warm.CacheHits)
	}
}

// TestIntervalTriggerIsJittered: a quiet host re-sweeps once its
// (jittered) interval elapses, and the recorded nextDue actually
// carries jitter rather than the exact interval.
func TestIntervalTriggerIsJittered(t *testing.T) {
	iv := 100 * time.Millisecond
	d := newDaemon(t, Config{Seed: 13, Override: &profile.Override{Interval: &iv}})
	if err := d.Register(HostSpec{Name: "host-j", Seed: 4}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := d.Tick(start); err != nil {
		t.Fatal(err)
	}
	hosts := d.Hosts()
	gap := hosts[0].NextDue.Sub(hosts[0].LastSweep)
	if gap < 90*time.Millisecond || gap > 110*time.Millisecond {
		t.Fatalf("nextDue gap %v outside the ±10%% jitter window of %v", gap, iv)
	}
	if info, err := d.Tick(hosts[0].NextDue.Add(-time.Millisecond)); err != nil || info != nil {
		t.Fatalf("swept before due: %+v, %v", info, err)
	}
	info, err := d.Tick(hosts[0].NextDue.Add(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Trigger != "interval" {
		t.Fatalf("interval elapsed but no sweep: %+v", info)
	}
}

func TestHostNamesValidated(t *testing.T) {
	d := newDaemon(t, Config{})
	for _, name := range []string{"", "../evil", "a/b", `a\b`, "x..", strings.Repeat("n", 65)} {
		if err := d.Register(HostSpec{Name: name}); err == nil {
			t.Errorf("Register(%q) accepted a hostile host name", name)
		}
	}
	if err := d.Register(HostSpec{Name: "ok-host.01", Seed: 1}); err != nil {
		t.Errorf("legal host name rejected: %v", err)
	}
	if err := d.Register(HostSpec{Name: "ok-host.01", Seed: 1}); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestRegistryAndProfilePersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	d1 := newDaemon(t, Config{StateDir: dir, Profile: "paranoid", LockProfile: true})
	if err := d1.Register(HostSpec{Name: "host-a", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d1.Register(HostSpec{Name: "host-b", Seed: 2, Infect: "Urbin"}); err != nil {
		t.Fatal(err)
	}
	// Ephemeral hosts are excluded from the persisted registry.
	m, _ := BuildHost(HostSpec{Name: "eph", Seed: 9})
	if err := d1.RegisterMachine("eph", m); err != nil {
		t.Fatal(err)
	}
	d1.Shutdown()

	d2 := newDaemon(t, Config{StateDir: dir})
	hosts := d2.Hosts()
	if len(hosts) != 2 || hosts[0].Name != "host-a" || hosts[1].Name != "host-b" {
		t.Fatalf("restart lost the registry: %+v", hosts)
	}
	p := d2.ActiveProfile()
	if p.Name != "paranoid" || !p.Locked {
		t.Fatalf("restart lost the locked profile: %+v", p)
	}
	// The lock survives the restart: weakening still rejected, and the
	// rejection counted.
	if _, err := d2.SwitchProfile("quick"); err == nil {
		t.Fatal("locked profile switched down after restart")
	}
	adv := false
	if _, err := d2.OverrideProfile(profile.Override{Advanced: &adv}); err == nil {
		t.Fatal("locked profile weakened after restart")
	}
	if m := d2.Snapshot(); m.LockedRejections != 2 {
		t.Fatalf("lockedRejections = %d, want 2", m.LockedRejections)
	}
}

func TestStartupProfileCannotDowngradeLocked(t *testing.T) {
	dir := t.TempDir()
	d1 := newDaemon(t, Config{StateDir: dir, Profile: "paranoid", LockProfile: true})
	d1.Shutdown()
	if _, err := New(Config{StateDir: dir, Profile: "quick"}); err == nil {
		t.Fatal("restart with -profile quick downgraded a locked paranoid")
	}
}

func TestCorruptPersistedProfileFailsStartup(t *testing.T) {
	dir := t.TempDir()
	d1 := newDaemon(t, Config{StateDir: dir})
	d1.Shutdown()
	path := filepath.Join(dir, "profile.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{StateDir: dir}); err == nil {
		t.Fatal("daemon started over a corrupted persisted profile")
	}
}

// TestCrashResumeDigestEquality is the kill -9 acceptance: truncate a
// sealed sweep's journal mid-records (simulating the crash), restart
// the daemon, and require the resumed sweep's digest to equal the
// uninterrupted run's.
func TestCrashResumeDigestEquality(t *testing.T) {
	register := func(t *testing.T, d *Daemon) {
		for _, spec := range []HostSpec{
			{Name: "host-a", Seed: 1},
			{Name: "host-b", Seed: 2, Infect: "Urbin"},
			{Name: "host-c", Seed: 3},
		} {
			if err := d.Register(spec); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Reference: the uninterrupted sweep.
	ref := newDaemon(t, Config{Seed: 5})
	register(t, ref)
	full, err := ref.Tick(time.Now())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		keep int
		torn bool
	}{
		{"mid-sweep-torn", 4, true},
		{"after-first-commit", 5, false},
		{"before-any-commit", 0, false}, // ErrEmptyJournal -> fresh restart
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d1 := newDaemon(t, Config{StateDir: dir, Seed: 5})
			register(t, d1)
			info, err := d1.Tick(time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if info.Digest != full.Digest {
				t.Fatalf("same fleet, different digests before crash: %s vs %s", info.Digest, full.Digest)
			}
			d1.Shutdown()

			// Simulate the kill: journal cut mid-records, no done marker.
			jp := filepath.Join(dir, "sweeps", "sweep-000000.gbj")
			if _, err := journal.TruncateRecords(jp, tc.keep, tc.torn); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(dir, "sweeps", "sweep-000000.done")); err != nil {
				t.Fatal(err)
			}

			d2 := newDaemon(t, Config{StateDir: dir, Seed: 5})
			resumed, err := d2.Start()
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if len(resumed) != 1 {
				t.Fatalf("resumed %d sweeps, want 1", len(resumed))
			}
			if resumed[0].Digest != full.Digest {
				t.Fatalf("resumed digest %s != uninterrupted digest %s", resumed[0].Digest, full.Digest)
			}
			if !resumed[0].Resumed || resumed[0].Trigger != "resume" {
				t.Fatalf("resume provenance missing: %+v", resumed[0])
			}
			if _, err := os.Stat(filepath.Join(dir, "sweeps", "sweep-000000.done")); err != nil {
				t.Fatal("resumed sweep not sealed with a done marker")
			}
			// The next sweep id must not collide with the resumed one.
			if info, err := d2.SweepNow(); err != nil || info.ID == 0 {
				t.Fatalf("post-resume sweep: %+v, %v", info, err)
			}
		})
	}
}

func TestResumeFailsLoudlyWithoutSidecar(t *testing.T) {
	dir := t.TempDir()
	d1 := newDaemon(t, Config{StateDir: dir})
	if err := d1.Register(HostSpec{Name: "host-a", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Tick(time.Now()); err != nil {
		t.Fatal(err)
	}
	d1.Shutdown()
	if err := os.Remove(filepath.Join(dir, "sweeps", "sweep-000000.done")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "sweeps", "sweep-000000.hosts.json")); err != nil {
		t.Fatal(err)
	}
	d2 := newDaemon(t, Config{StateDir: dir})
	if _, err := d2.Start(); err == nil {
		t.Fatal("dangling journal without sidecar resumed silently")
	}
}

func TestShardedSweep(t *testing.T) {
	d := newDaemon(t, Config{Seed: 9, Shards: 2})
	for i, name := range []string{"host-a", "host-b", "host-c"} {
		if err := d.Register(HostSpec{Name: name, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := d.SweepNow()
	if err != nil {
		t.Fatal(err)
	}
	if info.MergedDigest == "" || info.Digest == "" {
		t.Fatalf("sharded sweep missing digests: %+v", info)
	}
	if info.Scanned != 3 {
		t.Fatalf("scanned %d, want 3", info.Scanned)
	}
}

func TestSubscribeStreamsResultsAndShutdownCloses(t *testing.T) {
	d := newDaemon(t, Config{Seed: 1})
	if err := d.Register(HostSpec{Name: "host-a", Seed: 1, Infect: "Urbin"}); err != nil {
		t.Fatal(err)
	}
	ch, cancel := d.Subscribe()
	defer cancel()
	if _, err := d.Tick(time.Now()); err != nil {
		t.Fatal(err)
	}
	var gotResult, gotSweep bool
	for ev := range ch {
		switch ev.Type {
		case "result":
			gotResult = true
			if !ev.Result.Infected {
				t.Error("infected host streamed as clean")
			}
		case "sweep":
			gotSweep = true
		}
		if gotResult && gotSweep {
			break
		}
	}
	if !gotResult || !gotSweep {
		t.Fatalf("stream missing events: result=%v sweep=%v", gotResult, gotSweep)
	}
	d.Shutdown()
	select {
	case _, open := <-ch:
		if open {
			// Drain any buffered events; the channel must close.
			for range ch {
			}
		}
	case <-time.After(time.Second):
		t.Fatal("shutdown did not close subscriber stream")
	}
}

// TestGracefulShutdownDrainsInFlightSweep: Shutdown must wait for the
// running sweep to commit and seal its journal.
func TestGracefulShutdownDrainsInFlightSweep(t *testing.T) {
	dir := t.TempDir()
	d := newDaemon(t, Config{StateDir: dir, Seed: 2})
	for i := 0; i < 4; i++ {
		if err := d.Register(HostSpec{Name: "host-" + string(rune('a'+i)), Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.SweepNow()
		done <- err
	}()
	// Let the sweep start, then drain.
	time.Sleep(5 * time.Millisecond)
	d.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("in-flight sweep failed under shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sweeps", "sweep-000000.done")); err != nil {
		t.Fatal("drained sweep left no done marker")
	}
	if _, err := d.SweepNow(); err == nil {
		t.Fatal("sweep accepted after shutdown")
	}
}

func TestDeregisterStopsScheduling(t *testing.T) {
	d := newDaemon(t, Config{Seed: 4})
	if err := d.Register(HostSpec{Name: "host-a", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Deregister("host-a"); err != nil {
		t.Fatal(err)
	}
	if info, err := d.Tick(time.Now()); err != nil || info != nil {
		t.Fatalf("deregistered host swept: %+v, %v", info, err)
	}
	if err := d.Deregister("host-a"); err == nil {
		t.Fatal("double deregister succeeded")
	}
}

// TestRemovableHotplugTriggersDeltaSweep: plugging in (or pulling) a
// removable stick moves the host's substrate generation key, so the
// scheduler's next pass is delta-due — and the warm incremental sweep
// of the hot-plugged, USBcat-infected host seals the same digest as a
// cold one-shot sweep of an identically built-and-infected machine.
func TestRemovableHotplugTriggersDeltaSweep(t *testing.T) {
	d := newDaemon(t, Config{Seed: 9})
	m, err := BuildHost(HostSpec{Name: "u", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterMachine("u", m); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tick(time.Now()); err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}

	// Hot-plug: USBcat attaches a stick, drops payloads on it, and
	// hides them from the Win32 view. The attach bumps the removable
	// generation, so this is a delta, not an interval wait.
	infest(t, m, "USBcat")
	info, err := d.Tick(time.Now())
	if err != nil {
		t.Fatalf("hot-plug sweep: %v", err)
	}
	if info == nil || info.Trigger != "delta" {
		t.Fatalf("removable attach did not trigger a delta sweep: %+v", info)
	}
	if len(info.Infected) != 1 || info.Infected[0] != "u" {
		t.Fatalf("infected = %v, want [u]", info.Infected)
	}

	// Cold reference: same spec, infection included at build time, one
	// fresh journaled sweep under the same profile. The warm cache (and
	// the different randomized unit order the cold sweep draws) may only
	// save work, never change the verdict.
	cold, err := BuildHost(HostSpec{Name: "u", Seed: 6, Infect: "USBcat"})
	if err != nil {
		t.Fatal(err)
	}
	rep := coldReport(t, d.ActiveProfile(), "u", cold)
	if rep.Digest != info.Digest {
		t.Fatalf("hot-plug incremental digest %s != cold one-shot digest %s", info.Digest, rep.Digest)
	}

	// Detach: the stick leaves with the payloads. Another generation
	// bump, another delta — and with no media the removable pair goes
	// quiet, so the host scans clean again.
	m.DetachRemovable()
	info, err = d.Tick(time.Now())
	if err != nil {
		t.Fatalf("detach sweep: %v", err)
	}
	if info == nil || info.Trigger != "delta" {
		t.Fatalf("removable detach did not trigger a delta sweep: %+v", info)
	}
	if len(info.Infected) != 0 {
		t.Fatalf("detached host still reported infected: %v", info.Infected)
	}
}

// coldReport sweeps one freshly built host once, journaled, under the
// given profile and returns the sealed report.
func coldReport(t *testing.T, prof profile.Profile, name string, m *machine.Machine) *fleet.Report {
	t.Helper()
	mgr := fleet.NewManager()
	prof.ConfigureManager(mgr)
	mgr.Add(name, m)
	col := fleet.NewCollector(mgr)
	sum, err := mgr.Run(context.Background(), fleet.Plan{
		Workers: prof.Workers, Journal: filepath.Join(t.TempDir(), "cold.gbj"), Sink: col.Add,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col.Report(sum)
}
