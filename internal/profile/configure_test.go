package profile

import (
	"testing"

	"ghostbuster/internal/core"
	"ghostbuster/internal/fleet"
)

// TestUnitsPerBuiltin pins which next-generation scan units each
// built-in posture enables: quick runs the bare paper sweep, standard
// adds the cheap cross-memory and removable pairs, paranoid and
// forensic add the boot chain.
func TestUnitsPerBuiltin(t *testing.T) {
	want := map[string]core.UnitSet{
		"quick":    0,
		"standard": core.UnitCrossMem | core.UnitRemovable,
		"paranoid": core.UnitCrossMem | core.UnitBootChain | core.UnitRemovable,
		"forensic": core.UnitCrossMem | core.UnitBootChain | core.UnitRemovable,
	}
	for _, p := range Builtins() {
		if got := p.Units(); got != want[p.Name] {
			t.Errorf("%s units = %b, want %b", p.Name, got, want[p.Name])
		}
	}
}

// TestConfigureDetectorAppliesPolicy checks the one-shot detector path:
// units follow the profile's switches, and randomized ordering draws a
// fresh nonzero seed per configured detector so no two sweeps share an
// execution order an adversary could learn.
func TestConfigureDetectorAppliesPolicy(t *testing.T) {
	std, err := NewStore("").Resolve("standard")
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := core.NewDetector(nil), core.NewDetector(nil)
	std.ConfigureDetector(d1)
	std.ConfigureDetector(d2)
	if !d1.Advanced || !d1.Contain {
		t.Errorf("standard detector advanced=%v contain=%v, want both true", d1.Advanced, d1.Contain)
	}
	if d1.Units != std.Units() {
		t.Errorf("detector units = %b, want %b", d1.Units, std.Units())
	}
	if len(d1.Opts.NoiseFilters) != len(std.Filters()) {
		t.Errorf("detector got %d noise filters, want %d", len(d1.Opts.NoiseFilters), len(std.Filters()))
	}
	if d1.OrderSeed == 0 || d2.OrderSeed == 0 {
		t.Errorf("randomizing profile left a zero order seed: %d, %d", d1.OrderSeed, d2.OrderSeed)
	}
	if d1.OrderSeed == d2.OrderSeed {
		t.Errorf("two configured detectors drew the same order seed %d", d1.OrderSeed)
	}

	quick, err := NewStore("").Resolve("quick")
	if err != nil {
		t.Fatal(err)
	}
	d3 := core.NewDetector(nil)
	quick.ConfigureDetector(d3)
	if d3.Units != 0 || d3.OrderSeed != 0 {
		t.Errorf("quick detector units=%b orderSeed=%d, want the bare fixed-order paper sweep", d3.Units, d3.OrderSeed)
	}
}

// TestConfigureManagerWiresDetectorSeam checks the fleet path: every
// per-host policy knob transfers, and the manager's per-host detector hook
// is the profile's own ConfigureDetector so sweeps inherit units and
// ordering too.
func TestConfigureManagerWiresDetectorSeam(t *testing.T) {
	p, err := NewStore("").Resolve("paranoid")
	if err != nil {
		t.Fatal(err)
	}
	mgr := fleet.NewManager()
	p.ConfigureManager(mgr)
	if mgr.HostParallelism != p.HostParallelism {
		t.Errorf("manager host parallelism %d, want %d", mgr.HostParallelism, p.HostParallelism)
	}
	if mgr.Retry.MaxRetries != p.MaxRetries || mgr.Retry.Backoff != p.RetryBackoff || mgr.HostDeadline != p.Deadline {
		t.Errorf("manager retries/backoff/deadline = %d/%v/%v, want %d/%v/%v",
			mgr.Retry.MaxRetries, mgr.Retry.Backoff, mgr.HostDeadline, p.MaxRetries, p.RetryBackoff, p.Deadline)
	}
	if mgr.Retry.BreakerThreshold != p.BreakerThreshold || mgr.AbortAfterFailureFraction != p.AbortAfterFailureFraction {
		t.Errorf("manager breaker/abort = %d/%v, want %d/%v", mgr.Retry.BreakerThreshold, mgr.AbortAfterFailureFraction, p.BreakerThreshold, p.AbortAfterFailureFraction)
	}
	if mgr.ConfigureDetector == nil {
		t.Fatal("manager's ConfigureDetector seam not wired")
	}
	d := core.NewDetector(nil)
	mgr.ConfigureDetector(d)
	if d.Units != p.Units() {
		t.Errorf("seam-configured detector units = %b, want %b", d.Units, p.Units())
	}
	if d.OrderSeed == 0 {
		t.Error("paranoid sweep detector kept the fixed order; want a drawn seed")
	}
}
