package main

import (
	"fmt"
	"math"

	"ghostbuster/internal/core"
	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/machine"
	"ghostbuster/internal/profile"
	"ghostbuster/internal/workload"
)

// scale sizes the workloads: the benchmark runs fullScale, the smoke
// test a tiny copy with the same shape.
type scale struct {
	hostFiles, hostKeys int // the big host's populated files and noise keys
	warmSweeps          int // untimed sweeps that end each host set-up

	fleetHosts  int // resident small hosts of fleet-1k
	fleetInfect int // every fleetInfect-th fleet host runs catalog ghostware

	daemonHosts  int
	steadyRate   float64 // mutations per second, first three quarters of a run
	burstRate    float64 // mutations per second, last quarter
	pollRate     float64 // GET /v1/hosts per second
	daemonInfect int     // every daemonInfect-th mutation infects a clean host
	daemonWarmup float64 // seconds of untimed open-loop load ending set-up

	setups int // set-ups per untraced run; setup_s is their median
}

// fullScale's steady rate keeps the daemon at most half busy: a one-host
// delta sweep takes 6–10 ms on a 2-core box, and near saturation the
// machine's speed of the moment would decide how often mutations queue.
var fullScale = scale{
	hostFiles: 50000, hostKeys: 1600, warmSweeps: 3,
	fleetHosts: 1000, fleetInfect: 50,
	daemonHosts: 200, steadyRate: 50, burstRate: 400, pollRate: 40,
	daemonInfect: 25, daemonWarmup: 2,
	setups: 3,
}

// standard is the scan policy every workload runs: the default
// monitoring posture of the CLI fleet mode and the daemon.
var standard = func() profile.Profile {
	p, ok := profile.Builtin("standard")
	if !ok {
		panic("ghostbench: no built-in standard profile")
	}
	return p
}()

// newDetector configures a detector the way fleet.Manager configures
// one for a host scan under the standard profile.
func newDetector(m *machine.Machine, cached bool) *core.Detector {
	d := core.NewDetector(m)
	if cached {
		d.Cache = core.NewScanCache(m)
	}
	standard.ConfigureDetector(d)
	d.Parallelism = standard.HostParallelism
	return d
}

// mix derives the i-th sub-seed of a run seed (splitmix64), so every
// host and choice follows from the one seed the run was given.
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64((z ^ z>>31) >> 1)
}

// bigHost builds the host workloads' machine: the paper's corp-1
// desktop populated to sc.hostFiles MFT records and sc.hostKeys noise
// keys, running Hacker Defender. It returns the count of resources the
// ghostware hides, which a correct sweep must report.
func bigHost(seed int64, sc scale) (*machine.Machine, int, error) {
	p := workload.PaperMachines()[0]
	p.FilesPerGB = int(math.Ceil(float64(sc.hostFiles) / p.DiskUsedGB))
	p.RegNoiseKeys = sc.hostKeys
	p.Seed = mix(seed, 0)
	m, err := workload.NewPaperMachine(p)
	if err != nil {
		return nil, 0, err
	}
	g := ghostware.NewHackerDefender()
	if err := g.Install(m); err != nil {
		return nil, 0, err
	}
	return m, len(g.HiddenFiles()) + len(g.HiddenASEPs()) + len(g.HiddenProcs()), nil
}

// userFiles are the documents daemon.BuildHost gives every host; the
// catalog's commercial file hiders hide them, so a host without them
// would make those samples invisible.
var userFiles = []string{`C:\Private\diary.txt`, `C:\Shared\docs.txt`}

// smallHost builds one fleet or daemon host: a near-empty desktop with
// 64 spare MFT records and clusters, so a thousand of them fit in memory.
func smallHost(seed int64) (*machine.Machine, error) {
	p := machine.DefaultProfile()
	p.DiskUsedGB = 0.05
	p.Churn = nil
	p.Seed = seed
	p.MFTHeadroom, p.ClusterHeadroom = 64, 64
	m, err := machine.New(p)
	if err != nil {
		return nil, err
	}
	for _, f := range userFiles {
		if err := m.DropFile(f, []byte("user data")); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// infect installs and arms one catalog sample.
func infect(m *machine.Machine, e ghostware.CatalogEntry) error {
	g := e.New()
	if err := g.Install(m); err != nil {
		return fmt.Errorf("installing %s: %w", e.Name, err)
	}
	if e.Arm != nil {
		if err := e.Arm(m, g); err != nil {
			return fmt.Errorf("arming %s: %w", e.Name, err)
		}
	}
	return nil
}

// hostName names the i-th small host.
func hostName(i int) string { return fmt.Sprintf("host-%04d", i) }
