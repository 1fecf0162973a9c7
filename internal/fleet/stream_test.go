package fleet

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ghostbuster/internal/ghostware"
	"ghostbuster/internal/journal"
	"ghostbuster/internal/machine"
)

// TestStreamedSweepMatchesJournaled: the bounded-memory summary must
// reach exactly the verdicts (and the same host-content accumulator)
// as the Report a collector seals over an identical fleet.
func TestStreamedSweepMatchesJournaled(t *testing.T) {
	infections := map[int]ghostware.Ghostware{1: ghostware.NewHackerDefender()}
	dir := t.TempDir()

	classic, _ := sweep(t, buildFleet(t, 3, infections), Plan{Workers: 2, Journal: filepath.Join(dir, "classic.gbj")})
	var wantAcc Accumulator
	for _, hr := range classic.Results {
		wantAcc.Fold(hr.Host, hr.Hash)
	}

	seen := map[string]int{}
	sum, err := buildFleet(t, 3, infections).Run(context.Background(), Plan{
		Workers: 2, Journal: filepath.Join(dir, "stream.gbj"),
		Sink: func(res HostResult) { seen[res.Host]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Hosts != 3 || sum.Scanned != 3 || sum.Infected != 1 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(seen) != 3 {
		t.Fatalf("sink saw %d hosts, want 3", len(seen))
	}
	for h, n := range seen {
		if n != 1 {
			t.Errorf("host %s streamed %d times", h, n)
		}
	}
	if sum.Acc.Sum() != wantAcc.Sum() {
		t.Errorf("streamed accumulator %.12s != classic %.12s", sum.Acc.Sum(), wantAcc.Sum())
	}
	if err := sum.VerifyDigest(); err != nil {
		t.Errorf("summary fails its own seal: %v", err)
	}
}

// TestStreamedResumeReproducesSummaryDigest: kill a streamed sweep
// mid-journal, resume on a rebuilt fleet, and the sealed summary must
// match the uninterrupted run's digest exactly.
func TestStreamedResumeReproducesSummaryDigest(t *testing.T) {
	infections := map[int]ghostware.Ghostware{2: ghostware.NewUrbin()}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.gbj")

	ref, err := buildFleet(t, 3, infections).Run(context.Background(), Plan{Workers: 1, Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	// Kill after the first host's commit (the scheduler pipelines, so
	// the second host's running record precedes the first's done): one
	// committed, one dangling mid-attempt, one unvisited.
	if _, err := journal.TruncateRecords(path, 1+3+3, false); err != nil {
		t.Fatal(err)
	}
	resumed, err := buildFleet(t, 3, infections).Run(context.Background(), Plan{Workers: 1, Journal: path, Mode: ModeResume})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Replayed == 0 {
		t.Error("resume replayed nothing — committed work was re-scanned or lost")
	}
	if resumed.Digest != ref.Digest {
		t.Errorf("resumed summary digest %.12s != uninterrupted %.12s", resumed.Digest, ref.Digest)
	}
	if resumed.Acc.Sum() != ref.Acc.Sum() {
		t.Errorf("resumed accumulator diverged")
	}
}

// TestLazyHostsBuildOnceAndRelease: a lazy host's machine is built when
// its scan starts and dropped after its result commits in a streamed
// sweep.
func TestLazyHostsBuildOnceAndRelease(t *testing.T) {
	mgr := NewManager()
	builds := map[string]int{}
	for i := 0; i < 4; i++ {
		name := hostName(i)
		seed := int64(i + 1)
		mgr.AddLazy(name, func() (*machine.Machine, error) {
			builds[name]++
			p := machine.DefaultProfile()
			p.DiskUsedGB = 0.05
			p.Churn = nil
			p.Seed = seed
			p.MFTHeadroom = 64
			p.ClusterHeadroom = 64
			return machine.New(p)
		})
	}
	sum, err := mgr.Run(context.Background(), Plan{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scanned != 4 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	for i := 0; i < 4; i++ {
		if n := builds[hostName(i)]; n != 1 {
			t.Errorf("host %s built %d times, want 1", hostName(i), n)
		}
	}
	for _, h := range mgr.hosts {
		if h.M != nil || h.cache != nil {
			t.Errorf("host %s still resident after streamed sweep", h.Name)
		}
	}
}

// TestResidentGaugeBoundsStreamedSweep: with w workers, no more than
// w+1 results may ever be resident (in flight plus one crossing the
// aggregation channel), regardless of fleet size.
func TestResidentGaugeBoundsStreamedSweep(t *testing.T) {
	const hosts, workers = 200, 3
	mgr := NewManager()
	for i := 0; i < hosts; i++ {
		mgr.AddLazy(hostName(i%26)+string(rune('0'+i/26%10))+string(rune('0'+i/260)), nil)
	}
	mgr.ScanHost = func(h *Host, kind SweepKind) HostResult {
		time.Sleep(50 * time.Microsecond)
		return HostResult{Host: h.Name, Kind: kind, Elapsed: time.Millisecond}
	}
	gauge := &ResidentGauge{}
	mgr.Resident = gauge
	sum, err := mgr.Run(context.Background(), Plan{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scanned != hosts {
		t.Fatalf("scanned %d of %d", sum.Scanned, hosts)
	}
	if peak := gauge.Peak(); peak > workers+1 {
		t.Errorf("peak resident results %d, bound is workers+1 = %d", peak, workers+1)
	}
	if gauge.Current() != 0 {
		t.Errorf("gauge not drained: %d still resident", gauge.Current())
	}
	if sum.PeakResident == 0 {
		t.Error("summary did not record the resident peak")
	}
}

// TestSweepSummaryDigestDetectsTamper: the third-layer seal must catch
// any post-hoc edit to the summary's verdict fields.
func TestSweepSummaryDigestDetectsTamper(t *testing.T) {
	sum, err := buildFleet(t, 2, map[int]ghostware.Ghostware{0: ghostware.NewBerbew()}).
		Run(context.Background(), Plan{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.VerifyDigest(); err != nil {
		t.Fatalf("fresh summary fails verification: %v", err)
	}
	tampered := *sum
	tampered.Infected = 0
	if err := tampered.VerifyDigest(); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Errorf("tampered summary verified: %v", err)
	}
}
