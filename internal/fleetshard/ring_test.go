package fleetshard

import (
	"fmt"
	"testing"
)

func ringHosts(n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("host-%07d", i)
	}
	return hosts
}

// TestRingAssignmentIsAPartition: every host maps to exactly one live
// shard, and the per-shard lists cover the fleet with no overlap — the
// "no host ever assigned to two shards" half of the rebalance contract.
func TestRingAssignmentIsAPartition(t *testing.T) {
	const shards = 16
	ring, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	hosts := ringHosts(10000)
	owner := map[string]int{}
	counts := map[int]int{}
	for _, h := range hosts {
		s := ring.Assign(h)
		if s < 0 || s >= shards {
			t.Fatalf("host %s assigned to shard %d, outside [0,%d)", h, s, shards)
		}
		if prev, dup := owner[h]; dup && prev != s {
			t.Fatalf("host %s assigned to shards %d and %d", h, prev, s)
		}
		owner[h] = s
		counts[s]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(hosts) {
		t.Fatalf("partition covers %d hosts, want %d", total, len(hosts))
	}
	// Re-assigning must be a pure function of the name.
	for _, h := range hosts {
		if ring.Assign(h) != owner[h] {
			t.Fatalf("host %s moved between identical Assign calls", h)
		}
	}
}

// TestRingDeterministicAcrossConstruction: two rings built from the
// same parameters agree on every assignment — required for resume,
// where the coordinator reconstructs the ring from the manifest.
func TestRingDeterministicAcrossConstruction(t *testing.T) {
	a, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range ringHosts(2000) {
		if a.Assign(h) != b.Assign(h) {
			t.Fatalf("rings built from identical parameters disagree on %s", h)
		}
	}
}

// TestRingRemovalMovesOnlyLostHosts: dropping shards via Without moves
// exactly the lost shards' hosts — survivors keep every host they had.
// This is the property that makes resume-after-shard-loss sound: no
// committed (surviving-shard) work is ever re-assigned.
func TestRingRemovalMovesOnlyLostHosts(t *testing.T) {
	ring, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	hosts := ringHosts(20000)
	before := make(map[string]int, len(hosts))
	for _, h := range hosts {
		before[h] = ring.Assign(h)
	}
	lost := map[int]bool{2: true, 5: true}
	survivor, err := ring.Without(lost)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, h := range hosts {
		after := survivor.Assign(h)
		if lost[after] {
			t.Fatalf("host %s assigned to lost shard %d", h, after)
		}
		if lost[before[h]] {
			moved++
			continue
		}
		if after != before[h] {
			t.Fatalf("host %s moved from surviving shard %d to %d — survivors must keep their hosts", h, before[h], after)
		}
	}
	lostCount := 0
	for _, h := range hosts {
		if lost[before[h]] {
			lostCount++
		}
	}
	if moved != lostCount {
		t.Fatalf("moved %d hosts, want exactly the lost shards' %d", moved, lostCount)
	}
}

// TestRingAddRemoveRebalanceBound: growing N→N+1 shards (or shrinking
// back) moves roughly 1/(N+1) of the fleet — pinned at 2× the ideal
// fraction, the consistent-hashing guarantee that makes re-sharding a
// million-host fleet incremental instead of a full reshuffle.
func TestRingAddRemoveRebalanceBound(t *testing.T) {
	hosts := ringHosts(20000)
	for _, n := range []int{4, 8, 16} {
		small, err := NewRing(n)
		if err != nil {
			t.Fatal(err)
		}
		big, err := NewRing(n + 1)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, h := range hosts {
			if small.Assign(h) != big.Assign(h) {
				moved++
			}
		}
		ideal := float64(len(hosts)) / float64(n+1)
		if float64(moved) > 2*ideal {
			t.Errorf("%d→%d shards moved %d hosts; bound is 2× ideal %.0f", n, n+1, moved, ideal)
		}
		if moved == 0 {
			t.Errorf("%d→%d shards moved no hosts — the new shard got nothing", n, n+1)
		}
	}
}

// TestRingBalance: with the default vnode count no shard carries more
// than twice the mean load. Looser than the rebalance bound on purpose:
// FNV spread over 128 vnodes is good, not perfect.
func TestRingBalance(t *testing.T) {
	const shards = 16
	ring, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	hosts := ringHosts(50000)
	for _, h := range hosts {
		counts[ring.Assign(h)]++
	}
	mean := float64(len(hosts)) / shards
	for s, c := range counts {
		if float64(c) > 2*mean {
			t.Errorf("shard %d carries %d hosts, more than 2× the mean %.0f", s, c, mean)
		}
		if c == 0 {
			t.Errorf("shard %d carries no hosts", s)
		}
	}
}

// TestRingRejectsEmpty: a ring with no shards is a configuration
// error, not a panic site.
func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Error("NewRing(0) succeeded")
	}
	ring, err := NewRing(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ring.Without(map[int]bool{0: true, 1: true}); err == nil {
		t.Error("Without(everything) succeeded — must refuse an empty ring")
	}
}
