// Package fleetshard is the two-tier fleet control plane: a Coordinator
// consistent-hashes hosts across N sweeper shards, each shard running
// the journaled fleet.Manager, with per-shard results folded into a
// streaming fleet-of-fleets report. The package exists so a simulated
// million-host sweep completes in bounded memory — no more than
// O(shards + in-flight hosts) results are ever resident — and so losing
// any subset of shards is recoverable: surviving shards replay their
// own journals, lost shards' hosts are re-hashed across the survivors,
// and the merged (fourth-layer) digest provably equals the
// uninterrupted run's.
package fleetshard

import (
	"fmt"
	"sort"
)

// vnodes is the virtual-node count per shard. More vnodes mean a
// smoother host distribution (and a tighter near-linear scaling curve);
// 128 keeps the max/mean shard load within a few percent at fleet
// scale while the ring stays a few thousand points.
const vnodes = 128

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring over a set of shard ids. Assignment is
// deterministic and total: every host name maps to exactly one shard,
// and removing a shard moves only that shard's hosts (the defining
// consistent-hashing property the rebalance tests pin).
type Ring struct {
	ids    []int
	points []ringPoint
}

// NewRing builds a ring over shard ids 0..shards-1.
func NewRing(shards int) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("fleetshard: ring needs at least one shard (got %d)", shards)
	}
	ids := make([]int, shards)
	for i := range ids {
		ids[i] = i
	}
	return newRingFrom(ids)
}

// newRingFrom builds a ring over an explicit shard id set.
func newRingFrom(ids []int) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("fleetshard: ring needs at least one shard")
	}
	r := &Ring{ids: append([]int(nil), ids...)}
	sort.Ints(r.ids)
	r.points = make([]ringPoint, 0, len(ids)*vnodes)
	var scratch [32]byte
	for _, id := range r.ids {
		for v := 0; v < vnodes; v++ {
			key := append(scratch[:0], "shard/"...)
			key = appendInt(key, id)
			key = append(key, "/vnode/"...)
			key = appendInt(key, v)
			r.points = append(r.points, ringPoint{hash: mix64(hash64(key)), shard: id})
		}
	}
	// Ties broken by shard id so the ring is deterministic regardless of
	// insertion order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Assign maps a host name to its shard: the first virtual node at or
// after the host's hash, wrapping at the top of the circle.
func (r *Ring) Assign(host string) int {
	h := mix64(hashString(host))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Without returns a ring with the lost shards removed. Surviving
// shards keep their exact virtual nodes, so every host previously
// assigned to a survivor stays put; only the lost shards' hosts move.
func (r *Ring) Without(lost map[int]bool) (*Ring, error) {
	var keep []int
	for _, id := range r.ids {
		if !lost[id] {
			keep = append(keep, id)
		}
	}
	return newRingFrom(keep)
}

// FNV-1a, inlined so a million Assign calls cost zero allocations:
// fast, stable across runs and platforms, good enough spread for vnode
// placement.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hash64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// mix64 is a 64-bit finalizer (splitmix64's): sequential FNV outputs —
// vnode keys and zero-padded host names differ in a handful of low
// bytes — cluster on the circle without it, skewing shard loads past
// the balance bound the tests pin.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// appendInt appends the decimal form of a small non-negative int
// without an allocation.
func appendInt(b []byte, n int) []byte {
	if n >= 10 {
		b = appendInt(b, n/10)
	}
	return append(b, byte('0'+n%10))
}
