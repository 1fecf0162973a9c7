// The order-independent digest accumulator behind the cross-shard
// (fourth) layer of the verification chain. A sharded sweep commits
// host results in whatever order its shards finish them, and a resume
// after losing shards re-hashes the lost hosts onto different shards —
// so the fleet-of-fleets digest cannot be a hash over an ordered result
// list the way the per-shard (third-layer) digest is. Instead each host
// folds in as SHA-256(host ∥ resultHash) added limb-wise into a 256-bit
// accumulator (an LtHash-style homomorphic fold): commutative and
// associative, so any partition of the fleet into shards, any completion
// order, and any resume topology produce the same sum as long as every
// host contributed exactly the same verdict exactly once.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Accumulator is a commutative 256-bit hash accumulator over host
// results. The zero value is ready to use. It is not safe for
// concurrent use; each shard folds locally and the coordinator merges.
type Accumulator struct {
	// N is how many host contributions were folded in.
	N int `json:"n"`
	// Limbs is the running sum: four little-endian uint64 limbs added
	// with independent wraparound (limb-wise mod 2^64).
	Limbs [4]uint64 `json:"limbs"`
}

// Fold adds one host's contribution: SHA-256 over the host name, a NUL
// separator, and the host's canonical result hash (ResultHash). The
// separator keeps ("ab","c") and ("a","bc") from colliding.
func (a *Accumulator) Fold(host, resultHash string) {
	// Stack scratch sized for a hex result hash plus any sane host name;
	// a longer name just spills the append to the heap.
	var scratch [160]byte
	b := append(scratch[:0], host...)
	b = append(b, 0)
	b = append(b, resultHash...)
	sum := sha256.Sum256(b)
	for i := range a.Limbs {
		a.Limbs[i] += binary.LittleEndian.Uint64(sum[i*8:])
	}
	a.N++
}

// Merge adds another accumulator's sum into this one — how the
// coordinator folds per-shard accumulators into the fleet-wide one.
func (a *Accumulator) Merge(b Accumulator) {
	for i := range a.Limbs {
		a.Limbs[i] += b.Limbs[i]
	}
	a.N += b.N
}

// Sum seals the accumulator into a hex digest string: SHA-256 over the
// limbs and the contribution count, so an accumulator that folded a
// different number of hosts can never sum equal.
func (a Accumulator) Sum() string {
	var buf [4*8 + 8]byte
	for i, l := range a.Limbs {
		binary.LittleEndian.PutUint64(buf[i*8:], l)
	}
	binary.LittleEndian.PutUint64(buf[32:], uint64(a.N))
	sum := sha256.Sum256(buf[:])
	return hex.EncodeToString(sum[:])
}
