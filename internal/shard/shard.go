// Package shard routes keys across independent replicated-log groups with a
// deterministic consistent-hash ring.
//
// A Ring places a configurable number of virtual nodes per shard on a 64-bit
// hash circle (FNV-1a) and maps each key to the first virtual node at or
// after the key's hash, clockwise. Virtual nodes smooth the load across
// shards; determinism (no randomness, stable tie-breaking) guarantees that
// every client of the same configuration routes every key identically, which
// is what lets independent sharded-KV frontends share one set of log groups.
//
// Consistent hashing's defining property is minimal movement: adding or
// removing one shard remaps only the keys that land on that shard's virtual
// nodes (an expected 1/S fraction), leaving every other key's route intact —
// the precondition for live shard rebalancing.
package shard

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// DefaultVirtualNodes is the number of ring positions per shard when Options
// leave it zero. 160 keeps the shard-to-shard load spread within a few
// percent for realistic key counts.
const DefaultVirtualNodes = 160

// Ring is a consistent-hash ring with a copy-on-write mutation contract:
// Add and Remove REBUILD the ring's backing arrays into fresh slices, so any
// reader that captured the previous arrays (a concurrent Shard call, a
// Shards() snapshot taken before the mutation) keeps observing the old,
// internally consistent ring — never a torn mix of both. Mutations are still
// not atomic with respect to each other or to readers of the same *Ring
// value; a concurrently mutated ring must be handled clone-and-swap style:
// next := r.Clone(); next.Add(...); then publish next under a lock, exactly
// what the sharded layer's rebalancer does.
type Ring struct {
	vnodes int
	points []point  // sorted by hash, ties broken by shard name
	shards []string // sorted shard names
}

type point struct {
	hash  uint64
	shard string
}

// New builds a ring over the given shard names with vnodes virtual nodes per
// shard. vnodes ≤ 0 means DefaultVirtualNodes. Duplicate shard names are
// collapsed. The points are sorted once, so building a ring of P points costs
// O(P log P) however many shards it has — the same ring a sequence of Adds
// builds, without re-sorting after each.
func New(shards []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	names := slices.Clone(shards)
	sort.Strings(names)
	names = slices.Compact(names)
	r := &Ring{vnodes: vnodes, shards: names, points: make([]point, 0, len(names)*vnodes)}
	for _, s := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashKey(vnodeName(s, v)), shard: s})
		}
	}
	r.sortPoints()
	return r
}

// Shards returns the shard names in sorted order.
func (r *Ring) Shards() []string {
	out := make([]string, len(r.shards))
	copy(out, r.shards)
	return out
}

// Size returns the number of shards.
func (r *Ring) Size() int { return len(r.shards) }

// Clone returns an independent deep copy: mutating the clone (or the
// original) never touches the other's backing arrays. It is the first half of
// the clone-and-swap pattern rebalancers use to mutate a ring that concurrent
// readers still hold.
func (r *Ring) Clone() *Ring {
	return &Ring{
		vnodes: r.vnodes,
		points: append([]point(nil), r.points...),
		shards: append([]string(nil), r.shards...),
	}
}

// VirtualNodes returns the ring's virtual-node count per shard (after
// defaulting), so a ring of identical geometry can be rebuilt elsewhere from
// (Shards(), VirtualNodes()) alone — how migration commands carry a ring
// config through a replicated log.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Add inserts a shard into the ring. Adding an existing shard is a no-op.
// Per the copy-on-write contract, the shard and point arrays are rebuilt into
// fresh slices rather than mutated in place.
func (r *Ring) Add(shard string) {
	i := sort.SearchStrings(r.shards, shard)
	if i < len(r.shards) && r.shards[i] == shard {
		return
	}
	shards := make([]string, 0, len(r.shards)+1)
	shards = append(shards, r.shards[:i]...)
	shards = append(shards, shard)
	shards = append(shards, r.shards[i:]...)
	r.shards = shards

	points := make([]point, 0, len(r.points)+r.vnodes)
	points = append(points, r.points...)
	for v := 0; v < r.vnodes; v++ {
		points = append(points, point{hash: hashKey(vnodeName(shard, v)), shard: shard})
	}
	r.points = points
	r.sortPoints()
}

// Remove deletes a shard from the ring. Removing an unknown shard is a no-op.
// The surviving points are rebuilt into a fresh slice — never filtered in
// place — so a reader holding the pre-Remove point array (via a concurrent
// Shard call or an earlier ring view) cannot observe torn state.
func (r *Ring) Remove(shard string) {
	i := sort.SearchStrings(r.shards, shard)
	if i >= len(r.shards) || r.shards[i] != shard {
		return
	}
	shards := make([]string, 0, len(r.shards)-1)
	shards = append(shards, r.shards[:i]...)
	shards = append(shards, r.shards[i+1:]...)
	r.shards = shards

	kept := make([]point, 0, len(r.points))
	for _, pt := range r.points {
		if pt.shard != shard {
			kept = append(kept, pt)
		}
	}
	r.points = kept
}

// Shard returns the shard responsible for key: the first virtual node at or
// clockwise after the key's hash. It returns "" on an empty ring.
func (r *Ring) Shard(key string) string { return r.ShardAt(hashKey(key)) }

// ShardAt returns the shard owning the circle position h — the primitive
// behind Shard and behind the ring-diff helpers (Ceders, Moved). It returns
// "" on an empty ring.
func (r *Ring) ShardAt(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].shard
}

// Moved reports whether key's owner changes when the ring changes from old to
// next, returning both owners. It is the per-key form of the ring diff: the
// set of keys that must be handed off by a rebalance is exactly the set for
// which Moved reports true.
func Moved(old, next *Ring, key string) (from, to string, moved bool) {
	from, to = old.Shard(key), next.Shard(key)
	return from, to, from != to
}

// Ceders returns, in sorted order, the shards that cede key ranges when the
// ring changes from old to next: every shard owning an arc of the old ring
// whose owner differs in the new one. A rebalancer drains exactly these
// groups. Ownership is piecewise-constant between virtual-node positions, so
// comparing the owners at every position of both rings covers every arc of
// their common refinement — no key hash can change owners without some
// boundary position changing owners too.
func Ceders(old, next *Ring) []string {
	set := make(map[string]bool)
	for _, r := range []*Ring{old, next} {
		for _, pt := range r.points {
			if from, to := old.ShardAt(pt.hash), next.ShardAt(pt.hash); from != to && from != "" {
				set[from] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// sortPoints restores the ring order: by hash, with the shard name breaking
// the (astronomically rare) 64-bit collisions deterministically.
func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// vnodeName names virtual node v of a shard on the circle.
func vnodeName(shard string, v int) string {
	return fmt.Sprintf("%s#%d", shard, v)
}

// hashKey is the ring's hash function: 64-bit FNV-1a finished with murmur3's
// fmix64 avalanche. Plain FNV-1a clusters badly on short structured names
// like "shard-3#17" (arc shares off by 2x in practice); the finalizer spreads
// those inputs uniformly around the circle. Fast, dependency-free and fully
// deterministic across processes and runs (unlike Go's seeded map hash).
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ShardNames generates the canonical names of n shards ("shard-0" …
// "shard-<n-1>"), the naming the sharded KV and the benchmarks use.
func ShardNames(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("shard-%d", i))
	}
	return out
}
