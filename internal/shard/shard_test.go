package shard

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDeterministicMapping builds the same ring twice and checks that every
// key maps identically — the property that lets independent clients of one
// configuration agree on routing without coordination.
func TestDeterministicMapping(t *testing.T) {
	a := New(ShardNames(5), 0)
	b := New(ShardNames(5), 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if got, want := a.Shard(key), b.Shard(key); got != want {
			t.Fatalf("ring disagreement on %q: %q vs %q", key, got, want)
		}
	}
}

// TestConstructionOrderIrrelevant checks that the mapping depends only on the
// shard set, not on the order shards were added.
func TestConstructionOrderIrrelevant(t *testing.T) {
	a := New([]string{"shard-0", "shard-1", "shard-2"}, 64)
	b := New([]string{"shard-2", "shard-0", "shard-1"}, 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if got, want := a.Shard(key), b.Shard(key); got != want {
			t.Fatalf("order-dependent mapping on %q: %q vs %q", key, got, want)
		}
	}
}

// TestNewMatchesIncrementalAdds pins New's one-sort construction to the ring
// a sequence of Adds builds, duplicates included.
func TestNewMatchesIncrementalAdds(t *testing.T) {
	names := []string{"shard-3", "shard-0", "shard-3", "shard-1", ""}
	built := New(names, 32)
	added := New(nil, 32)
	for _, n := range names {
		added.Add(n)
	}
	if !reflect.DeepEqual(built.points, added.points) || !reflect.DeepEqual(built.shards, added.shards) {
		t.Fatalf("New and incremental Adds built different rings: %v vs %v", built.shards, added.shards)
	}
}

// TestDistributionBalance spreads ≥10k keys over the ring and checks every
// shard's load is within tolerance of the ideal share.
func TestDistributionBalance(t *testing.T) {
	const keys = 20000
	const shards = 8
	r := New(ShardNames(shards), 0)
	counts := make(map[string]int)
	for i := 0; i < keys; i++ {
		counts[r.Shard(fmt.Sprintf("user/%d/profile", i))]++
	}
	if len(counts) != shards {
		t.Fatalf("keys landed on %d shards, want %d", len(counts), shards)
	}
	ideal := float64(keys) / shards
	for shard, n := range counts {
		ratio := float64(n) / ideal
		if ratio < 0.5 || ratio > 1.5 {
			t.Errorf("shard %s holds %d keys (%.2fx the ideal %d): imbalance beyond ±50%%", shard, n, ratio, int(ideal))
		}
	}
}

// TestMinimalMovementOnAdd checks consistent hashing's defining property:
// growing the ring from S to S+1 shards remaps roughly 1/(S+1) of the keys
// and never moves a key between two pre-existing shards.
func TestMinimalMovementOnAdd(t *testing.T) {
	const keys = 10000
	before := New(ShardNames(4), 0)
	after := New(ShardNames(4), 0)
	after.Add("shard-4")

	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		src, dst := before.Shard(key), after.Shard(key)
		if src == dst {
			continue
		}
		moved++
		if dst != "shard-4" {
			t.Fatalf("key %q moved %q -> %q, not to the new shard", key, src, dst)
		}
	}
	// Expected movement is keys/5 = 20%; allow generous slack around it.
	if frac := float64(moved) / keys; frac < 0.05 || frac > 0.40 {
		t.Errorf("adding a 5th shard moved %.1f%% of keys, want ≈20%%", 100*frac)
	}
}

// TestMinimalMovementOnRemove checks the symmetric property: removing a shard
// only remaps the keys it owned.
func TestMinimalMovementOnRemove(t *testing.T) {
	const keys = 10000
	before := New(ShardNames(5), 0)
	after := New(ShardNames(5), 0)
	after.Remove("shard-2")

	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		src, dst := before.Shard(key), after.Shard(key)
		if src != "shard-2" && src != dst {
			t.Fatalf("key %q moved %q -> %q although its shard was not removed", key, src, dst)
		}
		if src == "shard-2" && dst == "shard-2" {
			t.Fatalf("key %q still maps to the removed shard", key)
		}
	}
}

// TestCloneIsIndependent pins the clone-and-swap contract: mutating a clone
// never disturbs the original (and vice versa), which is what lets a
// rebalancer build the next ring while readers keep routing on the current
// one.
func TestCloneIsIndependent(t *testing.T) {
	orig := New(ShardNames(4), 0)
	next := orig.Clone()
	next.Add("shard-4")
	next.Remove("shard-0")

	ref := New(ShardNames(4), 0)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if got, want := orig.Shard(key), ref.Shard(key); got != want {
			t.Fatalf("mutating the clone changed the original's route for %q: %q, want %q", key, got, want)
		}
	}
	if orig.Size() != 4 || next.Size() != 4 {
		t.Fatalf("sizes after clone mutation: orig %d next %d, want 4 and 4", orig.Size(), next.Size())
	}
}

// TestRemoveCopiesPoints pins the copy-on-write contract the doc promises:
// Remove must rebuild the surviving points into a fresh slice, so a reader
// that captured the ring's state before the Remove keeps observing the old,
// consistent ring — in-place filtering would shuffle survivors down the SAME
// backing array under the reader's feet.
func TestRemoveCopiesPoints(t *testing.T) {
	r := New(ShardNames(5), 32)
	before := r.Clone() // shares nothing, records the pre-Remove routes
	beforePoints := r.points
	r.Remove("shard-2")
	for i, pt := range beforePoints {
		if pt != before.points[i] {
			t.Fatalf("Remove mutated the old backing array at %d: %+v, want %+v", i, pt, before.points[i])
		}
	}
	// And the survivor really is gone from the rebuilt ring.
	for _, pt := range r.points {
		if pt.shard == "shard-2" {
			t.Fatalf("removed shard still owns point %d", pt.hash)
		}
	}
}

// TestCedersMatchesMovedKeys asserts the ring-diff API agrees with the ground
// truth: the set of shards Ceders reports for a ring change equals the set of
// old owners of the keys that actually change owner, and every key Moved
// reports lands where the new ring routes it.
func TestCedersMatchesMovedKeys(t *testing.T) {
	const keys = 20000
	cases := []struct {
		name string
		old  *Ring
		next *Ring
	}{
		{"add", New(ShardNames(4), 0), New(append(ShardNames(4), "shard-4"), 0)},
		{"remove", New(ShardNames(5), 0), New(ShardNames(4), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			predicted := make(map[string]bool)
			for _, c := range Ceders(tc.old, tc.next) {
				predicted[c] = true
			}
			actual := make(map[string]bool)
			moved := 0
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("user/%d/cart", i)
				from, to, m := Moved(tc.old, tc.next, key)
				if !m {
					if from != to {
						t.Fatalf("Moved(%q) = false with owners %q -> %q", key, from, to)
					}
					continue
				}
				moved++
				actual[from] = true
				if want := tc.next.Shard(key); to != want {
					t.Fatalf("Moved(%q) reports destination %q, new ring routes to %q", key, to, want)
				}
				if !predicted[from] {
					t.Fatalf("key %q moves out of %q, which Ceders did not report (%v)", key, from, Ceders(tc.old, tc.next))
				}
			}
			if moved == 0 {
				t.Fatalf("no key moved across the %s change", tc.name)
			}
			// Every predicted ceder must actually cede at least one key at
			// this key count — a ceder owns whole arcs, and 20k keys hit
			// every arc of a ≤5-shard default-vnode ring with overwhelming
			// probability.
			for c := range predicted {
				if !actual[c] {
					t.Errorf("Ceders reports %q but no sampled key moved out of it", c)
				}
			}
		})
	}
}

// TestEmptyAndSingle covers the degenerate rings.
func TestEmptyAndSingle(t *testing.T) {
	empty := New(nil, 0)
	if got := empty.Shard("anything"); got != "" {
		t.Fatalf("empty ring routed to %q, want \"\"", got)
	}
	single := New([]string{"only"}, 0)
	for i := 0; i < 100; i++ {
		if got := single.Shard(fmt.Sprintf("k%d", i)); got != "only" {
			t.Fatalf("single-shard ring routed to %q", got)
		}
	}
	single.Add("only") // duplicate add is a no-op
	if single.Size() != 1 {
		t.Fatalf("duplicate Add changed size to %d", single.Size())
	}
}
