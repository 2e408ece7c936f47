package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGrouperPartitions drives Group over randomized key batches and
// checks the run invariants the coalesced fold depends on: every batch
// position appears in exactly one run, each run's positions share one
// key and come back in increasing batch order, and distinct keys map to
// distinct groups. Batch sizes vary across calls to exercise scratch
// reuse and the index resize path.
func TestGrouperPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var g Grouper
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(700)
		span := 1 + rng.Intn(2*n) // small span → heavy duplication, large → mostly unique
		keys := make([]uint64, n)
		for i := range keys {
			// Realistic keys: high subspace-ID bits plus low coordinate
			// bytes, including key 0.
			keys[i] = uint64(rng.Intn(3))<<SubspaceShift | uint64(rng.Intn(span))
		}
		g.Group(keys)

		distinct := map[uint64]bool{}
		for _, k := range keys {
			distinct[k] = true
		}
		if g.Groups() != len(distinct) {
			t.Fatalf("trial %d: %d groups, want %d distinct keys", trial, g.Groups(), len(distinct))
		}
		seen := make([]bool, n)
		for gi := 0; gi < g.Groups(); gi++ {
			key := g.keys[gi]
			prev := -1
			for i := int(g.head[gi]); i >= 0; i = int(g.next[i]) {
				if keys[i] != key {
					t.Fatalf("trial %d: position %d (key %x) chained into group of key %x", trial, i, keys[i], key)
				}
				if i <= prev {
					t.Fatalf("trial %d: run of key %x visits %d after %d — not in batch order", trial, key, i, prev)
				}
				if seen[i] {
					t.Fatalf("trial %d: position %d visited twice", trial, i)
				}
				seen[i] = true
				prev = i
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: position %d missing from every run", trial, i)
			}
		}
	}
}

// TestGrouperShrinksToBatch alternates full 512-key batches with tiny
// ones (1, 3 and 37 keys), the pattern epoch-split sub-batches produce:
// the index is resized to each batch, so every grouping — including a
// small one right after a large one, when stale slots from the larger
// index would still be set if only a prefix were cleared — must equal
// a map-built grouping of the same keys (first-seen key order, each
// run's positions in batch order).
func TestGrouperShrinksToBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var g Grouper
	for round := 0; round < 40; round++ {
		n := []int{512, 1, 512, 3, 512, 37}[round%6]
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(2))<<SubspaceShift | uint64(rng.Intn(1+n/4))
		}
		g.Group(keys)

		var order []uint64
		runs := map[uint64][]int{}
		for i, k := range keys {
			if _, ok := runs[k]; !ok {
				order = append(order, k)
			}
			runs[k] = append(runs[k], i)
		}
		if g.Groups() != len(order) {
			t.Fatalf("round %d (n=%d): %d groups, want %d", round, n, g.Groups(), len(order))
		}
		for gi, want := range order {
			if g.keys[gi] != want {
				t.Fatalf("round %d (n=%d): group %d key %x, want %x", round, n, gi, g.keys[gi], want)
			}
			var got []int
			for i := int(g.head[gi]); i >= 0; i = int(g.next[i]) {
				got = append(got, i)
			}
			if fmt.Sprint(got) != fmt.Sprint(runs[want]) {
				t.Fatalf("round %d (n=%d): run of key %x = %v, want %v", round, n, want, got, runs[want])
			}
		}
	}
}

// TestGrouperZeroAllocs pins the scratch contract: regrouping batches
// of the same size allocates nothing.
func TestGrouperZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var g Grouper
	keys := make([]uint64, 512)
	fill := func() {
		for i := range keys {
			keys[i] = uint64(rng.Intn(64))
		}
	}
	fill()
	g.Group(keys) // size the scratch
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		g.Group(keys)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Group allocates %.1f times per call, want 0", allocs)
	}
}
