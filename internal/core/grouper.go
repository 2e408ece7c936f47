package core

import "math/bits"

// Grouper partitions a batch's cell keys into runs: all positions of the
// batch that land in the same cell, chained in increasing batch order.
// It is the grouping pass of the coalesced batch path — after key
// assembly, one Group call replaces "one index probe per point" with
// "one probe per distinct cell" downstream (PCSTable.TouchRuns), which
// is where dense streams spend most of their duplicate work.
//
// The grouper is a reusable scratch structure: a small open-addressed
// key index over the batch (power-of-two, ≤1/2 load, sized to the batch
// and cleared per call) plus first-seen-ordered group arrays and a
// per-position next chain. All backing arrays are retained across
// calls, so steady state — the same batch size over and over, as the
// detector's shards drive it — performs zero heap allocations. Not safe
// for concurrent use; each detector shard owns one.
type Grouper struct {
	slots []int32 // open-addressed key index: group index + 1, 0 = empty
	shift uint    // home slot of a key = cellHash(key) >> shift

	keys []uint64 // distinct cell keys, first-seen order
	head []int32  // first batch position of each group's run
	tail []int32  // last batch position of each group's run
	next []int32  // next position of the same run, -1 ends it

	// single marks a Singletons grouping: group i is position i alone,
	// and head/tail/next are not kept.
	single bool
}

// grouperMinSlots is the smallest key-index size: 16 int32 slots fill
// one cache line, which is all a tiny sub-batch (an epoch split can cut
// a batch to a handful of points) clears.
const grouperMinSlots = 16

// Group partitions keys — one cell key per batch position, in tick
// order — into per-cell runs, replacing any previous grouping. Runs
// preserve batch order: walking a group's chain visits its positions in
// increasing order, which is what keeps the downstream run fold on the
// same tick trajectory as the pointwise path. The key index is sized
// to this call's batch, not the largest seen, so a small sub-batch
// after full-size ones clears only the slots it uses.
func (g *Grouper) Group(keys []uint64) {
	g.single = false
	n := len(keys)
	want := grouperMinSlots
	for want < 2*n {
		want <<= 1
	}
	if cap(g.slots) < want {
		g.slots = make([]int32, want)
	} else {
		g.slots = g.slots[:want]
		clear(g.slots)
	}
	g.shift = uint(64 - bits.TrailingZeros(uint(want)))
	if cap(g.next) < n {
		g.next = make([]int32, n)
		g.keys = make([]uint64, 0, n)
		g.head = make([]int32, 0, n)
		g.tail = make([]int32, 0, n)
	}
	g.next = g.next[:n]
	g.keys = g.keys[:0]
	g.head = g.head[:0]
	g.tail = g.tail[:0]
	mask := uint64(len(g.slots) - 1)
	shift := g.shift
	for i, key := range keys {
		j := cellHash(key) >> shift
		for {
			s := g.slots[j]
			if s == 0 {
				g.slots[j] = int32(len(g.keys)) + 1
				g.keys = append(g.keys, key)
				g.head = append(g.head, int32(i))
				g.tail = append(g.tail, int32(i))
				g.next[i] = -1
				break
			}
			if g.keys[s-1] == key {
				g.next[g.tail[s-1]] = int32(i)
				g.tail[s-1] = int32(i)
				g.next[i] = -1
				break
			}
			j = (j + 1) & mask
		}
	}
}

// Singletons starts a grouping of n keys the caller knows to be
// pairwise distinct, one run each in position order — the grouping
// Group would compute, without hashing or run chains — and returns the
// key buffer for the caller to fill before TouchRuns. The detector
// uses it for one-point batches, where every key of a tile belongs to
// a different subspace.
func (g *Grouper) Singletons(n int) []uint64 {
	if cap(g.keys) < n {
		g.keys = make([]uint64, n)
	}
	g.keys = g.keys[:n]
	g.single = true
	return g.keys
}

// Groups returns the number of distinct cells of the last Group call —
// the batch's distinct-cell count, the duplication statistic the bench
// harness reports per workload.
func (g *Grouper) Groups() int { return len(g.keys) }
