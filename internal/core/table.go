package core

// Summary tables with epoch-sweep support. The streaming hot path only
// ever touches one cell per subspace per point, so lazy decay keeps
// ingestion cost independent of table size — but it also means a cell
// abandoned by a drifting stream is never visited again and its
// near-zero summary lingers forever. The tables below add the missing
// half of the lifecycle: a periodic sweep that visits every summary
// once per epoch, evicts the ones whose decayed weight has fallen below
// a floor ε, and hands every survivor to a caller-supplied visitor so
// the same scan can feed density accounting and SST evolution without a
// second pass over the data.
//
// The projected-cell table is the single hottest structure in the
// system: with ~1.3k SST subspaces every ingested point performs ~1.3k
// cell lookups, so the index is a custom open-addressing hash table
// rather than a Go map. Each bucket carries the packed uint64 cell key
// inline next to its dense-slot reference, so a lookup hit touches
// exactly one index cache line: hash the key with an inline xor-shift +
// Fibonacci multiply, load the home bucket, compare, done — no hashing
// call, no second indirection into the key slice, and linear probing on
// the rare collision. The previous map-backed implementation lives on
// as the differential-testing oracle MapPCSTable in table_oracle_test.go.

import "math/bits"

const (
	// oaMinBuckets is the initial bucket-array capacity; always a power
	// of two so the probe sequence can wrap with a mask.
	oaMinBuckets = 64
	// oaMigrateStride is how many old-table buckets each insert drains
	// during an incremental rehash. Growth triggers at 3/4 occupancy
	// and doubles the array, so the old table is fully drained long
	// before the new one can need growing again.
	oaMigrateStride = 16
)

// cellHash mixes a packed cell key into a well-distributed 64-bit hash:
// an xor-shift fold (cell keys concentrate their entropy in the low
// coordinate bytes and the high subspace-ID bits) followed by a
// Fibonacci multiply by 2^64/φ, whose top bits index the bucket array.
func cellHash(key uint64) uint64 {
	key ^= key >> 33
	key *= 0x9E3779B97F4A7C15
	key ^= key >> 29
	return key
}

// oaBucket is one open-addressing bucket: the cell key inline plus the
// dense slot holding its summary, biased by one so ref==0 marks an
// empty bucket (key 0 is a legitimate cell key).
type oaBucket struct {
	key uint64
	ref uint32 // dense slot + 1; 0 = empty
}

// PCSTable stores the Projected Cell Summaries of one shard: an
// open-addressed cell-key index over dense keys/cells slices. The dense
// layout is what makes the epoch sweep a linear scan instead of a map
// iteration, and eviction a swap-remove instead of a tombstone; the
// index stores only key/slot pairs, never summaries. Not safe for
// concurrent use; each detector shard owns exactly one table.
type PCSTable struct {
	keys  []uint64
	cells []PCS

	// Open-addressing index. The home bucket of a key is the top
	// log2(len) bits of its hash (hash >> shift); collisions probe
	// linearly with a wrap mask.
	buckets []oaBucket
	shift   uint
	grow    int // occupancy that triggers the next doubling

	// Incremental-rehash state: after a doubling the previous bucket
	// array drains a few probe clusters per insert instead of stalling
	// one insert on a full rehash. Lookups consult the live array
	// first, then old; old is nil outside a rehash.
	old      []oaBucket
	oldShift uint
	oldLeft  int    // entries not yet migrated out of old
	scan     uint64 // cyclic migration cursor, always at a cluster boundary
}

// NewPCSTable returns an empty table.
func NewPCSTable() *PCSTable {
	return &PCSTable{}
}

// Len returns the number of populated cells in the table.
func (t *PCSTable) Len() int { return len(t.cells) }

// Get returns the summary for the cell key, creating an empty summary
// stamped at tick if the cell was not yet populated. The returned
// pointer is invalidated by the next Get that inserts or the next
// Sweep; hot loops use it immediately and never retain it. Zero heap
// allocations for existing cells.
func (t *PCSTable) Get(key uint64, tick uint64) *PCS {
	return &t.cells[t.GetSlot(key, tick)]
}

// GetSlot is Get returning the cell's dense slot instead of a summary
// pointer, for callers that cache slots across touches: slots are
// stable under Get/insert (appends never move existing cells) and are
// invalidated only by Sweep/EvictIf compaction. Pair with CellAt.
func (t *PCSTable) GetSlot(key uint64, tick uint64) uint32 {
	if t.buckets != nil {
		mask := uint64(len(t.buckets) - 1)
		for i := cellHash(key) >> t.shift; ; i = (i + 1) & mask {
			b := t.buckets[i]
			if b.key == key && b.ref != 0 {
				return b.ref - 1
			}
			if b.ref == 0 {
				break
			}
		}
		if t.old != nil {
			if s, ok := oaFind(t.old, t.oldShift, key); ok {
				return s
			}
		}
	}
	s := uint32(len(t.cells))
	t.cells = append(t.cells, PCS{Last: tick})
	t.keys = append(t.keys, key)
	t.insert(key, s)
	return s
}

// CellAt returns the summary at dense slot i, as previously returned by
// GetSlot. The slot must not have been invalidated by a Sweep or
// EvictIf since.
func (t *PCSTable) CellAt(i uint32) *PCS { return &t.cells[i] }

// Contains reports whether the cell key is populated, without
// inserting. Used by the epoch path to detect representatives whose
// cells a sweep just evicted.
func (t *PCSTable) Contains(key uint64) bool {
	if t.buckets == nil {
		return false
	}
	if _, ok := oaFind(t.buckets, t.shift, key); ok {
		return true
	}
	if t.old != nil {
		if _, ok := oaFind(t.old, t.oldShift, key); ok {
			return true
		}
	}
	return false
}

// TouchRuns is the batch touch the detector's hot path is built on.
// The caller lays a tile of subspaces out as consecutive stripes of n
// positions, one stripe per subspace with stripe position i holding
// the cell key of the batch's point i, and groups the tile's keys into
// per-cell runs (Grouper.Group; for a one-point batch
// Grouper.Singletons, whose runs are single touches at t0+1 folded in
// a lean loop of their own). A run never leaves its stripe, since keys
// of different subspaces differ, and stripe position i touches at tick
// t0+i+1 with magnitude mags[i]. TouchRuns probes the index once per
// distinct cell and folds that cell's whole run with the summary held
// in registers across the run (the body of PCS.TouchRun, inlined).
// Post-touch magnitude sums and densities land in ss/dcs at the run
// positions, so the caller's verdict pass reads the exact per-point
// trajectory of a point-by-point feed: within a cell the ticks fold in
// increasing order and across cells the summaries share no state,
// which is the whole bit-identical argument. Runs of a dense stream
// average many points per cell, so the per-point cost drops to the fold
// itself; misses and rehash-in-flight lookups fall back to GetSlot,
// which rechecks everything and may grow the index — the cached
// geometry is reloaded after every fallback. Zero heap allocations
// when every cell exists.
func (t *PCSTable) TouchRuns(d *DecayTable, t0 uint64, n int, g *Grouper, mags, ss, dcs []float64) {
	buckets, cells, shift := t.buckets, t.cells, t.shift
	if g.single {
		// Singleton runs (a one-point batch): each key folds one touch
		// at t0+1, in a loop lean enough that the independent probe and
		// cell misses of many keys stay in flight at once.
		tick := t0 + 1
		mags = mags[:len(g.keys)]
		ss = ss[:len(g.keys)]
		dcs = dcs[:len(g.keys)]
		for gi, key := range g.keys {
			var slot uint32
			ok := false
			if buckets != nil {
				slot, ok = oaFind(buckets, shift, key)
			}
			if !ok {
				slot = t.GetSlot(key, tick)
				buckets, cells, shift = t.buckets, t.cells, t.shift
			}
			p := &cells[slot]
			dc, sv, q := p.Dc, p.S, p.Q
			if p.Last != tick {
				f := d.At(tick - p.Last)
				dc *= f
				sv *= f
				q *= f
			}
			m := mags[gi]
			dc++
			sv += m
			q += m * m
			p.Dc, p.S, p.Q, p.Last = dc, sv, q, tick
			ss[gi] = sv
			dcs[gi] = dc
		}
		return
	}
	// Groups come in first-seen order, so their first positions rise
	// and the stripe of the current run only ever moves forward: a
	// division-free walk. tb is t0 shifted back by the stripe start
	// (modular, like every tick sum here), so position i ticks at
	// tb+i+1.
	stripe := 0
	for gi, key := range g.keys {
		first := g.head[gi]
		for int(first) >= stripe+n {
			stripe += n
		}
		tb := t0 - uint64(stripe)
		var slot uint32
		ok := false
		if buckets != nil {
			slot, ok = oaFind(buckets, shift, key)
		}
		if !ok {
			slot = t.GetSlot(key, tb+uint64(first)+1)
			buckets, cells, shift = t.buckets, t.cells, t.shift
		}
		// The body of PCS.TouchRun, inlined: the cell is loaded and
		// stored once per run instead of once per point.
		p := &cells[slot]
		dc, sv, q, last := p.Dc, p.S, p.Q, p.Last
		for i := first; i >= 0; i = g.next[i] {
			tick := tb + uint64(i) + 1
			if last != tick {
				f := d.At(tick - last)
				dc *= f
				sv *= f
				q *= f
				last = tick
			}
			m := mags[i]
			dc++
			sv += m
			q += m * m
			ss[i] = sv
			dcs[i] = dc
		}
		p.Dc, p.S, p.Q, p.Last = dc, sv, q, last
	}
}

// At returns the key and summary at dense position i (0 ≤ i < Len).
// Positions are stable between sweeps but not across them.
func (t *PCSTable) At(i int) (uint64, *PCS) { return t.keys[i], &t.cells[i] }

// oaFind probes one bucket array for key, returning its dense slot.
func oaFind(buckets []oaBucket, shift uint, key uint64) (uint32, bool) {
	mask := uint64(len(buckets) - 1)
	for i := cellHash(key) >> shift; ; i = (i + 1) & mask {
		b := buckets[i]
		if b.key == key && b.ref != 0 {
			return b.ref - 1, true
		}
		if b.ref == 0 {
			return 0, false
		}
	}
}

// oaPlace inserts a bucket for a key known to be absent: probe to the
// first empty bucket.
func oaPlace(buckets []oaBucket, shift uint, key uint64, slot uint32) {
	mask := uint64(len(buckets) - 1)
	i := cellHash(key) >> shift
	for buckets[i].ref != 0 {
		i = (i + 1) & mask
	}
	buckets[i] = oaBucket{key: key, ref: slot + 1}
}

// insert indexes a freshly appended dense slot, growing and migrating
// as needed. Called after the append, so the live-array occupancy
// before this insert is len(cells)-1 minus whatever still sits in old.
func (t *PCSTable) insert(key uint64, slot uint32) {
	if len(t.cells)-1-t.oldLeft >= t.grow {
		t.growBuckets()
	}
	oaPlace(t.buckets, t.shift, key, slot)
	if t.old != nil {
		t.migrate(oaMigrateStride)
	}
}

// growBuckets doubles the bucket array (or allocates the initial one)
// and arms the incremental rehash. A rehash still in flight is drained
// first so at most two bucket arrays ever exist.
func (t *PCSTable) growBuckets() {
	if t.old != nil {
		t.migrate(len(t.old))
	}
	if t.buckets == nil {
		t.buckets = make([]oaBucket, oaMinBuckets)
		t.shift = 64 - uint(bits.TrailingZeros(oaMinBuckets))
	} else {
		t.old = t.buckets
		t.oldShift = t.shift
		t.oldLeft = len(t.cells) - 1
		// Start the migration cursor at an empty bucket so cluster-at-
		// a-time draining never splits a probe chain that wraps the
		// array end.
		t.scan = 0
		for t.old[t.scan].ref != 0 {
			t.scan++
		}
		t.buckets = make([]oaBucket, 2*len(t.old))
		t.shift--
		if t.oldLeft == 0 {
			t.old = nil
		}
	}
	// 3/4 load before doubling: measured against 7/8 on the d=20
	// benchmark table, the shorter probe chains beat the smaller
	// array.
	t.grow = len(t.buckets) * 3 / 4
}

// migrate drains up to stride old-array buckets into the live array.
// Entries move a whole probe cluster (maximal run of occupied buckets)
// at a time: every entry's home bucket lies within its cluster, so
// zeroing a complete cluster can never make a later probe for a
// not-yet-migrated key stop early, and lookups always consult the live
// array first for the keys already moved.
func (t *PCSTable) migrate(stride int) {
	if t.old == nil {
		return
	}
	mask := uint64(len(t.old) - 1)
	for t.oldLeft > 0 && stride > 0 {
		t.scan = (t.scan + 1) & mask
		stride--
		for t.old[t.scan].ref != 0 {
			b := t.old[t.scan]
			t.old[t.scan] = oaBucket{}
			oaPlace(t.buckets, t.shift, b.key, b.ref-1)
			t.oldLeft--
			t.scan = (t.scan + 1) & mask
			stride--
		}
	}
	if t.oldLeft == 0 {
		t.old = nil
	}
}

// unindex removes key's bucket with the standard linear-probing
// backward-shift deletion, so probe chains stay dense and no tombstones
// accumulate across epochs of eviction churn. Deletions interleaved
// with a rehash first drain it — deletes only come from the linear
// Sweep/EvictIf scans, which dwarf the remaining migration anyway.
func (t *PCSTable) unindex(key uint64) {
	if t.old != nil {
		t.migrate(len(t.old))
	}
	mask := uint64(len(t.buckets) - 1)
	i := cellHash(key) >> t.shift
	for !(t.buckets[i].key == key && t.buckets[i].ref != 0) {
		i = (i + 1) & mask
	}
	for {
		t.buckets[i] = oaBucket{}
		j := i
		for {
			j = (j + 1) & mask
			b := t.buckets[j]
			if b.ref == 0 {
				return
			}
			// The entry at j may slide back into the hole at i only if
			// its home bucket is cyclically outside (i, j] — otherwise
			// the move would detach it from its probe chain.
			if h := cellHash(b.key) >> t.shift; (j-h)&mask >= (j-i)&mask {
				t.buckets[i] = b
				i = j
				break
			}
		}
	}
}

// reslot repoints the bucket of key at a new dense slot (after a
// swap-remove moved it). Only called with no rehash in flight — unindex
// runs first in removeAt and drains any.
func (t *PCSTable) reslot(key uint64, slot uint32) {
	mask := uint64(len(t.buckets) - 1)
	for i := cellHash(key) >> t.shift; ; i = (i + 1) & mask {
		if b := t.buckets[i]; b.key == key && b.ref != 0 {
			t.buckets[i].ref = slot + 1
			return
		}
	}
}

// removeAt evicts the cell at dense position i by swap-remove: the
// last cell takes the freed slot and its bucket is repointed, so
// compaction is O(1) with no tombstones in the dense slices either.
func (t *PCSTable) removeAt(i int) {
	t.unindex(t.keys[i])
	last := len(t.cells) - 1
	if i != last {
		t.reslot(t.keys[last], uint32(i))
		t.cells[i] = t.cells[last]
		t.keys[i] = t.keys[last]
	}
	t.cells = t.cells[:last]
	t.keys = t.keys[:last]
}

// Sweep visits every cell once, evicting those whose decayed density at
// tick has fallen below eps and calling visit(key, dc) for each
// survivor with its decayed density. Eviction is a swap-remove, so the
// scan is O(cells) with no allocation. Returns the number of cells
// evicted.
func (t *PCSTable) Sweep(d *DecayTable, tick uint64, eps float64, visit func(key uint64, dc float64)) int {
	evicted := 0
	for i := 0; i < len(t.cells); {
		dc := t.cells[i].DcAt(d, tick)
		if dc < eps {
			t.removeAt(i)
			evicted++
			continue // the swapped-in cell now sits at i; revisit it
		}
		if visit != nil {
			visit(t.keys[i], dc)
		}
		i++
	}
	return evicted
}

// EvictIf removes every cell whose key matches pred and returns how
// many were removed. Same swap-remove compaction as Sweep; used to
// purge all cells of a subspace demoted from the SST so its ID can be
// reused without ghost summaries.
func (t *PCSTable) EvictIf(pred func(key uint64) bool) int {
	evicted := 0
	for i := 0; i < len(t.cells); {
		if !pred(t.keys[i]) {
			i++
			continue
		}
		t.removeAt(i)
		evicted++
	}
	return evicted
}

// BCSTable stores the Base Cell Summaries of the full d-dimensional
// space, keyed by the point's interval-index vector. Touch is
// allocation-free for existing cells (the compiler elides the string
// conversion used as a map index); only inserting a new cell
// materializes the key. Not safe for concurrent use; the detector's
// dispatcher goroutine owns it exclusively.
type BCSTable struct {
	dims  int
	cells map[string]*BCS
}

// NewBCSTable returns an empty base-cell table for a d-dimensional
// space.
func NewBCSTable(d int) *BCSTable {
	return &BCSTable{dims: d, cells: make(map[string]*BCS)}
}

// Len returns the number of populated base cells.
func (t *BCSTable) Len() int { return len(t.cells) }

// Touch folds point (length d), whose per-dimension interval indices
// are in coords, into its base cell at tick.
func (t *BCSTable) Touch(d *DecayTable, tick uint64, coords []uint8, point []float64) {
	b, ok := t.cells[string(coords)]
	if !ok {
		b = NewBCS(t.dims)
		b.Last = tick
		t.cells[string(coords)] = b
	}
	b.Touch(d, tick, point)
}

// Sweep visits every base cell once, evicting those whose decayed
// density at tick has fallen below eps and calling visit(key, b, dc)
// for each survivor with its summary and decayed density. key is the
// cell's interval-index vector as an immutable string (one byte per
// dimension) — callers needing a mutable copy convert it themselves,
// so the common no-collect sweep allocates nothing. Returns the number
// of cells evicted.
func (t *BCSTable) Sweep(d *DecayTable, tick uint64, eps float64, visit func(key string, b *BCS, dc float64)) int {
	evicted := 0
	for key, b := range t.cells {
		dc := b.DcAt(d, tick)
		if dc < eps {
			delete(t.cells, key)
			evicted++
			continue
		}
		if visit != nil {
			visit(key, b, dc)
		}
	}
	return evicted
}
