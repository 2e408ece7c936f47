package stream

import (
	"math"

	"spot/internal/core"
	"spot/internal/sst"
)

// repEmpty marks an unused representative slot; no real cell key uses
// subspace ID 2^24-1 together with all-ones coordinates.
const repEmpty = ^uint64(0)

// repDecayStride is how many ticks of fading may accumulate on the
// representative densities before they are brought current. Kept below
// the decay table size so the refresh stays a table lookup.
const repDecayStride = 32

// subspaceState is the per-subspace state a shard owns exclusively,
// laid out so one sequential walk over the states slice brings
// everything processBatch needs into cache: the subspace's member
// dimensions and packed-key base (copied out of the shared template at
// addSubspace time, so the hot loop never chases the template), the
// arity-derived constants, the decayed subspace totals (density plus
// magnitude moments, reusing PCS), and the greedily-maintained
// representative (densest-cell) set for IkRD.
type subspaceState struct {
	// Flattened subspace layout: member dimensions inline (first size
	// entries used) and the subspace ID pre-shifted into key position.
	dims    [core.MaxSubspaceDims]uint16
	keyBase uint64 // uint64(sid) << core.SubspaceShift

	total core.PCS // subspace-wide decayed totals

	// repsLast is the tick the subspace's representative densities
	// (kept in the shard's contiguous repKeys/repDcs arrays) were last
	// faded to. repMin/repMinI cache the sparsest representative so the
	// hot path can reject most touches with one compare: a cell's
	// stored representative density never exceeds the cell's current
	// density, so dc ≤ repMin means the touch can neither displace the
	// minimum nor meaningfully refresh a slot.
	repsLast uint64
	repMin   float64
	repMinI  int32

	// popFloor is the precomputed arity-aware RD flag threshold:
	// Config.RDPopulatedThreshold times the latest sweep's average
	// populated-cell density of this arity, zero while disabled or
	// before the first sweep. Refreshing it per sweep turns the hot
	// path's test into one compare against a cache-resident field.
	popFloor float64

	// rdThr/irsdThr/ikrdThr are the subspace's verdict thresholds for
	// the three measures. Without auto-thresholding they are exact
	// copies of the Config values (set once at addSubspace, so the hot
	// path reads the same cache line as the rest of the state instead
	// of the shared config); with Config.AutoThreshold they are
	// overwritten at every sweep with the calibrated per-arity
	// thresholds (refreshAutoThresholds).
	rdThr   float64
	irsdThr float64
	ikrdThr float64

	size       uint8   // subspace arity
	phiPow     float64 // φ^arity, the cell count under uniformity
	invMaxDist float64 // 1/((φ-1)*arity); 0 when φ==1
}

// shard owns an exclusive partition of the SST: the cell table, totals
// and representatives of its subspaces. Only one goroutine ever touches
// a shard's state while points flow, so the hot path is lock-free.
// Epoch sweeps run on the dispatcher goroutine with one shard and fan
// out to the shard workers themselves with several (each shard's table
// is exclusive either way); evolved-subspace add/remove always runs on
// the dispatcher with workers idle.
type shard struct {
	det  *Detector
	id   int
	subs []uint32 // subspace IDs owned by this shard

	states []subspaceState
	table  *core.PCSTable // cell key -> PCS, sweepable

	// Tile scratch of processBatch, one entry per (subspace, point)
	// pair of the current tile: cell keys, projected magnitudes, and
	// the post-touch cell magnitude sums and densities.
	bKeys []uint64
	bMags []float64
	bSS   []float64
	bDcs  []float64

	// Representatives: the k densest cells of every owned subspace,
	// maintained greedily in O(k) per touch, never a table scan.
	// Subspace li owns entries [li*K, (li+1)*K). One contiguous
	// backing per shard keeps the per-touch rep scan on the same
	// cache-resident stride as the states walk instead of chasing
	// per-subspace heap slices. repDcs fades with the stream so a
	// once-dense cell whose cluster drifts away is eventually evicted
	// instead of lingering as a ghost representative; all of a
	// subspace's slots decay by the same factor, so one shared
	// repsLast tick covers its set, and because decay factors compose
	// the refresh is batched every repDecayStride ticks — densities
	// are stale by at most one stride, which biases no comparison
	// meaningfully but cuts the hot-path multiplies 32×.
	repKeys []uint64
	repDcs  []float64

	verdict []uint64 // per-batch verdict bitset

	// grouper is the batch-coalescing scratch, shared across the
	// shard's subspaces: one tile groups, folds and finishes its verdict
	// pass before the next tile regroups, so a single grouper per shard
	// keeps the whole batch path at zero steady-state allocations.
	// coalPoints/coalDistinct/coalGroupings count the points, distinct
	// cells and subspace groupings — one per (subspace, sub-batch),
	// however many subspaces a tile groups at once — the duplication
	// statistics Stats and the bench harness report.
	grouper       core.Grouper
	coalPoints    uint64
	coalDistinct  uint64
	coalGroupings uint64

	sweepEvicted int           // eviction count of the last sweep (read after workers sync)
	sweepEvolved []evolvedCell // per-sweep scratch: surviving evolved-subspace cells

	// Auto-threshold sample buffers (Config.AutoThreshold): the
	// shard's per-(measure, arity) minima of the per-point measure
	// values at each sampled tick slot of the current epoch (+Inf when
	// no warm owned subspace contributed). Min-merged across shards by
	// the dispatcher's autoRefit after the sweep joins, then reset.
	autoSamp [autoMeasures][core.MaxSubspaceDims + 1][]float64

	// attr collects this shard's attribution entries for the current
	// batch when Config.Scoring is set: one entry per flagged
	// (subspace, cell) pair, point indices relative to the chunk. The
	// shard writes it lock-free during its verdict pass; the
	// dispatcher reads it after the batch joins, merges across shards
	// and sorts, so scores never depend on the shard layout.
	attr attrBuf
}

// evolvedCell is a surviving evolved-subspace cell recorded during a
// sweep, revisited for sparse classification once its subspace's
// average is known.
type evolvedCell struct {
	sid uint32
	dc  float64
}

func newShard(d *Detector, id int) *shard {
	s := &shard{
		det:   d,
		id:    id,
		table: core.NewPCSTable(),
	}
	if d.auto != nil {
		for m := range s.autoSamp {
			for ar := 1; ar <= core.MaxSubspaceDims; ar++ {
				s.autoSamp[m][ar] = make([]float64, d.auto.nSlots)
			}
		}
		s.resetAutoSamples()
	}
	return s
}

// addSubspace hands the shard ownership of subspace id, flattening the
// subspace's dimensions and constants into the shard-local state so the
// hot path never reads the shared template. Called at construction for
// the fixed group and from the epoch path for promoted evolved
// subspaces; never while workers are processing.
func (s *shard) addSubspace(id uint32) {
	s.subs = append(s.subs, id)
	phi := s.det.grid.Phi()
	size := s.det.tmpl.Size(int(id))
	st := subspaceState{
		keyBase: uint64(id) << core.SubspaceShift,
		size:    uint8(size),
		phiPow:  math.Pow(float64(phi), float64(size)),
		rdThr:   s.det.cfg.RDThreshold,
		irsdThr: s.det.cfg.IRSDThreshold,
		ikrdThr: s.det.cfg.IkRDThreshold,
	}
	copy(st.dims[:], s.det.tmpl.Dims(int(id)))
	if phi > 1 {
		st.invMaxDist = 1 / float64((phi-1)*size)
	}
	s.states = append(s.states, st)
	for i := 0; i < s.det.cfg.K; i++ {
		s.repKeys = append(s.repKeys, repEmpty)
		s.repDcs = append(s.repDcs, 0)
	}
}

// removeSubspace drops a demoted subspace: its per-subspace state goes
// by swap-remove and every one of its cells is purged from the table so
// a later reuse of the ID starts from nothing. Epoch-path only.
func (s *shard) removeSubspace(id uint32) {
	for i, sid := range s.subs {
		if sid != id {
			continue
		}
		last := len(s.subs) - 1
		s.subs[i] = s.subs[last]
		s.subs = s.subs[:last]
		s.states[i] = s.states[last]
		s.states = s.states[:last]
		k := s.det.cfg.K
		copy(s.repKeys[i*k:(i+1)*k], s.repKeys[last*k:(last+1)*k])
		copy(s.repDcs[i*k:(i+1)*k], s.repDcs[last*k:(last+1)*k])
		s.repKeys = s.repKeys[:last*k]
		s.repDcs = s.repDcs[:last*k]
		break
	}
	s.table.EvictIf(func(key uint64) bool {
		return uint32(key>>core.SubspaceShift) == id
	})
}

// allPass is the inline all-measures-pass exit of both verdict loops:
// it reports whether a warm (subspace, cell) pair clears every measure
// outright — RD at or above its threshold (lhs = dc·φ^arity against
// rhs = rdThr·tdc), density at or above the populated floor, and
// rd ≥ 1, the gate in front of IRSD and IkRD. It is the exact
// complement of the conditions under which scoredVerdict can fire; the
// >= compares send a NaN to the full evaluation rather than through the
// exit. Small enough to inline (scripts/inline_check.sh guards this),
// it keeps the common pair free of calls.
func allPass(lhs, rhs, dc, popFloor, tdc float64) bool {
	return lhs >= rhs && dc >= popFloor && lhs >= tdc
}

// tilePairs is how many (subspace, point) pairs one tile of
// processBatch covers: a tile spans max(1, tilePairs/n) subspaces of an
// n-point batch. A 512-point batch thus runs one subspace per tile, and
// a single point probes hundreds of subspaces' independent cells in one
// TouchRuns loop, so the CPU overlaps their cache misses.
const tilePairs = 512

// processBatch runs a batch of jb.n points (one point for the pointwise
// API) through the shard, recording verdicts in the shard-local bitset
// (OR-merged word-wise by the dispatcher).
//
// The batch is processed in tiles of consecutive owned subspaces, each
// tile laid out subspace-major: stripe j of the tile's scratch holds
// its j-th subspace's value for every point. Within a tile the update
// is staged into array passes:
//
//   - Pass A assembles every (subspace, point) pair's packed cell key
//     and projected magnitude straight from the dimension-major batch
//     columns (assembleTile).
//   - Pass B groups the tile's keys by cell (core.Grouper; a one-point
//     batch has only singleton runs and skips the hashing) and probes
//     the table once per distinct cell, folding each cell's run with
//     the summary in registers (core.TouchRuns). On a dense stream most
//     of a batch lands in a few cells per subspace, so index probes and
//     cell-line traffic collapse to one per cell; for a single point
//     the loop's random accesses are mutually independent, so their
//     misses overlap instead of serializing each subspace's probe →
//     summary → verdict chain.
//   - Pass C folds the subspace totals, keeps the IkRD representatives
//     and decides the verdicts, per subspace and per point in tick
//     order.
//
// Each cell folds its touches in per-point tick order and subspaces
// share no state, so summaries and verdicts are bit-identical to a
// point-by-point feed whatever the batch size and tiling. A tile that
// spans one subspace keeps that subspace's index buckets, cell lines
// and representatives L1-resident across the batch.
//
// A (subspace, point) pair that flags nothing makes no function call
// in pass C: the decay lookups inline, the all-pass exit (allPass) is
// inline, and the auto-threshold sample slots come precomputed per
// batch in jb.slots, so no pair divides by the epoch geometry. Only
// flagging pairs, pairs below the uniform expectation and sampled
// ticks call out.
func (s *shard) processBatch(jb job) {
	n := jb.n
	words := (n + 63) >> 6
	if cap(s.verdict) < words {
		s.verdict = make([]uint64, words)
	} else {
		s.verdict = s.verdict[:words]
		clear(s.verdict)
	}
	width := max(1, tilePairs/n)
	if need := width * n; cap(s.bMags) < need {
		s.bKeys = make([]uint64, need)
		s.bMags = make([]float64, need)
		s.bSS = make([]float64, need)
		s.bDcs = make([]float64, need)
	}
	verdict := s.verdict
	decay := s.det.decay
	cfg := &s.det.cfg
	tbl := s.table
	warmup := cfg.Warmup
	k := cfg.K
	scoring := cfg.Scoring
	if scoring {
		s.attr.reset()
	}
	f1 := decay.At(1)
	// Auto-thresholding samples the per-point measure values on a
	// deterministic tick stride. The slot of tick t0+i+1 depends on the
	// tick alone, so the dispatcher computes the batch's slots once
	// (nil without auto-thresholding) instead of every pair dividing.
	slots := jb.slots
	for l0 := 0; l0 < len(s.states); l0 += width {
		l1 := min(l0+width, len(s.states))
		pairs := (l1 - l0) * n
		tKeys := s.bKeys[:pairs]
		tMags := s.bMags[:pairs]
		// Passes A and B. A one-point tile's keys are its runs, so they
		// are assembled straight into the grouper.
		if n == 1 {
			tKeys = s.grouper.Singletons(pairs)
		}
		assembleTile(s.states[l0:l1], jb.planeT, jb.flatT, n, tKeys, tMags)
		if n > 1 {
			s.grouper.Group(tKeys)
		}
		s.coalPoints += uint64(pairs)
		s.coalDistinct += uint64(s.grouper.Groups())
		s.coalGroupings += uint64(l1 - l0)
		tbl.TouchRuns(decay, jb.t0, n, &s.grouper, tMags, s.bSS, s.bDcs)
		// Pass C, one stripe per subspace: totals fold (the body of
		// PCS.Touch, inlined), IkRD representative upkeep and verdicts,
		// per point in tick order — the subspace totals trajectory each
		// point's verdict compares against is exactly the pointwise
		// one. The subspace's scalar state lives in locals across the
		// loop (written back once) so the per-point work reads
		// registers, not the state struct. The pair index p runs over
		// the stripe [p0, end) of the tile arrays: slicing all four to
		// pairs and clamping end to it (a no-op) leaves one bounds check
		// per pair, where re-slicing four arrays per subspace costs a
		// one-point batch ~10% of its time.
		tKeys, tMags = tKeys[:pairs], tMags[:pairs]
		ss, dcs := s.bSS[:pairs], s.bDcs[:pairs]
		for li, p0 := l0, 0; li < l1; li, p0 = li+1, p0+n {
			end := min(p0+n, pairs)
			st := &s.states[li]
			repKey := s.repKeys[li*k : li*k+k]
			repDc := s.repDcs[li*k : li*k+k]
			tt := &st.total
			tdc, ts, tq, tlast := tt.Dc, tt.S, tt.Q, tt.Last
			repMin, repMinI, repsLast := st.repMin, st.repMinI, st.repsLast
			phiPow, popFloor, rdThr := st.phiPow, st.popFloor, st.rdThr
			tick := jb.t0
			for p := p0; p < end; p++ {
				i := p - p0
				tick++
				m := tMags[p]
				// Totals see every tick, so after the first point the
				// fade gap is exactly one — the hoisted f1 skips the
				// table lookup on the steady path.
				if tlast+1 == tick {
					tdc *= f1
					ts *= f1
					tq *= f1
					tlast = tick
				} else if tlast != tick {
					f := decay.At(tick - tlast)
					tdc *= f
					ts *= f
					tq *= f
					tlast = tick
				}
				tdc++
				ts += m
				tq += m * m
				key := tKeys[p]
				dc := dcs[p]
				// Fade the representative densities to the current tick
				// in strides (decay factors compose, so one batched
				// multiply per stride is exact up to rounding).
				if dt := tick - repsLast; dt >= repDecayStride {
					f := decay.At(dt)
					for j := range repDc {
						repDc[j] *= f
					}
					repMin *= f
					repsLast = tick
				}
				// Representative update behind the cached-minimum gate:
				// a touch with dc ≤ repMin can only be the minimum slot
				// refreshing itself with its unchanged density, a no-op.
				// Past the gate, refresh the slot this cell already
				// holds or displace the sparsest representative,
				// recomputing the cached minimum when it was the one
				// written.
				if dc > repMin {
					found := -1
					if k == 3 {
						// Branchless slot find for the default K:
						// conditional moves instead of a loop whose exit
						// position the predictor cannot guess.
						if repKey[2] == key {
							found = 2
						}
						if repKey[1] == key {
							found = 1
						}
						if repKey[0] == key {
							found = 0
						}
					} else {
						for j := range repKey {
							if repKey[j] == key {
								found = j
								break
							}
						}
					}
					if found < 0 {
						found = int(repMinI)
						repKey[found] = key
					}
					repDc[found] = dc
					if found == int(repMinI) {
						repMin = repDc[0]
						repMinI = 0
						for j := 1; j < k; j++ {
							if repDc[j] < repMin {
								repMin = repDc[j]
								repMinI = int32(j)
							}
						}
					}
				}
				if tdc < warmup {
					continue
				}
				// rd = dc·φ^arity/tdc, compared multiplicatively: the
				// flag test rd < rdThr and the IRSD/IkRD gate rd < 1
				// become one multiply each instead of a division.
				lhs := dc * phiPow
				if slots != nil {
					if slot := slots[i]; slot >= 0 {
						s.foldAutoSample(st, li, key, lhs, dc, ss[p], tdc, ts, tq, int(slot))
					}
				}
				rhs := rdThr * tdc
				if allPass(lhs, rhs, dc, popFloor, tdc) {
					continue
				}
				if fired, sev := s.scoredVerdict(st, li, key, lhs, dc, ss[p], tdc, ts, tq, rdThr); fired != 0 {
					verdict[i>>6] |= 1 << (uint(i) & 63)
					if scoring {
						s.attr.add(int32(i), s.subs[li], key, fired, sev)
					}
				}
			}
			tt.Dc, tt.S, tt.Q, tt.Last = tdc, ts, tq, tlast
			st.repMin, st.repMinI, st.repsLast = repMin, repMinI, repsLast
		}
	}
}

// assembleTile is pass A of processBatch: for each subspace of states
// and each of the batch's n points it packs the point's cell key and
// sums its projected magnitude into stripe j of keys and mags (entry
// j*n+i), reading the member dimensions' columns of the dimension-major
// batch (column dim of planeT/flatT spans [dim*n, (dim+1)*n)). Arities
// 1–3, the fixed group's bulk, assemble with constant shifts; the
// template enumerates by increasing arity and shards deal round-robin,
// so the arity switch runs in long predictable runs.
func assembleTile(states []subspaceState, planeT []uint8, flatT []float64, n int, keys []uint64, mags []float64) {
	if n == 1 {
		// One point: the columns are single values, indexed by the
		// member dimensions directly.
		keys = keys[:len(states)]
		mags = mags[:len(states)]
		for j := range states {
			st := &states[j]
			key := st.keyBase
			var m float64
			switch st.size {
			case 1:
				d0 := st.dims[0]
				key |= uint64(planeT[d0])
				m = flatT[d0]
			case 2:
				d0, d1 := st.dims[0], st.dims[1]
				key |= uint64(planeT[d0]) | uint64(planeT[d1])<<core.CoordBits
				m = flatT[d0] + flatT[d1]
			case 3:
				d0, d1, d2 := st.dims[0], st.dims[1], st.dims[2]
				key |= uint64(planeT[d0]) | uint64(planeT[d1])<<core.CoordBits | uint64(planeT[d2])<<(2*core.CoordBits)
				m = flatT[d0] + flatT[d1] + flatT[d2]
			default:
				for jj, dim := range st.dims[:st.size] {
					key |= uint64(planeT[dim]) << (uint(jj) * core.CoordBits)
					m += flatT[dim]
				}
			}
			keys[j] = key
			mags[j] = m
		}
		return
	}
	for j := range states {
		st := &states[j]
		kb := st.keyBase
		ks := keys[j*n : j*n+n]
		ms := mags[j*n : j*n+n]
		d0 := int(st.dims[0]) * n
		c0, v0 := planeT[d0:d0+n], flatT[d0:d0+n]
		switch st.size {
		case 1:
			for i := range ks {
				ks[i] = kb | uint64(c0[i])
				ms[i] = v0[i]
			}
		case 2:
			d1 := int(st.dims[1]) * n
			c1, v1 := planeT[d1:d1+n], flatT[d1:d1+n]
			for i := range ks {
				ks[i] = kb | uint64(c0[i]) | uint64(c1[i])<<core.CoordBits
				ms[i] = v0[i] + v1[i]
			}
		case 3:
			d1 := int(st.dims[1]) * n
			d2 := int(st.dims[2]) * n
			c1, v1 := planeT[d1:d1+n], flatT[d1:d1+n]
			c2, v2 := planeT[d2:d2+n], flatT[d2:d2+n]
			for i := range ks {
				ks[i] = kb | uint64(c0[i]) | uint64(c1[i])<<core.CoordBits | uint64(c2[i])<<(2*core.CoordBits)
				ms[i] = v0[i] + v1[i] + v2[i]
			}
		default:
			for i := range ks {
				key := kb
				var m float64
				for jj, dim := range st.dims[:st.size] {
					off := int(dim)*n + i
					key |= uint64(planeT[off]) << (uint(jj) * core.CoordBits)
					m += flatT[off]
				}
				ks[i] = key
				ms[i] = m
			}
		}
	}
}

// sweep is the shard's slice of the epoch sweep: one linear pass over
// the cell table evicting summaries whose decayed density fell below
// eps and accumulating per-subspace populated/total statistics. When an
// evolver needs sparse counts, surviving evolved-subspace cells (few —
// the fixed group dominates the table) are remembered during the same
// pass and classified against their subspace's average afterwards, so
// the extra work is proportional to the evolved group's cells, not the
// table. Each subspace is owned by exactly one shard, so concurrent
// shard sweeps write disjoint perSub entries — the dispatcher may run
// all shards' sweeps in parallel on the shard workers. Returns the
// eviction count.
func (s *shard) sweep(tick uint64, eps float64, perSub []sst.SubspaceStats) int {
	tmpl := s.det.tmpl
	collect := s.det.cfg.Evolver != nil
	s.sweepEvolved = s.sweepEvolved[:0]
	evicted := s.table.Sweep(s.det.decay, tick, eps, func(key uint64, dc float64) {
		sid := uint32(key >> core.SubspaceShift)
		sub := &perSub[sid]
		sub.Populated++
		sub.TotalDc += dc
		if collect && !tmpl.IsFixed(int(sid)) {
			s.sweepEvolved = append(s.sweepEvolved, evolvedCell{sid: sid, dc: dc})
		}
	})
	if evicted > 0 {
		s.purgeEvictedReps()
	}
	if collect {
		ratio := s.det.cfg.SweepSparseRatio
		for _, c := range s.sweepEvolved {
			sub := &perSub[c.sid]
			if c.dc < ratio*sub.TotalDc/float64(sub.Populated) {
				sub.Sparse++
			}
		}
	}
	return evicted
}

// purgeEvictedReps drops representative entries whose cells the sweep
// just evicted and refreshes each affected subspace's cached minimum.
// This keeps the hot path's repMin gate sound: the gate's invariant —
// a representative's stored density never exceeds its cell's current
// density — holds for live cells but breaks when an evicted cell is
// re-created from zero, which would otherwise leave a ghost
// representative pinning a dead cluster into IkRD for thousands of
// ticks. Cells are only evicted by sweeps, so checking here re-
// establishes the invariant for the whole epoch. O(subspaces · K)
// probes, once per sweep.
func (s *shard) purgeEvictedReps() {
	k := s.det.cfg.K
	for li := range s.states {
		st := &s.states[li]
		repKey := s.repKeys[li*k : li*k+k]
		repDc := s.repDcs[li*k : li*k+k]
		changed := false
		for i, key := range repKey {
			if key != repEmpty && !s.table.Contains(key) {
				repKey[i] = repEmpty
				repDc[i] = 0
				changed = true
			}
		}
		if changed {
			st.repMin = repDc[0]
			st.repMinI = 0
			for i := 1; i < k; i++ {
				if repDc[i] < st.repMin {
					st.repMin = repDc[i]
					st.repMinI = int32(i)
				}
			}
		}
	}
}

// refreshPopFloors recomputes every owned subspace's precomputed
// arity-aware RD floor from the detector's per-arity populated
// averages. Called from the epoch path after each sweep publishes new
// averages; the floor is zero when the test is disabled or the arity
// has no swept cells yet, which disables the hot path's compare.
func (s *shard) refreshPopFloors() {
	thr := s.det.cfg.RDPopulatedThreshold
	if thr <= 0 {
		return
	}
	for i := range s.states {
		st := &s.states[i]
		st.popFloor = thr * s.det.popAvg[st.size]
	}
}

// scoredVerdict is the verdict for one (subspace, cell) pair that
// failed the inline all-pass exit: RD, the populated floor, and — behind
// the rd < 1 gate, because a subspace whose mass concentrates in few
// cells can leave a cell at or above the uniform expectation yet far
// below its populated peers — IRSD and IkRD. It evaluates every measure
// (attribution wants each fired one) and returns the fired set with the
// maximum normalized deficit (core.Deficit) among them; the pair flags
// iff fired != 0, which is what keeps verdict bits identical with
// scoring on or off. cellS is the cell's post-touch decayed magnitude
// sum and tdc/ts/tq the subspace totals, all snapshotted at the point's
// tick: the batch path keeps the totals in registers (st.total is
// written back only at batch end) and the cell line keeps absorbing
// later points of the same batch, so neither may be re-read here. The
// cell mean is only derived past the rd < 1 gate. Reached only past the
// warmup gate.
func (s *shard) scoredVerdict(st *subspaceState, li int, key uint64, lhs, dc, cellS, tdc, ts, tq, rdThr float64) (core.Measure, float64) {
	var fired core.Measure
	var sev float64
	if rhs := rdThr * tdc; lhs < rhs {
		fired = core.MeasureRD
		sev = core.Deficit(lhs, rhs)
	}
	if dc < st.popFloor {
		fired |= core.MeasureRDPopulated
		if s2 := core.Deficit(dc, st.popFloor); s2 > sev {
			sev = s2
		}
	}
	if lhs < tdc {
		if st.irsdThr > 0 && tdc > 0 {
			if irsd, ok := irsdOf(cellS/dc, tdc, ts, tq); ok && irsd < st.irsdThr {
				fired |= core.MeasureIRSD
				if s2 := core.Deficit(irsd, st.irsdThr); s2 > sev {
					sev = s2
				}
			}
		}
		if st.ikrdThr > 0 {
			if ikrd, ok := s.ikrdOf(st, li, key); ok && ikrd < st.ikrdThr {
				fired |= core.MeasureIkRD
				if s2 := core.Deficit(ikrd, st.ikrdThr); s2 > sev {
					sev = s2
				}
			}
		}
	}
	return fired, sev
}

// irsdOf is a cell's Inverse Relative Standard Deviation: how far its
// mean member magnitude sits from the subspace mean ts/tdc, in subspace
// standard deviations, mapped to (0,1] by 1/(1+z). ok is false when the
// subspace's magnitude variance is not positive and the measure is
// undefined. The verdict and the auto-threshold sampler both call it,
// so the sampled values are the compared ones, bit for bit.
func irsdOf(cellMean, tdc, ts, tq float64) (irsd float64, ok bool) {
	mu := ts / tdc
	v := tq/tdc - mu*mu
	if !(v > 0) {
		return 0, false
	}
	z := math.Abs(cellMean-mu) / math.Sqrt(v)
	return 1 / (1 + z), true
}

// ikrdOf is the Inverse k-Relative Distance of cell key in owned
// subspace li: the mean grid (L1) distance from the cell to the
// subspace's live representatives (its k densest cells, itself
// excluded), normalized by the subspace's diameter and inverted so that
// far-from-everything cells score low. ok is false when the subspace
// has no diameter (φ == 1) or no other live representative.
func (s *shard) ikrdOf(st *subspaceState, li int, key uint64) (ikrd float64, ok bool) {
	if st.invMaxDist <= 0 {
		return 0, false
	}
	k := s.det.cfg.K
	repKey := s.repKeys[li*k : li*k+k]
	repDc := s.repDcs[li*k : li*k+k]
	sum, cnt := 0.0, 0
	for i, rk := range repKey {
		if repDc[i] <= 0 || rk == key {
			continue
		}
		dist := 0
		for j := 0; j < int(st.size); j++ {
			dj := int(core.CoordAt(key, j)) - int(core.CoordAt(rk, j))
			if dj < 0 {
				dj = -dj
			}
			dist += dj
		}
		sum += float64(dist)
		cnt++
	}
	if cnt == 0 {
		return 0, false
	}
	return 1 - (sum/float64(cnt))*st.invMaxDist, true
}
