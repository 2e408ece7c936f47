package stream

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"spot/internal/core"
	"spot/internal/evt"
	"spot/internal/snapshot"
	"spot/internal/sst"
)

// Checkpoint/restore of the full detector state. The contract is the
// same bit-identity discipline the shard and coalescing work is held
// to: a detector restored from a snapshot taken at a batch boundary
// emits exactly the verdicts the uninterrupted run would have emitted
// — every decayed summary, representative set, evolver accumulator
// and RNG position is reproduced, and cells are replayed in their
// dense table order so even the sweep's floating-point accumulation
// order is preserved. Restoring with a different shard count re-deals
// the subspaces (same rules New and the epoch path use) and is subject
// to the same ULP-level sweep-sum caveat as live shard-count changes.
//
// Quiescence: Snapshot runs on the goroutine that drives Process /
// ProcessBatch, between calls — the shard workers are idle at every
// such boundary by construction (ProcessBatch joins them before
// returning), so no extra synchronization is needed and none is taken.
//
// Wire format (snapshot format version 3): the sections below inside
// the internal/snapshot codec's framing (magic, format version, CRC32
// per section), in this fixed order. Version 2 extended secMeta with
// the scoring fields (Scoring flag, top-K capacity) and added the
// trailing secScore heap dump; version 3 extended secMeta with the
// auto-threshold fields (enabled flag, Risk, Level), prefixed
// secScore with the ranking-key rebase anchor, and added the trailing
// secAuto calibrator dump. Checkpoints of any other version are
// rejected with snapshot.ErrVersion per the skew policy.
const (
	secMeta     uint32 = 1 // geometry + tick; validated against Config
	secTemplate uint32 = 2 // evolved SST slots, tombstones, free list
	secShard    uint32 = 3 // one per shard: subspace states + cells
	secBase     uint32 = 4 // base-cell table, sorted by cell key
	secExamples uint32 = 5 // labeled outlier examples
	secCounters uint32 = 6 // popAvg + epoch-engine lifetime counters
	secEvolver  uint32 = 7 // evolver state (present iff marshalable)
	secScore    uint32 = 8 // top-K heap entries (present iff TopK > 0)
	secAuto     uint32 = 9 // EVT calibrators (present iff AutoThreshold)
)

// ErrConfigMismatch marks a Restore whose Config disagrees with the
// snapshot on a state-shaping parameter (dimensionality, grid, fixed
// template, representative count, fading factor, evolver presence or
// composition).
var ErrConfigMismatch = errors.New("stream: snapshot does not match the config")

// Snapshot serializes the detector's full state to w in the versioned,
// CRC-checked format of internal/snapshot. It must be called from the
// goroutine driving Process/ProcessBatch, between calls (the workers
// are idle at every such boundary); the detector is not mutated beyond
// its checkpoint telemetry counters, and processing may resume
// immediately after. Returns ErrClosed after Close.
func (d *Detector) Snapshot(w io.Writer) error {
	if d.closed {
		return ErrClosed
	}
	start := time.Now()
	sw, err := snapshot.NewWriter(w)
	if err != nil {
		return err
	}

	var evolverState []byte
	hasEvolverState := false
	if sm, ok := d.cfg.Evolver.(sst.StateMarshaler); ok {
		if evolverState, err = sm.MarshalState(); err != nil {
			return err
		}
		hasEvolverState = true
	}

	sw.Begin(secMeta)
	sw.U32(uint32(d.cfg.Dims))
	sw.U32(uint32(d.cfg.Phi))
	sw.U32(uint32(d.cfg.MaxSubspaceDim))
	sw.U32(uint32(len(d.shards)))
	sw.U32(uint32(d.cfg.K))
	sw.U64(d.cfg.EpochTicks)
	sw.F64(d.cfg.Lambda)
	sw.U64(d.tick)
	sw.Bool(d.cfg.Evolver != nil)
	sw.Bool(hasEvolverState)
	sw.Bool(d.cfg.Scoring)
	sw.U32(uint32(d.cfg.TopK))
	sw.Bool(d.auto != nil)
	sw.F64(d.cfg.AutoThreshold.Risk)
	sw.F64(d.cfg.AutoThreshold.Level)
	if err := sw.End(); err != nil {
		return err
	}

	sw.Begin(secTemplate)
	slots := d.tmpl.EvolvedSlots()
	sw.U32(uint32(len(slots)))
	for _, s := range slots {
		sw.Bool(s.Active)
		if s.Active {
			sw.U8(uint8(len(s.Dims)))
			for _, dim := range s.Dims {
				sw.U16(dim)
			}
		}
	}
	free := d.tmpl.FreeSlots()
	sw.U32(uint32(len(free)))
	for _, id := range free {
		sw.U32(id)
	}
	if err := sw.End(); err != nil {
		return err
	}

	k := d.cfg.K
	for si, sh := range d.shards {
		sw.Begin(secShard)
		sw.U32(uint32(si))
		sw.U32(uint32(len(sh.subs)))
		for li, sid := range sh.subs {
			st := &sh.states[li]
			sw.U32(sid)
			sw.F64(st.total.Dc)
			sw.F64(st.total.S)
			sw.F64(st.total.Q)
			sw.U64(st.total.Last)
			sw.U64(st.repsLast)
			sw.F64(st.repMin)
			sw.U32(uint32(st.repMinI))
			sw.U8(0) // reserved byte of the v3 layout; always 0, ignored on read
			for i := 0; i < k; i++ {
				sw.U64(sh.repKeys[li*k+i])
				sw.F64(sh.repDcs[li*k+i])
			}
		}
		sw.U64(sh.coalPoints)
		sw.U64(sh.coalDistinct)
		sw.U64(sh.coalGroupings)
		sw.U32(uint32(sh.table.Len()))
		for i := 0; i < sh.table.Len(); i++ {
			key, cell := sh.table.At(i)
			sw.U64(key)
			sw.F64(cell.Dc)
			sw.F64(cell.S)
			sw.F64(cell.Q)
			sw.U64(cell.Last)
		}
		if err := sw.End(); err != nil {
			return err
		}
	}

	// Map iteration is randomized; sort the base cells by key so the
	// same state always snapshots to the same bytes (the round-trip
	// byte-equality test pins this).
	type baseEntry struct {
		key string
		b   *core.BCS
	}
	base := make([]baseEntry, 0, d.bcs.Len())
	d.bcs.Range(func(key string, b *core.BCS) {
		base = append(base, baseEntry{key, b})
	})
	sort.Slice(base, func(i, j int) bool { return base[i].key < base[j].key })
	sw.Begin(secBase)
	sw.U32(uint32(len(base)))
	for _, e := range base {
		sw.Bytes32([]byte(e.key))
		sw.F64(e.b.Dc)
		sw.U64(e.b.Last)
		for _, v := range e.b.LS {
			sw.F64(v)
		}
		for _, v := range e.b.SS {
			sw.F64(v)
		}
	}
	if err := sw.End(); err != nil {
		return err
	}

	sw.Begin(secExamples)
	sw.U32(uint32(len(d.examples)))
	for i := range d.examples {
		sw.Bytes32(d.examples[i].Coords)
		sw.U64(d.examples[i].Tick)
	}
	if err := sw.End(); err != nil {
		return err
	}

	sw.Begin(secCounters)
	for _, v := range d.popAvg {
		sw.F64(v)
	}
	sw.U64(d.counters.sweeps)
	sw.U64(d.counters.sweepNanos)
	sw.U64(d.counters.evictedProjected)
	sw.U64(d.counters.evictedBase)
	sw.U64(d.counters.promoted)
	sw.U64(d.counters.demoted)
	sw.U64(d.counters.evolverPanics)
	if err := sw.End(); err != nil {
		return err
	}

	if hasEvolverState {
		sw.Begin(secEvolver)
		sw.Bytes32(evolverState)
		if err := sw.End(); err != nil {
			return err
		}
	}
	if d.topk != nil {
		sw.Begin(secScore)
		encodeScoreState(sw, d.topk)
		if err := sw.End(); err != nil {
			return err
		}
	}
	if d.auto != nil {
		sw.Begin(secAuto)
		d.encodeAutoState(sw)
		if err := sw.End(); err != nil {
			return err
		}
	}
	if err := sw.Close(); err != nil {
		return err
	}
	d.counters.checkpoints++
	d.counters.checkpointNanos += uint64(time.Since(start).Nanoseconds())
	d.counters.checkpointBytes = uint64(sw.Bytes())
	return nil
}

// corruptf wraps a content-validation failure as snapshot.ErrCorrupt,
// so callers branch on one sentinel for "the bytes are wrong" across
// the codec and semantic layers.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{snapshot.ErrCorrupt}, args...)...)
}

// next reads the next section and requires it to carry the wanted ID;
// the canonical section order is part of the format.
func next(r *snapshot.Reader, want uint32) (*snapshot.Section, error) {
	sec, err := r.Next()
	if err != nil {
		if err == io.EOF {
			return nil, corruptf("stream ended before section %d", want)
		}
		return nil, err
	}
	if sec.ID != want {
		return nil, corruptf("section %d where %d was expected", sec.ID, want)
	}
	return sec, nil
}

// savedSub is one subspace's dynamic state as read from a shard
// section, pending application to the rebuilt detector.
type savedSub struct {
	sid      uint32
	total    core.PCS
	repsLast uint64
	repMin   float64
	repMinI  int32
	repKeys  []uint64
	repDcs   []float64
}

// savedShard is one shard section, pending application.
type savedShard struct {
	subs                                    []savedSub
	coalPoints, coalDistinct, coalGroupings uint64
	cellKeys                                []uint64
	cells                                   []core.PCS
}

// Restore rebuilds a detector from a snapshot written by
// Detector.Snapshot, verifying every section CRC on the way through.
// cfg must agree with the snapshot on every state-shaping parameter —
// Dims, Phi, MaxSubspaceDim, K, Lambda, and the presence and
// composition of a state-carrying Evolver (ErrConfigMismatch
// otherwise). Shards may differ: with the snapshot's shard count the
// restored detector is an exact replica and continues bit-identically;
// with a different count the subspaces are re-dealt under the same
// rules New and the epoch path use, with the same ULP-level caveat as
// any other shard-count change. Corrupt input fails with a typed error
// (snapshot.ErrChecksum, snapshot.ErrTruncated, snapshot.ErrCorrupt,
// ...) and never panics; the partially built detector is discarded.
func Restore(r io.Reader, cfg Config) (*Detector, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, err
	}
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}

	sec, err := next(sr, secMeta)
	if err != nil {
		return nil, err
	}
	dims := int(sec.U32())
	phi := int(sec.U32())
	maxSub := int(sec.U32())
	fileShards := int(sec.U32())
	k := int(sec.U32())
	sec.U64() // EpochTicks: informational; the restore Config governs
	lambda := sec.F64()
	tick := sec.U64()
	hasEvolver := sec.Bool()
	hasEvolverState := sec.Bool()
	scoring := sec.Bool()
	topK := int(sec.U32())
	autoOn := sec.Bool()
	autoRisk := sec.F64()
	autoLevel := sec.F64()
	if err := sec.Err(); err != nil {
		return nil, err
	}
	switch {
	case dims != cfg.Dims:
		return nil, fmt.Errorf("%w: snapshot has %d dims, config %d", ErrConfigMismatch, dims, cfg.Dims)
	case phi != cfg.Phi:
		return nil, fmt.Errorf("%w: snapshot has phi %d, config %d", ErrConfigMismatch, phi, cfg.Phi)
	case maxSub != cfg.MaxSubspaceDim:
		return nil, fmt.Errorf("%w: snapshot has MaxSubspaceDim %d, config %d", ErrConfigMismatch, maxSub, cfg.MaxSubspaceDim)
	case k != cfg.K:
		return nil, fmt.Errorf("%w: snapshot has K %d, config %d", ErrConfigMismatch, k, cfg.K)
	case lambda != cfg.Lambda:
		return nil, fmt.Errorf("%w: snapshot has Lambda %g, config %g", ErrConfigMismatch, lambda, cfg.Lambda)
	case hasEvolver != (cfg.Evolver != nil):
		return nil, fmt.Errorf("%w: snapshot evolver presence %v, config %v", ErrConfigMismatch, hasEvolver, cfg.Evolver != nil)
	case scoring != cfg.Scoring:
		return nil, fmt.Errorf("%w: snapshot scoring %v, config %v", ErrConfigMismatch, scoring, cfg.Scoring)
	case topK != cfg.TopK:
		return nil, fmt.Errorf("%w: snapshot TopK %d, config %d", ErrConfigMismatch, topK, cfg.TopK)
	case autoOn != (d.auto != nil):
		return nil, fmt.Errorf("%w: snapshot auto-threshold presence %v, config %v", ErrConfigMismatch, autoOn, d.auto != nil)
	case autoOn && autoRisk != cfg.AutoThreshold.Risk:
		return nil, fmt.Errorf("%w: snapshot AutoThreshold.Risk %g, config %g", ErrConfigMismatch, autoRisk, cfg.AutoThreshold.Risk)
	case autoOn && autoLevel != cfg.AutoThreshold.Level:
		return nil, fmt.Errorf("%w: snapshot AutoThreshold.Level %g, config %g", ErrConfigMismatch, autoLevel, cfg.AutoThreshold.Level)
	}
	_, marshalable := d.cfg.Evolver.(sst.StateMarshaler)
	if hasEvolverState != marshalable {
		return nil, fmt.Errorf("%w: snapshot evolver state presence %v, config evolver marshalable %v",
			ErrConfigMismatch, hasEvolverState, marshalable)
	}
	if fileShards < 1 {
		return nil, corruptf("snapshot declares %d shards", fileShards)
	}
	d.tick = tick

	sec, err = next(sr, secTemplate)
	if err != nil {
		return nil, err
	}
	nSlots := sec.Count(1)
	slots := make([]sst.EvolvedSlot, nSlots)
	for i := range slots {
		slots[i].Active = sec.Bool()
		if !slots[i].Active {
			continue
		}
		arity := int(sec.U8())
		if arity < 1 || arity > core.MaxSubspaceDims {
			return nil, corruptf("evolved slot %d arity %d", i, arity)
		}
		slots[i].Dims = make([]uint16, arity)
		for j := range slots[i].Dims {
			slots[i].Dims[j] = sec.U16()
		}
	}
	nFree := sec.Count(4)
	free := make([]uint32, nFree)
	for i := range free {
		free[i] = sec.U32()
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}
	if err := d.tmpl.RestoreEvolved(slots, free); err != nil {
		return nil, corruptf("%v", err)
	}

	saved := make([]savedShard, fileShards)
	nSubs := d.tmpl.Count()
	for si := range saved {
		sec, err = next(sr, secShard)
		if err != nil {
			return nil, err
		}
		if idx := int(sec.U32()); idx != si {
			return nil, corruptf("shard section %d where %d was expected", idx, si)
		}
		ss := &saved[si]
		n := sec.Count(8)
		ss.subs = make([]savedSub, n)
		for i := range ss.subs {
			sub := &ss.subs[i]
			sub.sid = sec.U32()
			sub.total = core.PCS{Dc: sec.F64(), S: sec.F64(), Q: sec.F64(), Last: sec.U64()}
			sub.repsLast = sec.U64()
			sub.repMin = sec.F64()
			sub.repMinI = int32(sec.U32())
			sec.U8() // reserved byte, ignored (see Snapshot)
			sub.repKeys = make([]uint64, k)
			sub.repDcs = make([]float64, k)
			for j := 0; j < k; j++ {
				sub.repKeys[j] = sec.U64()
				sub.repDcs[j] = sec.F64()
			}
			if sec.Err() == nil {
				if int(sub.sid) >= nSubs || !d.tmpl.Active(int(sub.sid)) {
					return nil, corruptf("shard %d references dead subspace %d", si, sub.sid)
				}
				if sub.repMinI < 0 || int(sub.repMinI) >= k {
					return nil, corruptf("subspace %d repMinI %d out of [0,%d)", sub.sid, sub.repMinI, k)
				}
			}
		}
		ss.coalPoints = sec.U64()
		ss.coalDistinct = sec.U64()
		ss.coalGroupings = sec.U64()
		nCells := sec.Count(40)
		ss.cellKeys = make([]uint64, nCells)
		ss.cells = make([]core.PCS, nCells)
		for i := range ss.cells {
			ss.cellKeys[i] = sec.U64()
			ss.cells[i] = core.PCS{Dc: sec.F64(), S: sec.F64(), Q: sec.F64(), Last: sec.U64()}
		}
		if err := sec.Err(); err != nil {
			return nil, err
		}
	}
	if err := d.restoreShards(saved); err != nil {
		return nil, err
	}

	sec, err = next(sr, secBase)
	if err != nil {
		return nil, err
	}
	nBase := sec.Count(1)
	for i := 0; i < nBase; i++ {
		key := sec.Bytes32()
		b := &core.BCS{Dc: sec.F64(), Last: sec.U64(), LS: make([]float64, cfg.Dims), SS: make([]float64, cfg.Dims)}
		for j := range b.LS {
			b.LS[j] = sec.F64()
		}
		for j := range b.SS {
			b.SS[j] = sec.F64()
		}
		if sec.Err() != nil {
			break
		}
		if err := d.bcs.Load(string(key), b); err != nil {
			return nil, corruptf("%v", err)
		}
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	sec, err = next(sr, secExamples)
	if err != nil {
		return nil, err
	}
	nEx := sec.Count(1)
	for i := 0; i < nEx; i++ {
		coords := sec.Bytes32()
		exTick := sec.U64()
		if sec.Err() != nil {
			break
		}
		if len(coords) != cfg.Dims {
			return nil, corruptf("example %d has %d coords in a %d-dimensional space", i, len(coords), cfg.Dims)
		}
		d.examples = append(d.examples, sst.Example{Coords: append([]uint8(nil), coords...), Tick: exTick})
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	sec, err = next(sr, secCounters)
	if err != nil {
		return nil, err
	}
	for i := range d.popAvg {
		d.popAvg[i] = sec.F64()
	}
	d.counters.sweeps = sec.U64()
	d.counters.sweepNanos = sec.U64()
	d.counters.evictedProjected = sec.U64()
	d.counters.evictedBase = sec.U64()
	d.counters.promoted = sec.U64()
	d.counters.demoted = sec.U64()
	d.counters.evolverPanics = sec.U64()
	if err := sec.Err(); err != nil {
		return nil, err
	}

	if hasEvolverState {
		sec, err = next(sr, secEvolver)
		if err != nil {
			return nil, err
		}
		payload := sec.Bytes32()
		if err := sec.Err(); err != nil {
			return nil, err
		}
		if err := d.cfg.Evolver.(sst.StateMarshaler).UnmarshalState(payload); err != nil {
			return nil, corruptf("evolver state: %v", err)
		}
	}
	if d.topk != nil {
		sec, err = next(sr, secScore)
		if err != nil {
			return nil, err
		}
		if err := decodeScoreState(sec, d.topk, d.tick); err != nil {
			return nil, err
		}
	}
	if d.auto != nil {
		sec, err = next(sr, secAuto)
		if err != nil {
			return nil, err
		}
		if err := d.decodeAutoState(sec); err != nil {
			return nil, err
		}
	}
	// Thresholds are derived state: populated-RD floors from the
	// restored popAvg, or — in auto mode — the restored calibrators'
	// thresholds, so they are published after every section landed.
	d.refreshThresholds()
	// Drain the end marker; anything else trailing is corruption.
	if _, err := sr.Next(); err != io.EOF {
		if err == nil {
			return nil, corruptf("trailing section after the counters")
		}
		return nil, err
	}
	return d, nil
}

// encodeAutoState serializes the auto-thresholding state into the open
// secAuto section: the effective-trials controller, the epoch flag
// window, the lifetime counters, the sampling geometry, then — per
// (measure, arity) in fixed order — the calibrator's full fit state,
// the rolling sample window (oldest first) and the current epoch's
// per-slot sample minima, min-merged across shards. The merged form
// makes the section independent of the shard layout, so a checkpoint
// restores across shard counts; a restored detector re-merges against
// +Inf in the other shards and reproduces the identical window pushes
// at the next sweep.
func (d *Detector) encodeAutoState(sw *snapshot.Writer) {
	a := d.auto
	sw.F64(a.effTrials)
	sw.F64(a.emaFlags)
	sw.F64(a.emaPoints)
	sw.U64(a.epochFlags)
	sw.U64(a.epochPoints)
	sw.U64(a.calibrations)
	sw.U64(a.samples)
	sw.U64(a.stride)
	sw.U64(uint64(a.nSlots))
	for m := 0; m < autoMeasures; m++ {
		for ar := 1; ar <= core.MaxSubspaceDims; ar++ {
			st := a.cals[m][ar].State()
			sw.Bool(st.Calibrated)
			sw.F64(st.Z)
			sw.F64(st.T)
			sw.F64(st.Gamma)
			sw.F64(st.Sigma)
			sw.U64(st.N)
			sw.U64(st.Nt)
			n := a.winLen[m][ar]
			w := a.win[m][ar]
			sw.U32(uint32(n))
			if n < len(w) {
				// Ring not yet wrapped: logical order is array order.
				for _, v := range w[:n] {
					sw.F64(v)
				}
			} else {
				for i := 0; i < n; i++ {
					sw.F64(w[(a.winPos[m][ar]+i)%n])
				}
			}
			for slot := 0; slot < a.nSlots; slot++ {
				v := math.Inf(1)
				for _, sh := range d.shards {
					if s := sh.autoSamp[m][ar][slot]; s < v {
						v = s
					}
				}
				sw.F64(v)
			}
		}
	}
}

// decodeAutoState rebuilds the auto-thresholding state from a secAuto
// section, validating the controller invariants (effTrials within its
// clamp bounds, finite EMA window, calibrated thresholds finite and
// non-negative, sample values not NaN, sampling geometry matching the
// config-derived one) so a corrupt section fails typed instead of
// poisoning every future verdict. The merged per-slot minima land in
// shard 0's buffers; the other shards keep +Inf, so the next sweep's
// min-merge reproduces the snapshotted values exactly.
func (d *Detector) decodeAutoState(sec *snapshot.Section) error {
	a := d.auto
	a.effTrials = sec.F64()
	a.emaFlags = sec.F64()
	a.emaPoints = sec.F64()
	a.epochFlags = sec.U64()
	a.epochPoints = sec.U64()
	a.calibrations = sec.U64()
	a.samples = sec.U64()
	stride := sec.U64()
	nSlots := sec.U64()
	if err := sec.Err(); err != nil {
		return err
	}
	if !(a.effTrials >= 1 && a.effTrials <= autoTrialsMax) {
		return corruptf("auto effTrials %g outside [1, %d]", a.effTrials, autoTrialsMax)
	}
	if !(a.emaFlags >= 0) || !(a.emaPoints >= 0) || math.IsInf(a.emaFlags, 0) || math.IsInf(a.emaPoints, 0) {
		return corruptf("auto EMA window (%g flags / %g points) is not a finite non-negative pair", a.emaFlags, a.emaPoints)
	}
	if stride != a.stride || nSlots != uint64(a.nSlots) {
		return corruptf("auto sampling geometry (stride %d, %d slots) does not match the config-derived (%d, %d)",
			stride, nSlots, a.stride, a.nSlots)
	}
	for m := 0; m < autoMeasures; m++ {
		for ar := 1; ar <= core.MaxSubspaceDims; ar++ {
			st := evt.State{Calibrated: sec.Bool(), Z: sec.F64(), T: sec.F64(), Gamma: sec.F64(), Sigma: sec.F64(), N: sec.U64(), Nt: sec.U64()}
			if sec.Err() != nil {
				return sec.Err()
			}
			if st.Calibrated && (!(st.Z >= 0) || math.IsInf(st.Z, 0)) {
				return corruptf("auto calibrator (measure %d, arity %d) threshold %g", m, ar, st.Z)
			}
			if st.Nt > st.N {
				return corruptf("auto calibrator (measure %d, arity %d) tail %d exceeds census %d", m, ar, st.Nt, st.N)
			}
			a.cals[m][ar].SetState(st)
			n := sec.Count(8)
			if sec.Err() != nil {
				return sec.Err()
			}
			if n > autoWindowCap {
				return corruptf("auto sample window (measure %d, arity %d) holds %d samples, capacity %d", m, ar, n, autoWindowCap)
			}
			w := a.win[m][ar]
			for i := 0; i < n; i++ {
				v := sec.F64()
				if v != v {
					return corruptf("auto sample window (measure %d, arity %d) sample %d is NaN", m, ar, i)
				}
				w[i] = v
			}
			a.winLen[m][ar] = n
			a.winPos[m][ar] = n % autoWindowCap
			slots := d.shards[0].autoSamp[m][ar]
			for slot := 0; slot < a.nSlots; slot++ {
				v := sec.F64()
				if v != v {
					return corruptf("auto slot buffer (measure %d, arity %d) slot %d is NaN", m, ar, slot)
				}
				slots[slot] = v
			}
		}
	}
	return sec.Err()
}

// encodeScoreState serializes the top-K heap into the open secScore
// section: the ranking-key rebase anchor, the entry count, then each
// slot's (tick, raw score) in heap array order, so a restore
// reproduces the exact slot layout — and therefore the exact future
// displacement and query behavior — rather than a merely equivalent
// heap. Ranking keys are not stored: they are a pure function of
// (tick, score, λ, base) and are recomputed bit-identically on
// restore.
func encodeScoreState(sw *snapshot.Writer, h *topK) {
	sw.U64(h.base)
	sw.U32(uint32(len(h.ticks)))
	for i := range h.ticks {
		sw.U64(h.ticks[i])
		sw.F64(h.scores[i])
	}
}

// decodeScoreState rebuilds the heap from a secScore section into h
// (built empty at the config's capacity). Entries are validated —
// count within capacity, scores finite in (0,1] (the noisy-OR range),
// ticks not past the stream tick, and the min-heap property over the
// recomputed keys — with any violation reported as snapshot.ErrCorrupt.
func decodeScoreState(sec *snapshot.Section, h *topK, tick uint64) error {
	base := sec.U64()
	n := sec.Count(16)
	if err := sec.Err(); err != nil {
		return err
	}
	if base > tick {
		return corruptf("top-K rebase anchor %d is past the stream tick %d", base, tick)
	}
	if n > h.k {
		return corruptf("top-K holds %d entries, capacity %d", n, h.k)
	}
	h.base = base
	h.ticks = h.ticks[:0]
	h.scores = h.scores[:0]
	h.keys = h.keys[:0]
	for i := 0; i < n; i++ {
		t := sec.U64()
		s := sec.F64()
		if sec.Err() != nil {
			break
		}
		if !(s > 0 && s <= 1) {
			return corruptf("top-K entry %d score %g outside (0,1]", i, s)
		}
		if t > tick {
			return corruptf("top-K entry %d tick %d is past the stream tick %d", i, t, tick)
		}
		h.ticks = append(h.ticks, t)
		h.scores = append(h.scores, s)
		h.keys = append(h.keys, h.rankKey(t, s))
	}
	if err := sec.Err(); err != nil {
		return err
	}
	for i := 1; i < len(h.ticks); i++ {
		if h.below(i, (i-1)/2) {
			return corruptf("top-K entry %d violates the heap order", i)
		}
	}
	return nil
}

// restoreShards applies the saved per-shard state to the freshly built
// detector. With the snapshot's shard count the saved layout is
// replayed exactly — same subspace order per shard, same dense cell
// order per table — so continuation is bit-identical down to the
// sweep's accumulation order. With a different count the evolved
// subspaces are re-dealt least-loaded in ascending ID order (the fixed
// group re-deals by id % Shards inside New) and each shard's cells are
// routed to their subspace's new owner, preserving relative dense
// order per source shard.
func (d *Detector) restoreShards(saved []savedShard) error {
	k := d.cfg.K
	exact := len(saved) == len(d.shards)

	// Every live subspace must appear exactly once across the saved
	// shards, and in exact mode each shard's fixed prefix must be the
	// deal New just performed.
	owner := make([]int32, d.tmpl.Count())
	for i := range owner {
		owner[i] = -1
	}
	for si := range saved {
		for _, sub := range saved[si].subs {
			if owner[sub.sid] != -1 {
				return corruptf("subspace %d appears on two shards", sub.sid)
			}
			owner[sub.sid] = int32(si)
		}
	}
	for id := 0; id < d.tmpl.Count(); id++ {
		if d.tmpl.Active(id) && owner[id] == -1 {
			return corruptf("live subspace %d missing from every shard", id)
		}
	}

	if exact {
		for si, sh := range d.shards {
			fixed := len(sh.subs)
			if len(saved[si].subs) < fixed {
				return corruptf("shard %d holds %d subspaces, fewer than its %d fixed ones", si, len(saved[si].subs), fixed)
			}
			for li := 0; li < fixed; li++ {
				if saved[si].subs[li].sid != sh.subs[li] {
					return corruptf("shard %d fixed slot %d holds subspace %d, expected %d",
						si, li, saved[si].subs[li].sid, sh.subs[li])
				}
			}
			for _, sub := range saved[si].subs[fixed:] {
				if d.tmpl.IsFixed(int(sub.sid)) {
					return corruptf("fixed subspace %d in shard %d's evolved tail", sub.sid, si)
				}
				for int(sub.sid) >= len(d.owner) {
					d.owner = append(d.owner, 0)
				}
				d.owner[sub.sid] = int32(si)
				sh.addSubspace(sub.sid)
			}
		}
	} else {
		// Re-deal: evolved subspaces go least-loaded in ascending ID
		// order, the tie-break applyEvolution uses (first shard with
		// the strictly smallest load wins).
		for _, id := range d.tmpl.EvolvedIDs(nil) {
			best := 0
			for i := 1; i < len(d.shards); i++ {
				if len(d.shards[i].subs) < len(d.shards[best].subs) {
					best = i
				}
			}
			for int(id) >= len(d.owner) {
				d.owner = append(d.owner, 0)
			}
			d.owner[id] = int32(best)
			d.shards[best].addSubspace(id)
		}
	}

	// Locate every subspace in the rebuilt deal and overwrite its
	// dynamic state with the saved one.
	type place struct {
		sh *shard
		li int
	}
	at := make(map[uint32]place, d.tmpl.Count())
	for _, sh := range d.shards {
		for li, sid := range sh.subs {
			at[sid] = place{sh, li}
		}
	}
	for si := range saved {
		for i := range saved[si].subs {
			sub := &saved[si].subs[i]
			p := at[sub.sid]
			st := &p.sh.states[p.li]
			st.total = sub.total
			st.repsLast = sub.repsLast
			st.repMin = sub.repMin
			st.repMinI = sub.repMinI
			copy(p.sh.repKeys[p.li*k:(p.li+1)*k], sub.repKeys)
			copy(p.sh.repDcs[p.li*k:(p.li+1)*k], sub.repDcs)
		}
	}

	// Replay the cells in their saved dense order; in exact mode every
	// cell stays on its shard, so the dense layout — and the sweep
	// accumulation order that follows from it — is reproduced exactly.
	for si := range saved {
		ss := &saved[si]
		for i, key := range ss.cellKeys {
			sid := uint32(key >> core.SubspaceShift)
			if int(sid) >= d.tmpl.Count() || !d.tmpl.Active(int(sid)) {
				return corruptf("cell %#x references dead subspace %d", key, sid)
			}
			if exact && d.owner[sid] != int32(si) {
				return corruptf("cell %#x of subspace %d stored on shard %d, owner is %d", key, sid, si, d.owner[sid])
			}
			if err := d.shards[d.owner[sid]].table.Append(key, ss.cells[i]); err != nil {
				return corruptf("%v", err)
			}
		}
		if exact {
			sh := d.shards[si]
			sh.coalPoints = ss.coalPoints
			sh.coalDistinct = ss.coalDistinct
			sh.coalGroupings = ss.coalGroupings
		} else if si == 0 {
			// Re-deal folds the coalescing telemetry onto shard 0; the
			// aggregate Stats the caller sees are unchanged.
			for j := range saved {
				d.shards[0].coalPoints += saved[j].coalPoints
				d.shards[0].coalDistinct += saved[j].coalDistinct
				d.shards[0].coalGroupings += saved[j].coalGroupings
			}
		}
	}
	return nil
}
