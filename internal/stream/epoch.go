package stream

import (
	"bytes"
	"sort"
	"time"

	"spot/internal/core"
	"spot/internal/sst"
)

// Epoch sweep: the periodic pass that closes the lazy-decay lifecycle.
// Ingestion only ever touches the one cell a point lands in, so a cell
// abandoned by a drifting stream is never visited again — without a
// sweep its near-zero summary lingers forever and memory grows with
// every distinct cell ever touched. Every Config.EpochTicks ticks the
// detector therefore walks all summary tables once while its workers
// are idle, and uses the same scan three ways:
//
//  1. Eviction — summaries whose decayed density fell below
//     Config.EvictEpsilon are dropped, bounding the table size by the
//     stream's recent footprint instead of its history.
//  2. Density accounting — per-arity averages over the surviving
//     (populated) cells become the reference for the arity-aware RD
//     test (Config.RDPopulatedThreshold).
//  3. SST evolution — the surviving base cells and per-subspace sparse
//     statistics are handed to the Evolver, which may promote new
//     self-evolving subspaces into the template or demote stale ones;
//     shard assignment of promoted subspaces happens here too, so the
//     hot path never observes a template mutation.
//
// All sweep decisions derive from globally merged statistics: the
// base-cell snapshot is sorted by coordinates and the per-arity
// averages are reduced in subspace-ID order, so evolution and verdicts
// are independent of the shard count and of Go's randomized map
// iteration — up to floating-point rounding of the per-subspace cell
// sums, whose order can differ at the ULP level. Tests assert strict
// invariance but exercise margins far wider than rounding noise.

// arityAccum accumulates populated-cell statistics for one subspace
// arity during a sweep.
type arityAccum struct {
	cells int
	dc    float64
}

// epochCounters are the lifetime totals of the epoch engine, exposed
// through Stats.
type epochCounters struct {
	sweeps           uint64
	evictedProjected uint64
	evictedBase      uint64
	promoted         uint64
	demoted          uint64
	evolverPanics    uint64

	// Wall time of this process's sweeps and checkpoint telemetry,
	// process-local (never serialized): counts and wall time of
	// Snapshot calls, and the last snapshot's size.
	sweepNanos      uint64
	checkpoints     uint64
	checkpointNanos uint64
	checkpointBytes uint64
}

// maybeSweep runs an epoch sweep when the stream just crossed an epoch
// boundary. Called with shard workers idle.
func (d *Detector) maybeSweep() {
	if d.cfg.EpochTicks > 0 && d.tick%d.cfg.EpochTicks == 0 {
		d.epochSweep()
	}
}

// epochSweep performs one full sweep at the current tick: shard tables
// first (eviction, per-subspace and per-arity accounting), then the
// base-cell table, then the per-arity averages, then evolution. A sweep
// always follows an ingested chunk, so the shard workers are up; with
// more than one shard the per-shard table sweeps fan out to them — each
// shard's table is exclusively its own and each subspace's perSub entry
// is written by exactly one shard, so the parallel sweep produces
// bit-identical statistics — while the dispatcher overlaps the
// base-cell sweep; the epoch pause then shrinks from the sum of the
// table scans to roughly the largest one.
func (d *Detector) epochSweep() {
	start := time.Now()
	tick := d.tick
	eps := d.cfg.EvictEpsilon

	if n := d.tmpl.Count(); cap(d.perSub) < n {
		d.perSub = make([]sst.SubspaceStats, n)
	} else {
		d.perSub = d.perSub[:n]
		for i := range d.perSub {
			d.perSub[i] = sst.SubspaceStats{}
		}
	}
	parallel := len(d.shards) > 1
	if parallel {
		for _, ch := range d.jobs {
			ch <- job{sweep: true, t0: tick, eps: eps}
		}
	} else {
		for _, sh := range d.shards {
			d.counters.evictedProjected += uint64(sh.sweep(tick, eps, d.perSub))
		}
	}

	collect := d.cfg.Evolver != nil
	d.baseCells = d.baseCells[:0]
	// The arena backs every snapshot Coords slice; pre-sizing it to the
	// pre-sweep table footprint (an upper bound on survivors) keeps the
	// collect pass to a single allocation at most.
	if need := d.bcs.Len() * d.cfg.Dims; cap(d.coordArena) < need {
		d.coordArena = make([]uint8, 0, need)
	}
	d.coordArena = d.coordArena[:0]
	baseTotal := 0.0
	d.counters.evictedBase += uint64(d.bcs.Sweep(d.decay, tick, eps, func(key string, _ *core.BCS, dc float64) {
		baseTotal += dc
		if collect {
			off := len(d.coordArena)
			d.coordArena = append(d.coordArena, key...)
			d.baseCells = append(d.baseCells, sst.BaseCell{Coords: d.coordArena[off:], Dc: dc})
		}
	}))
	if parallel {
		for range d.shards {
			<-d.done
		}
		for _, sh := range d.shards {
			d.counters.evictedProjected += uint64(sh.sweepEvicted)
		}
	}
	// Map iteration order is randomized; sort the snapshot so evolver
	// decisions are reproducible run to run.
	sort.Slice(d.baseCells, func(i, j int) bool {
		return bytes.Compare(d.baseCells[i].Coords, d.baseCells[j].Coords) < 0
	})

	// Per-arity populated averages, reduced from the per-subspace sums
	// in subspace-ID order so the result does not depend on how cells
	// interleave across shard tables.
	var perArity [core.MaxSubspaceDims + 1]arityAccum
	for sid := range d.perSub {
		if st := &d.perSub[sid]; st.Populated > 0 {
			a := &perArity[d.tmpl.Size(sid)]
			a.cells += st.Populated
			a.dc += st.TotalDc
		}
	}
	for a := range d.popAvg {
		if perArity[a].cells > 0 {
			d.popAvg[a] = perArity[a].dc / float64(perArity[a].cells)
		} else {
			d.popAvg[a] = 0
		}
	}
	d.counters.sweeps++
	d.counters.sweepNanos += uint64(time.Since(start).Nanoseconds())

	// EVT auto-thresholding: merge the epoch's per-point measure
	// samples across shards and refit the per-(measure, arity)
	// calibrators. Thresholds are published below via
	// refreshThresholds, after evolution, so promoted subspaces get
	// calibrated thresholds immediately.
	if d.auto != nil {
		d.autoRefit()
	}

	if collect {
		// Expire labeled examples past their TTL before the evolver
		// sees them; the set is kept in arrival (tick) order, so the
		// survivors are a suffix.
		if ttl := d.cfg.ExampleTTL; ttl > 0 {
			keep := 0
			for keep < len(d.examples) && tick-d.examples[keep].Tick > ttl {
				keep++
			}
			if keep > 0 {
				n := copy(d.examples, d.examples[keep:])
				d.examples = d.examples[:n]
			}
		}
		stats := sst.EpochStats{
			Tick:      tick,
			BaseTotal: baseTotal,
			BaseCells: d.baseCells,
			Subspaces: d.perSub,
			Examples:  d.examples,
		}
		d.applyEvolution(d.safeEvolve(&stats))
	}
	// Publish the new thresholds — calibrated EVT thresholds in auto
	// mode, the arity-aware populated-RD floors otherwise — as
	// per-subspace precomputed fields so the hot path tests each
	// measure with one compare. After evolution, so subspaces promoted
	// this sweep get their values immediately instead of sitting a
	// full epoch on the construction-time defaults.
	d.refreshThresholds()
	// Top-K epoch decay: entries whose faded score fell below the same
	// eviction floor the summary tables use are dropped, so the
	// worst-offenders window forgets at the stream's pace. Depends
	// only on (tick, eps), so batch and pointwise heaps stay
	// identical.
	if d.topk != nil {
		d.topk.decayEvict(d.decay, tick, eps)
	}
}

// safeEvolve invokes the configured Evolver with panic containment:
// an evolver that panics mid-epoch yields an empty verdict — nothing
// promoted, nothing demoted — and increments Stats.EvolverPanics,
// instead of unwinding the sweep and taking the detector's learned
// state down with it. The template is only mutated by applyEvolution
// after Evolve returns, so a panicking evolver cannot leave it
// half-mutated.
func (d *Detector) safeEvolve(stats *sst.EpochStats) (ev sst.Evolution) {
	defer func() {
		if r := recover(); r != nil {
			d.counters.evolverPanics++
			ev = sst.Evolution{}
		}
	}()
	return d.cfg.Evolver.Evolve(d.tmpl, stats)
}

// applyEvolution mutates the template and shard assignment per the
// evolver's verdict: demotions first (freeing slots and purging their
// cells), then promotions onto the least-loaded shards.
func (d *Detector) applyEvolution(ev sst.Evolution) {
	for _, id := range ev.Demote {
		if err := d.tmpl.Demote(id); err != nil {
			continue // e.g. a fixed-group ID from a misbehaving evolver
		}
		d.shards[d.owner[id]].removeSubspace(id)
		d.counters.demoted++
	}
	for _, dims := range ev.Promote {
		id, err := d.tmpl.Promote(dims)
		if err != nil {
			continue // duplicate or malformed proposal
		}
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
		d.counters.promoted++
	}
}

// Stats is a point-in-time snapshot of the detector's summary-table
// sizes and epoch-engine lifetime counters.
type Stats struct {
	// Tick is the number of points ingested.
	Tick uint64
	// BaseCells and ProjectedCells are the current summary-table sizes;
	// SummaryEntries is their sum — the quantity the epoch engine
	// bounds on drifting streams.
	BaseCells      int
	ProjectedCells int
	SummaryEntries int
	// Sweeps is how many epoch sweeps have run; SweepNanos is the
	// cumulative wall time of their table scans (eviction + density
	// accounting, excluding SST evolution). SweepNanos counts this
	// process's sweeps only — checkpoints do not carry wall time, so a
	// restored detector starts it at zero while Sweeps carries over;
	// the average epoch pause is the SweepNanos delta over the Sweeps
	// delta of one process's run.
	Sweeps     uint64
	SweepNanos uint64
	// EvictedProjected and EvictedBase count summaries evicted from the
	// shard tables and the base-cell table across all sweeps.
	EvictedProjected uint64
	EvictedBase      uint64
	// EvolvedActive is the current number of live self-evolving SST
	// subspaces; Promoted and Demoted are lifetime totals.
	EvolvedActive int
	Promoted      uint64
	Demoted       uint64
	// EvolverPanics counts epoch sweeps whose Evolver invocation
	// panicked and was contained: the sweep applied no evolution that
	// epoch and processing continued.
	EvolverPanics uint64
	// Checkpoints, CheckpointNanos and CheckpointBytes describe this
	// process's Snapshot calls: how many ran, their cumulative wall
	// time, and the size of the most recent checkpoint. Process-local —
	// a restored detector starts them at zero.
	Checkpoints     uint64
	CheckpointNanos uint64
	CheckpointBytes uint64
	// Examples is the number of labeled outlier examples currently
	// retained for supervised evolution.
	Examples int
	// CoalescedPoints, CoalescedDistinct and CoalesceGroupings describe
	// the ingest path's duplication: across every grouping (one per
	// subspace per sub-batch, epoch-split sub-batches included, however
	// many subspaces one tile groups at once), how many point touches
	// were folded, how many distinct cells they collapsed into, and how
	// many groupings there were. CoalescedDistinct/CoalesceGroupings is
	// the average distinct-cell count per (subspace, batch) and
	// CoalescedPoints/CoalescedDistinct the duplication ratio — the
	// factor by which coalescing cuts index probes on this workload.
	// Process is a one-point batch, so each pointwise ingest adds one
	// grouping, one point and one distinct cell per subspace.
	CoalescedPoints   uint64
	CoalescedDistinct uint64
	CoalesceGroupings uint64
	// Auto-thresholding observability (zero unless
	// Config.AutoThreshold is enabled): Calibrations counts
	// successful per-(measure, arity) calibrator refits across all
	// sweeps, CalibrationSamples the census samples they consumed,
	// CalibratedThresholds how many of the calibrators currently hold
	// a fitted threshold, and AutoEffTrials the controller's current
	// effective-trials divisor (per-calibrator risk =
	// AutoThreshold.Risk / AutoEffTrials).
	Calibrations         uint64
	CalibrationSamples   uint64
	CalibratedThresholds int
	AutoEffTrials        float64
}

// Stats returns the current snapshot. Safe to call between
// Process/ProcessBatch calls only.
func (d *Detector) Stats() Stats {
	var coalPoints, coalDistinct, coalGroupings uint64
	for _, sh := range d.shards {
		coalPoints += sh.coalPoints
		coalDistinct += sh.coalDistinct
		coalGroupings += sh.coalGroupings
	}
	var calibrations, calSamples uint64
	var calibrated int
	var effTrials float64
	if a := d.auto; a != nil {
		calibrations = a.calibrations
		calSamples = a.samples
		effTrials = a.effTrials
		for m := 0; m < autoMeasures; m++ {
			for ar := 1; ar <= core.MaxSubspaceDims; ar++ {
				if a.cals[m][ar].Calibrated() {
					calibrated++
				}
			}
		}
	}
	return Stats{
		Tick:                 d.tick,
		BaseCells:            d.BaseCells(),
		ProjectedCells:       d.ProjectedCells(),
		SummaryEntries:       d.BaseCells() + d.ProjectedCells(),
		Sweeps:               d.counters.sweeps,
		SweepNanos:           d.counters.sweepNanos,
		EvictedProjected:     d.counters.evictedProjected,
		EvictedBase:          d.counters.evictedBase,
		EvolvedActive:        d.tmpl.EvolvedCount(),
		Promoted:             d.counters.promoted,
		Demoted:              d.counters.demoted,
		EvolverPanics:        d.counters.evolverPanics,
		Checkpoints:          d.counters.checkpoints,
		CheckpointNanos:      d.counters.checkpointNanos,
		CheckpointBytes:      d.counters.checkpointBytes,
		Examples:             len(d.examples),
		CoalescedPoints:      coalPoints,
		CoalescedDistinct:    coalDistinct,
		CoalesceGroupings:    coalGroupings,
		Calibrations:         calibrations,
		CalibrationSamples:   calSamples,
		CalibratedThresholds: calibrated,
		AutoEffTrials:        effTrials,
	}
}
