package stream

import (
	"math"
	"slices"

	"spot/internal/core"
	"spot/internal/evt"
)

// EVT auto-thresholding (Config.AutoThreshold): instead of three
// hand-tuned verdict floors, the caller states a per-point risk q and
// the detector calibrates every (measure, arity) threshold from the
// stream itself.
//
// What gets calibrated matters: a sweep-time census of the live cells
// describes the table, not the stream — per-point measure values dip
// far below any snapshot's minimum (a point landing in a long-idle or
// freshly-created cell produces transients no sweep ever observes), so
// thresholds fitted to a cell census cannot track a per-point risk.
// The calibrators therefore fit the per-POINT distribution: on a
// deterministic tick stride each shard evaluates, for every warm owned
// subspace, exactly the measure values a verdict compares — post-touch
// RD, and behind the same rd < 1 gate the hot path uses, IRSD and
// IkRD — and folds the per-arity minimum across its subspaces into a
// per-slot buffer. At each epoch sweep the dispatcher takes the
// cross-shard minimum per slot (the global per-point minimum over all
// subspaces of that arity — precisely the statistic whose lower tail
// the verdict OR exposes), pushes the finite minima into a rolling
// per-(measure, arity) sample window, and refits one evt.Calibrator
// per pair. Calibrated thresholds are published into the per-subspace
// states exactly like the populated-RD floors, so the hot path still
// reads one cached float per measure.
//
// Per-pair risk is not per-point risk: a point flags if any of the
// 3 × MaxSubspaceDim (measure, arity) pairs fires, and the pairs are
// correlated. The controller below closes that gap empirically: it
// tracks the realized flagged rate over a decayed window of epochs and
// scales an effective-trials divisor so the per-calibrator risk
// qEff = Risk/effTrials converges the realized per-point rate onto
// Risk, whatever the correlation structure happens to be.
//
// Shard invariance: per-slot minima are folded per shard and min-merged
// by the dispatcher — a min over any partition of the subspaces equals
// the min over all of them — and the calibrators run on the dispatcher,
// so calibrated thresholds, like fixed ones, do not depend on the shard
// count. Sampling slots are a pure function of the tick, so batch and
// pointwise ingestion collect identical samples.
const (
	autoRD       = 0
	autoIRSD     = 1
	autoIkRD     = 2
	autoMeasures = 3
)

// Controller constants: the EMA retention per epoch, the floor on the
// realized rate (so a flagless epoch shrinks effTrials gently instead
// of collapsing it), the per-epoch adjustment clamp, and the absolute
// effTrials bounds.
const (
	autoEMARetain    = 0.8
	autoRateFloorDiv = 8
	autoAdjMin       = 0.75
	autoAdjMax       = 1.3
	autoTrialsMax    = 4096
	autoQEffMax      = 0.49
)

// Sampling constants: the per-epoch sample target (setting the tick
// stride, so the hot-path overhead is bounded regardless of epoch
// length) and the rolling window capacity per (measure, arity) — at
// 128 samples per epoch the window spans the last ~8 epochs, which is
// what bounds the calibrators' adaptation lag under drift.
const (
	autoSamplesPerEpoch = 128
	autoWindowCap       = 1024
)

// autoState is the dispatcher-owned calibration state of an
// auto-thresholding detector: one calibrator and one rolling sample
// window per (measure, arity), the effective-trials controller, and
// the lifetime counters Stats reports. Everything here serializes
// through snapshot section secAuto so a restored detector continues
// bit-identically.
type autoState struct {
	risk  float64
	level float64

	// Sampling geometry, derived from Config.EpochTicks: every
	// stride-th tick is a sample slot; nSlots slots fill per epoch.
	stride uint64
	nSlots int

	cals [autoMeasures][core.MaxSubspaceDims + 1]*evt.Calibrator

	// Rolling per-point sample windows, one ring per (measure, arity):
	// win is the fixed-capacity backing array, winLen the live count,
	// winPos the next write index (oldest sample when the ring is
	// full).
	win    [autoMeasures][core.MaxSubspaceDims + 1][]float64
	winLen [autoMeasures][core.MaxSubspaceDims + 1]int
	winPos [autoMeasures][core.MaxSubspaceDims + 1]int

	// sortBuf is the refit scratch the window is copied into and
	// sorted, reused across sweeps.
	sortBuf []float64

	// Effective-trials controller: emaFlags/emaPoints is the decayed
	// flagged rate across epochs, effTrials the divisor mapping the
	// per-point Risk onto the per-calibrator risk.
	effTrials float64
	emaFlags  float64
	emaPoints float64

	// Current-epoch flag accounting, reset at every refit.
	epochFlags  uint64
	epochPoints uint64

	// Lifetime counters.
	calibrations uint64
	samples      uint64
}

func newAutoState(cfg AutoThreshold, epochTicks uint64) *autoState {
	stride := epochTicks / autoSamplesPerEpoch
	if stride == 0 {
		stride = 1
	}
	a := &autoState{
		risk:      cfg.Risk,
		level:     cfg.Level,
		stride:    stride,
		nSlots:    int((epochTicks + stride - 1) / stride),
		effTrials: 1,
	}
	for m := 0; m < autoMeasures; m++ {
		for ar := 1; ar <= core.MaxSubspaceDims; ar++ {
			a.cals[m][ar] = evt.NewCalibrator(cfg.Level)
			a.win[m][ar] = make([]float64, autoWindowCap)
		}
	}
	return a
}

// sampleSlot returns the slot index of a stream tick, or -1 when the
// tick is not sampled. Slots are a pure function of the tick and the
// epoch length, so batch and pointwise ingestion sample identically.
func (a *autoState) sampleSlot(tick, epochTicks uint64) int {
	off := (tick - 1) % epochTicks
	if off%a.stride != 0 {
		return -1
	}
	return int(off / a.stride)
}

// pushSample appends one per-point minimum to the (m, ar) rolling
// window, displacing the oldest sample once the ring is full.
func (a *autoState) pushSample(m, ar int, v float64) {
	w := a.win[m][ar]
	w[a.winPos[m][ar]] = v
	a.winPos[m][ar] = (a.winPos[m][ar] + 1) % len(w)
	if a.winLen[m][ar] < len(w) {
		a.winLen[m][ar]++
	}
	a.samples++
}

// calibrated reports whether any calibrator holds a fitted threshold —
// the gate for the effective-trials controller, so warm-start epochs
// flagged under the fixed thresholds never steer it.
func (a *autoState) calibrated() bool {
	for m := 0; m < autoMeasures; m++ {
		for ar := 1; ar <= core.MaxSubspaceDims; ar++ {
			if a.cals[m][ar].Calibrated() {
				return true
			}
		}
	}
	return false
}

// countFlags folds one epoch chunk's verdict accounting into the
// controller window.
func (a *autoState) countFlags(points, flags uint64) {
	a.epochPoints += points
	a.epochFlags += flags
}

// autoRefit is the dispatcher's per-sweep calibration pass: update the
// effective-trials controller from the epoch's realized flagged rate,
// min-merge the shards' per-slot sample buffers into the rolling
// windows, and refit every calibrator at the controlled risk. Runs
// with shard workers idle.
func (d *Detector) autoRefit() {
	a := d.auto
	if a.calibrated() && a.epochPoints > 0 {
		a.emaFlags = autoEMARetain*a.emaFlags + float64(a.epochFlags)
		a.emaPoints = autoEMARetain*a.emaPoints + float64(a.epochPoints)
		realized := a.emaFlags / a.emaPoints
		if floor := a.risk / autoRateFloorDiv; realized < floor {
			realized = floor
		}
		adj := math.Sqrt(realized / a.risk)
		if adj < autoAdjMin {
			adj = autoAdjMin
		} else if adj > autoAdjMax {
			adj = autoAdjMax
		}
		a.effTrials *= adj
		if a.effTrials < 1 {
			a.effTrials = 1
		} else if a.effTrials > autoTrialsMax {
			a.effTrials = autoTrialsMax
		}
	}
	a.epochFlags, a.epochPoints = 0, 0
	qEff := a.risk / a.effTrials
	if qEff > autoQEffMax {
		qEff = autoQEffMax
	}
	for m := 0; m < autoMeasures; m++ {
		for ar := 1; ar <= core.MaxSubspaceDims; ar++ {
			for slot := 0; slot < a.nSlots; slot++ {
				v := math.Inf(1)
				for _, sh := range d.shards {
					if s := sh.autoSamp[m][ar][slot]; s < v {
						v = s
					}
				}
				if !math.IsInf(v, 1) {
					a.pushSample(m, ar, v)
				}
			}
			n := a.winLen[m][ar]
			a.sortBuf = append(a.sortBuf[:0], a.win[m][ar][:n]...)
			slices.Sort(a.sortBuf)
			if a.cals[m][ar].Refit(a.sortBuf, qEff) {
				a.calibrations++
			}
		}
	}
	for _, sh := range d.shards {
		sh.resetAutoSamples()
	}
}

// resetAutoSamples clears the shard's per-slot sample minima for the
// next epoch.
func (s *shard) resetAutoSamples() {
	inf := math.Inf(1)
	for m := range s.autoSamp {
		for ar := range s.autoSamp[m] {
			for i := range s.autoSamp[m][ar] {
				s.autoSamp[m][ar][i] = inf
			}
		}
	}
}

// foldAutoSample folds one (subspace, point) observation into the
// shard's per-slot measure minima: the post-touch RD always, and —
// behind the identical rd < 1 gate the verdict pass uses, so the
// calibrated tail matches the tested population — IRSD and IkRD.
// The inputs are the same tick-time scalars the verdict compares
// (post-touch cell density and magnitude sum, the subspace totals
// snapshotted at the point's tick), so the sampled distribution is
// exactly the one the thresholds cut.
func (s *shard) foldAutoSample(st *subspaceState, li int, key uint64, lhs, dc, cellS, tdc, ts, tq float64, slot int) {
	ar := int(st.size)
	rd := lhs / tdc
	if rd < s.autoSamp[autoRD][ar][slot] {
		s.autoSamp[autoRD][ar][slot] = rd
	}
	if rd >= 1 {
		return
	}
	if irsd, ok := irsdOf(cellS/dc, tdc, ts, tq); ok && irsd < s.autoSamp[autoIRSD][ar][slot] {
		s.autoSamp[autoIRSD][ar][slot] = irsd
	}
	if ikrd, ok := s.ikrdOf(st, li, key); ok && ikrd < s.autoSamp[autoIkRD][ar][slot] {
		s.autoSamp[autoIkRD][ar][slot] = ikrd
	}
}

// refreshAutoThresholds publishes the calibrated thresholds into the
// shard's per-subspace states — the auto-mode counterpart of
// refreshPopFloors. Arities whose calibrators have not fitted yet keep
// the configured fixed thresholds, so warm-start behavior matches a
// fixed-threshold detector until the first window fills. The
// populated-RD floor is cleared: per-arity calibration of RD itself
// subsumes the arity-aware companion test.
func (s *shard) refreshAutoThresholds() {
	a := s.det.auto
	cfg := &s.det.cfg
	for li := range s.states {
		st := &s.states[li]
		st.popFloor = 0
		if c := a.cals[autoRD][st.size]; c.Calibrated() {
			st.rdThr = c.Threshold()
		} else {
			st.rdThr = cfg.RDThreshold
		}
		if c := a.cals[autoIRSD][st.size]; c.Calibrated() {
			st.irsdThr = c.Threshold()
		} else {
			st.irsdThr = cfg.IRSDThreshold
		}
		if c := a.cals[autoIkRD][st.size]; c.Calibrated() {
			st.ikrdThr = c.Threshold()
		} else {
			st.ikrdThr = cfg.IkRDThreshold
		}
	}
}

// refreshThresholds publishes per-subspace verdict thresholds on every
// shard after a sweep (or a restore): calibrated EVT thresholds in
// auto mode, the arity-aware populated-RD floors otherwise.
func (d *Detector) refreshThresholds() {
	for _, sh := range d.shards {
		if d.auto != nil {
			sh.refreshAutoThresholds()
		} else {
			sh.refreshPopFloors()
		}
	}
}
