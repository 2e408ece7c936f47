// Command spotbench measures the streaming throughput of the SPOT
// detector across dimensionalities and shard counts, plus the epoch
// engine's memory-bounding and SST-evolution behavior, and writes the
// results as JSON (BENCH_core.json), the repo's tracked performance
// baseline. Unlike `go test -bench` it drives the detector directly,
// so the output is a machine-readable artifact rather than text to
// parse. Each report records the git commit it was produced from.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"spot/internal/bench"
	"spot/internal/replica"
	"spot/internal/server"
	"spot/internal/sst"
	"spot/internal/stream"
)

// result is one throughput measurement at a (dims, shards)
// configuration. NsPerPoint is the inverse throughput; AllocsPerPoint
// counts heap allocations per ingested point over the timed window
// (steady state should be ~0 — the microbench suite gates the exact
// zero).
type result struct {
	Name           string  `json:"name"`
	Dims           int     `json:"dims"`
	Shards         int     `json:"shards"`
	MaxDim         int     `json:"max_subspace_dim"`
	Phi            int     `json:"phi"`
	Subspaces      int     `json:"subspaces"`
	Batch          int     `json:"batch"`
	Points         int     `json:"points"`
	Seconds        float64 `json:"seconds"`
	PointsPerSec   float64 `json:"points_per_sec"`
	NsPerPoint     float64 `json:"ns_per_point"`
	AllocsPerPoint float64 `json:"allocs_per_point"`
	OutlierRate    float64 `json:"flagged_rate"`
	ProjectedCell  int     `json:"projected_cells"`
	BaseCells      int     `json:"base_cells"`
	// DistinctCellsPerBatch is the average number of distinct projected
	// cells per (subspace, batch) grouping pass and CellDupRatio the
	// points-folded-per-distinct-cell factor — the workload's intra-
	// batch duplication, which is exactly what batch cell coalescing
	// converts into saved index probes.
	DistinctCellsPerBatch float64 `json:"distinct_cells_per_batch"`
	CellDupRatio          float64 `json:"cell_dup_ratio"`
	// Ranking quality on a fresh labeled evaluation stream fed after the
	// timed window: tie-aware rank AUC of the ensemble score against the
	// planted ground truth, precision@K at K = planted count
	// (R-precision, with fractional credit for the boundary tie group),
	// and the recall of the plain verdict bitset on the same points —
	// the baseline the calibrated ranking has to beat. Zero on the
	// uniform adversarial stream, which plants no outliers.
	EvalPoints   int     `json:"eval_points"`
	EvalPlanted  int     `json:"eval_planted"`
	AUC          float64 `json:"auc"`
	PrecisionAtK float64 `json:"precision_at_k"`
	RankK        int     `json:"rank_k"`
	BitsetRecall float64 `json:"bitset_recall"`
	// BitsetPrecisionAtK is precision@K of the bitset treated as a
	// two-level ranking (flagged=1, unflagged=0, ties fractional) — the
	// best a consumer of the old boolean API can do when asked for the K
	// worst offenders, and the floor the calibrated score must beat.
	BitsetPrecisionAtK float64 `json:"bitset_precision_at_k"`
}

// driftResult reports the bounded-memory run: a jump-drifting stream
// where only epoch eviction keeps the summary tables from growing with
// every cell ever touched.
type driftResult struct {
	Dims             int     `json:"dims"`
	Points           int     `json:"points"`
	DriftPeriod      int     `json:"drift_period"`
	EpochTicks       uint64  `json:"epoch_ticks"`
	EvictEpsilon     float64 `json:"evict_epsilon"`
	EntriesMid       int     `json:"summary_entries_mid"`
	EntriesEnd       int     `json:"summary_entries_end"`
	GrowthRatio      float64 `json:"end_over_mid"`
	UnboundedEntries int     `json:"summary_entries_no_eviction"`
	EvictedProjected uint64  `json:"evicted_projected"`
	EvictedBase      uint64  `json:"evicted_base"`
	Sweeps           uint64  `json:"sweeps"`
}

// evolutionResult reports the self-evolving-SST run: projected
// outliers planted outside the fixed group, detectable only after the
// evolver promotes their subspace.
type evolutionResult struct {
	Dims          int     `json:"dims"`
	Points        int     `json:"points"`
	Promoted      uint64  `json:"promoted"`
	Demoted       uint64  `json:"demoted"`
	EvolvedActive int     `json:"evolved_active"`
	Planted       int     `json:"planted_outliers"`
	Caught        int     `json:"caught_outliers"`
	Recall        float64 `json:"recall_post_promotion"`
}

// supervisedResult reports the supervised-MOGA run: the same
// high-dimensional mix-outlier stream fed to an unsupervised-only
// detector (TopSparse, whose per-epoch Explore budget is a needle-in-
// haystack search at this d) and to a supervised one (TopSparse + MOGA
// behind sst.Multi) whose MOGA group learns from confirmed-outlier
// examples fed back between points. Recall is recorded per epoch so the
// artifact shows how many epochs each detector needs before the planted
// ground-truth subspace is found.
type supervisedResult struct {
	Dims               int       `json:"dims"`
	Points             int       `json:"points"`
	EpochTicks         uint64    `json:"epoch_ticks"`
	MixDim             int       `json:"mix_dim"`
	CandidatePairs     int       `json:"candidate_pairs"`
	ExamplesMarked     int       `json:"examples_marked"`
	RecallByEpochUnsup []float64 `json:"recall_by_epoch_unsupervised"`
	RecallByEpochSup   []float64 `json:"recall_by_epoch_supervised"`
	RecallUnsup        float64   `json:"recall_overall_unsupervised"`
	RecallSup          float64   `json:"recall_overall_supervised"`
	TruthFoundUnsup    bool      `json:"truth_found_unsupervised"`
	TruthFoundByMOGA   bool      `json:"truth_found_by_moga"`
	TruthInTopSparse   bool      `json:"truth_in_topsparse_supervised_run"`
	MOGAPromoted       [][]int   `json:"moga_promoted_subspaces"`
}

// report is the full JSON artifact.
type report struct {
	Generated     string               `json:"generated"`
	GitSHA        string               `json:"git_sha"`
	GoVersion     string               `json:"go_version"`
	NumCPU        int                  `json:"num_cpu"`
	GOMAXPROCS    int                  `json:"gomaxprocs"`
	Benchmarks    []result             `json:"benchmarks"`
	Ratios        map[string]float64   `json:"shard8_over_shard1"`
	Drift         *driftResult         `json:"drift_memory"`
	Evolution     *evolutionResult     `json:"sst_evolution"`
	Supervised    *supervisedResult    `json:"supervised"`
	Checkpoint    *checkpointResult    `json:"checkpoint"`
	AutoThreshold *autoThresholdResult `json:"auto_threshold"`
	ServingPath   *servingPathResult   `json:"serving_path"`
}

// run measures throughput for one scenario: a (dims, shards) grid point
// on the default clustered stream, or — for the duplication-free
// coalescing scenario — the uniform adversarial stream.
func run(name string, d, shards, batch int, dur time.Duration, uniform bool) (result, error) {
	cfg := stream.DefaultConfig(d)
	cfg.MaxSubspaceDim = bench.MaxDimFor(d)
	cfg.Shards = shards
	// The timed loop recycles a small batch pool, so every point recurs
	// with a period ~3× the decay window and every cell looks
	// perpetually fresh — a degenerate workload the populated-RD test
	// would flag wholesale, drowning the flagged-rate signal. Disable
	// it here (its hot-path cost is one compare); the drift and
	// evolution runs below use real streams and keep it.
	cfg.RDPopulatedThreshold = 0
	// The timed loop runs scored: AllocsPerPoint below is the live proof
	// that ensemble scoring, attribution capture and top-K maintenance
	// stay allocation-free in steady state, and the post-timed eval
	// phase reuses the same detector for the ranking metrics.
	cfg.Scoring = true
	cfg.TopK = 16
	det, err := stream.New(cfg)
	if err != nil {
		return result{}, err
	}
	defer det.Close()

	gcfg := bench.DefaultGenConfig(d)
	gcfg.Uniform = uniform
	gen := bench.NewGenerator(gcfg)
	flats := batchPool(gen, d, batch)
	labels := make([]bool, batch)
	out := make([]bool, batch)
	scores := make([]float64, batch)
	w, err := timeBatches(flats, batch, dur, func(flat []float64) (int, error) {
		if _, err := det.ProcessBatch(flat, out, scores); err != nil {
			return 0, err
		}
		return countFlagged(out), nil
	})
	if err != nil {
		return result{}, err
	}
	var distinct, dup float64
	if s := det.Stats(); s.CoalesceGroupings > 0 {
		distinct = float64(s.CoalescedDistinct) / float64(s.CoalesceGroupings)
		dup = float64(s.CoalescedPoints) / float64(s.CoalescedDistinct)
	}

	// Ranking evaluation: fresh labeled points from the same generator
	// (not the recycled pool), scored by the warmed detector. The planted
	// outliers are the ground truth for AUC / precision@K; the verdict
	// bitset's recall on the identical points is the baseline.
	const evalBatches = 16
	evalScores := make([]float64, 0, evalBatches*batch)
	evalBits := make([]float64, 0, evalBatches*batch)
	evalLabels := make([]bool, 0, evalBatches*batch)
	planted, caught := 0, 0
	for i := 0; i < evalBatches; i++ {
		gen.Fill(flats[0], labels, batch)
		if _, err := det.ProcessBatch(flats[0], out, scores); err != nil {
			return result{}, err
		}
		evalScores = append(evalScores, scores...)
		evalLabels = append(evalLabels, labels...)
		for j, lab := range labels {
			bit := 0.0
			if out[j] {
				bit = 1.0
			}
			evalBits = append(evalBits, bit)
			if lab {
				planted++
				if out[j] {
					caught++
				}
			}
		}
	}
	auc, prec, rankK := rankMetrics(evalScores, evalLabels)
	_, bitsetPrec, _ := rankMetrics(evalBits, evalLabels)
	var bitsetRecall float64
	if planted > 0 {
		bitsetRecall = float64(caught) / float64(planted)
	}

	return w.measured(result{
		Name:          name,
		Dims:          d,
		Shards:        shards,
		MaxDim:        cfg.MaxSubspaceDim,
		Phi:           cfg.Phi,
		Subspaces:     det.Template().Count(),
		Batch:         batch,
		ProjectedCell: det.ProjectedCells(),
		BaseCells:     det.BaseCells(),

		DistinctCellsPerBatch: distinct,
		CellDupRatio:          dup,
		EvalPoints:            len(evalLabels),
		EvalPlanted:           planted,
		AUC:                   auc,
		PrecisionAtK:          prec,
		RankK:                 rankK,
		BitsetRecall:          bitsetRecall,
		BitsetPrecisionAtK:    bitsetPrec,
	}), nil
}

// batchPool fills the recycled pool of four batches every throughput
// row ingests round-robin.
func batchPool(gen *bench.Generator, d, batch int) [][]float64 {
	labels := make([]bool, batch)
	flats := make([][]float64, 4)
	for i := range flats {
		flats[i] = make([]float64, batch*d)
		gen.Fill(flats[i], labels, batch)
	}
	return flats
}

// window is what timeBatches measured over its timed loop: points
// ingested and flagged, wall seconds, and heap allocations.
type window struct {
	points, flagged int
	seconds         float64
	mallocs         uint64
}

// measured fills a result row's throughput fields from the window.
func (w window) measured(r result) result {
	r.Points = w.points
	r.Seconds = w.seconds
	r.PointsPerSec = float64(w.points) / w.seconds
	r.NsPerPoint = w.seconds * 1e9 / float64(w.points)
	r.AllocsPerPoint = float64(w.mallocs) / float64(w.points)
	r.OutlierRate = float64(w.flagged) / float64(w.points)
	return r
}

// timeBatches is the throughput loop of every library and daemon row:
// one untimed pass over the batch pool populates the cell tables, then
// the pool is ingested round-robin until dur elapses. ingest returns
// how many of the batch's points were flagged.
func timeBatches(flats [][]float64, batch int, dur time.Duration, ingest func(flat []float64) (int, error)) (window, error) {
	for _, flat := range flats {
		if _, err := ingest(flat); err != nil {
			return window{}, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var w window
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		flagged, err := ingest(flats[i%len(flats)])
		if err != nil {
			return window{}, err
		}
		w.points += batch
		w.flagged += flagged
	}
	w.seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	return w, nil
}

// countFlagged counts the flagged verdicts of one batch.
func countFlagged(out []bool) int {
	n := 0
	for _, f := range out {
		if f {
			n++
		}
	}
	return n
}

// rankMetrics scores a labeled ranking: tie-aware AUC via the rank-sum
// (Mann–Whitney U) statistic with average ranks over tie groups, and
// precision@K at K = positive count with fractional credit for
// positives inside the tie group straddling the K-th rank — both are
// therefore invariant to how a sort breaks score ties. Returns zeros
// when either class is empty (e.g. the uniform stream plants nothing).
func rankMetrics(scores []float64, labels []bool) (auc, precAtK float64, k int) {
	n := len(scores)
	pos := 0
	for _, lab := range labels {
		if lab {
			pos++
		}
	}
	if pos == 0 || pos == n {
		return 0, 0, pos
	}
	k = pos
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	// AUC: walk descending score, assign each tie group its average
	// rank (1 = highest score), then AUC = (R⁺ − pos(pos+1)/2)/(pos·neg)
	// computed against ascending ranks — equivalently, flip the
	// descending rank sum.
	var posRankSum float64
	for i := 0; i < n; {
		j := i
		grpPos := 0
		for j < n && scores[idx[j]] == scores[idx[i]] {
			if labels[idx[j]] {
				grpPos++
			}
			j++
		}
		avgDescRank := float64(i+j+1) / 2 // mean of descending ranks i+1..j
		posRankSum += float64(grpPos) * avgDescRank
		i = j
	}
	neg := n - pos
	// Convert descending ranks to ascending: rAsc = n+1 − rDesc.
	ascSum := float64(pos)*float64(n+1) - posRankSum
	auc = (ascSum - float64(pos)*float64(pos+1)/2) / (float64(pos) * float64(neg))

	// Precision@K: positives strictly above the K-th score count whole;
	// the tie group at the K-th score fills the remaining slots with its
	// positive fraction.
	kth := scores[idx[k-1]]
	above, posAbove, tieN, tiePos := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		switch {
		case scores[i] > kth:
			above++
			if labels[i] {
				posAbove++
			}
		case scores[i] == kth:
			tieN++
			if labels[i] {
				tiePos++
			}
		}
	}
	credit := float64(posAbove)
	if tieN > 0 {
		credit += float64(k-above) * float64(tiePos) / float64(tieN)
	}
	precAtK = credit / float64(k)
	return auc, precAtK, k
}

// runDrift measures the memory-bounding behavior on a jump-drifting
// stream, with and without epoch sweeps.
func runDrift() (*driftResult, error) {
	const (
		d      = 20
		points = 24000
		drift  = 1000
	)
	mk := func(epoch uint64) stream.Config {
		cfg := stream.DefaultConfig(d)
		cfg.MaxSubspaceDim = 2
		cfg.Shards = 2
		cfg.Lambda = 0.01
		cfg.Warmup = 50
		cfg.EpochTicks = epoch
		cfg.EvictEpsilon = 1e-4
		if epoch == 0 {
			cfg.RDPopulatedThreshold = 0
		}
		return cfg
	}
	gcfg := bench.DefaultGenConfig(d)
	gcfg.DriftPeriod = drift

	feed := func(cfg stream.Config) (mid int, s stream.Stats, err error) {
		det, err := stream.New(cfg)
		if err != nil {
			return 0, stream.Stats{}, err
		}
		defer det.Close()
		gen := bench.NewGenerator(gcfg)
		buf := make([]float64, d)
		for i := 0; i < points; i++ {
			gen.Next(buf)
			if _, _, err := det.Process(buf); err != nil {
				return 0, stream.Stats{}, err
			}
			if i+1 == points/2 {
				mid = det.Stats().SummaryEntries
			}
		}
		return mid, det.Stats(), nil
	}

	cfg := mk(500)
	mid, s, err := feed(cfg)
	if err != nil {
		return nil, err
	}
	cfgNo := mk(0)
	_, sNo, err := feed(cfgNo)
	if err != nil {
		return nil, err
	}
	return &driftResult{
		Dims:             d,
		Points:           points,
		DriftPeriod:      drift,
		EpochTicks:       cfg.EpochTicks,
		EvictEpsilon:     cfg.EvictEpsilon,
		EntriesMid:       mid,
		EntriesEnd:       s.SummaryEntries,
		GrowthRatio:      float64(s.SummaryEntries) / float64(mid),
		UnboundedEntries: sNo.SummaryEntries,
		EvictedProjected: s.EvictedProjected,
		EvictedBase:      s.EvictedBase,
		Sweeps:           s.Sweeps,
	}, nil
}

// runEvolution measures the self-evolving group end to end: mix
// outliers invisible to the arity-1 fixed group until promotion.
func runEvolution() (*evolutionResult, error) {
	const (
		d      = 6
		points = 3000
	)
	ev, err := sst.NewTopSparse(sst.TopSparseConfig{
		Arity: 2, TopS: 2, Explore: 64, SparseRatio: 0.1, MinScore: 0.05, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	cfg := stream.DefaultConfig(d)
	cfg.MaxSubspaceDim = 1
	cfg.Shards = 2
	cfg.Lambda = 0.02
	cfg.Warmup = 30
	cfg.EpochTicks = 400
	cfg.EvictEpsilon = 1e-4
	cfg.RDPopulatedThreshold = 0.2
	cfg.Evolver = ev
	det, err := stream.New(cfg)
	if err != nil {
		return nil, err
	}
	defer det.Close()

	gcfg := bench.GenConfig{
		Dims: d,
		Centers: [][]float64{
			{0.19, 0.19, 0.19, 0.19, 0.19, 0.19},
			{0.81, 0.81, 0.81, 0.81, 0.81, 0.81},
		},
		Sigma:       0.005,
		OutlierRate: 0.02,
		Mode:        bench.OutlierMix,
		MixDim:      4,
		Seed:        11,
	}
	gen := bench.NewGenerator(gcfg)
	buf := make([]float64, d)
	planted, caught := 0, 0
	for i := 0; i < points; i++ {
		isOut := gen.Next(buf)
		flag, _, err := det.Process(buf)
		if err != nil {
			return nil, err
		}
		if i < 2*int(cfg.EpochTicks)+100 {
			continue // pre-promotion + warmup window
		}
		if isOut {
			planted++
			if flag {
				caught++
			}
		}
	}
	s := det.Stats()
	recall := 0.0
	if planted > 0 {
		recall = float64(caught) / float64(planted)
	}
	return &evolutionResult{
		Dims:          d,
		Points:        points,
		Promoted:      s.Promoted,
		Demoted:       s.Demoted,
		EvolvedActive: s.EvolvedActive,
		Planted:       planted,
		Caught:        caught,
		Recall:        recall,
	}, nil
}

// runSupervised measures the supervised MOGA group end to end at a
// dimensionality where unsupervised subspace search is a lottery:
// C(64,2) = 2016 candidate pairs, of which only the 63 containing the
// mix dimension reveal the planted outliers, against a TopSparse budget
// of 4 random candidates per epoch (~12% chance per epoch of sampling
// any truth pair). The supervised detector runs the same TopSparse plus
// a MOGA group fed every confirmed outlier as an example; once any
// genome touches the mix dimension the example-driven objectives pin
// it, so the population converges within the first epochs.
func runSupervised() (*supervisedResult, error) {
	const (
		d      = 64
		mixDim = 11
		epochs = 12
	)
	centerA := make([]float64, d)
	centerB := make([]float64, d)
	for i := range centerA {
		centerA[i] = 0.19
		centerB[i] = 0.81
	}
	gcfg := bench.GenConfig{
		Dims:        d,
		Centers:     [][]float64{centerA, centerB},
		Sigma:       0.005,
		OutlierRate: 0.02,
		Mode:        bench.OutlierMix,
		MixDim:      mixDim,
		Seed:        11,
	}
	newTopSparse := func() (*sst.TopSparse, error) {
		return sst.NewTopSparse(sst.TopSparseConfig{
			Arity: 2, TopS: 2, Explore: 4, SparseRatio: 0.1, MinScore: 0.05, Seed: 1,
		})
	}
	mkCfg := func(ev sst.Evolver) stream.Config {
		cfg := stream.DefaultConfig(d)
		cfg.MaxSubspaceDim = 1
		cfg.Shards = 2
		cfg.Lambda = 0.02
		cfg.Warmup = 30
		cfg.EpochTicks = 400
		cfg.EvictEpsilon = 1e-4
		cfg.RDPopulatedThreshold = 0.2
		cfg.Evolver = ev
		return cfg
	}

	// runOne streams the identical point sequence through one detector,
	// optionally feeding planted outliers back as examples, and records
	// recall per epoch window plus overall recall past the promotion +
	// warmup horizon. The caller inspects the template before Close.
	runOne := func(ev sst.Evolver, supervise bool) (*stream.Detector, []float64, float64, int, error) {
		cfg := mkCfg(ev)
		det, err := stream.New(cfg)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		gen := bench.NewGenerator(gcfg)
		buf := make([]float64, d)
		measureFrom := 2*int(cfg.EpochTicks) + 100
		var recalls []float64
		var planted, caught, totPlanted, totCaught, marked int
		for i := 0; i < epochs*int(cfg.EpochTicks); i++ {
			isOut := gen.Next(buf)
			flag, _, err := det.Process(buf)
			if err == nil && isOut && supervise {
				err = det.MarkExample(buf)
				marked++
			}
			if err != nil {
				det.Close()
				return nil, nil, 0, 0, err
			}
			if isOut {
				planted++
				if flag {
					caught++
				}
				if i >= measureFrom {
					totPlanted++
					if flag {
						totCaught++
					}
				}
			}
			if (i+1)%int(cfg.EpochTicks) == 0 {
				r := 0.0
				if planted > 0 {
					r = float64(caught) / float64(planted)
				}
				recalls = append(recalls, r)
				planted, caught = 0, 0
			}
		}
		overall := 0.0
		if totPlanted > 0 {
			overall = float64(totCaught) / float64(totPlanted)
		}
		return det, recalls, overall, marked, nil
	}

	// containsMix reports whether a live evolved pair of the detector
	// contains the mix dimension and passes the ownership test.
	containsMix := func(det *stream.Detector, owns func([]uint16) bool) bool {
		for _, id := range det.Template().EvolvedIDs(nil) {
			dims := det.Template().Dims(int(id))
			for _, dim := range dims {
				if dim == uint16(mixDim) && (owns == nil || owns(dims)) {
					return true
				}
			}
		}
		return false
	}

	tsU, err := newTopSparse()
	if err != nil {
		return nil, err
	}
	detU, recallsU, overallU, _, err := runOne(tsU, false)
	if err != nil {
		return nil, err
	}
	defer detU.Close()

	tsS, err := newTopSparse()
	if err != nil {
		return nil, err
	}
	moga, err := sst.NewMOGA(sst.MOGAConfig{
		MinArity: 2, MaxArity: 2, PopSize: 24, Generations: 6, TopS: 2,
		SparseRatio: 0.1, MinCoverage: 0.6, MinSparsity: 0.5, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	detS, recallsS, overallS, marked, err := runOne(sst.Multi{tsS, moga}, true)
	if err != nil {
		return nil, err
	}
	defer detS.Close()

	var mogaSets [][]int
	for _, id := range detS.Template().EvolvedIDs(nil) {
		dims := detS.Template().Dims(int(id))
		if moga.Owns(dims) {
			set := make([]int, len(dims))
			for i, dim := range dims {
				set[i] = int(dim)
			}
			mogaSets = append(mogaSets, set)
		}
	}
	return &supervisedResult{
		Dims:               d,
		Points:             epochs * 400,
		EpochTicks:         400,
		MixDim:             mixDim,
		CandidatePairs:     d * (d - 1) / 2,
		ExamplesMarked:     marked,
		RecallByEpochUnsup: recallsU,
		RecallByEpochSup:   recallsS,
		RecallUnsup:        overallU,
		RecallSup:          overallS,
		TruthFoundUnsup:    containsMix(detU, nil),
		TruthFoundByMOGA:   containsMix(detS, moga.Owns),
		TruthInTopSparse:   containsMix(detS, tsS.Owns),
		MOGAPromoted:       mogaSets,
	}, nil
}

// checkpointResult reports the crash-safe checkpoint path on a
// populated detector: the full-state snapshot size and the
// encode (Detector.Snapshot) and decode (stream.Restore) cost, so
// bench-compare catches a checkpoint that silently bloats or a restore
// that stops being cheap enough to run on a recovery path.
type checkpointResult struct {
	Dims           int     `json:"dims"`
	Shards         int     `json:"shards"`
	ProjectedCells int     `json:"projected_cells"`
	BaseCells      int     `json:"base_cells"`
	SnapshotBytes  int64   `json:"snapshot_bytes"`
	EncodeOps      int     `json:"encode_ops"`
	DecodeOps      int     `json:"decode_ops"`
	EncodeNsPerOp  float64 `json:"encode_ns_per_op"`
	DecodeNsPerOp  float64 `json:"decode_ns_per_op"`
}

// runCheckpoint populates a d=20 detector with the clustered stream,
// then times snapshot encodes into a reused buffer and restores from
// the captured bytes, each for the configured duration.
func runCheckpoint(dur time.Duration, batch int) (*checkpointResult, error) {
	const d = 20
	cfg := stream.DefaultConfig(d)
	cfg.MaxSubspaceDim = bench.MaxDimFor(d)
	cfg.Shards = 4
	det, err := stream.New(cfg)
	if err != nil {
		return nil, err
	}
	defer det.Close()
	gen := bench.NewGenerator(bench.DefaultGenConfig(d))
	flat := make([]float64, batch*d)
	labels := make([]bool, batch)
	out := make([]bool, batch)
	for i := 0; i < 40; i++ {
		gen.Fill(flat, labels, batch)
		if _, err := det.ProcessBatch(flat, out, nil); err != nil {
			return nil, err
		}
	}

	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		return nil, err
	}
	raw := append([]byte(nil), buf.Bytes()...)

	encOps := 0
	start := time.Now()
	for time.Since(start) < dur {
		buf.Reset()
		if err := det.Snapshot(&buf); err != nil {
			return nil, err
		}
		encOps++
	}
	encNs := float64(time.Since(start).Nanoseconds()) / float64(encOps)

	decOps := 0
	start = time.Now()
	for time.Since(start) < dur {
		restored, err := stream.Restore(bytes.NewReader(raw), cfg)
		if err != nil {
			return nil, err
		}
		restored.Close()
		decOps++
	}
	decNs := float64(time.Since(start).Nanoseconds()) / float64(decOps)

	return &checkpointResult{
		Dims:           d,
		Shards:         cfg.Shards,
		ProjectedCells: det.ProjectedCells(),
		BaseCells:      det.BaseCells(),
		SnapshotBytes:  int64(len(raw)),
		EncodeOps:      encOps,
		DecodeOps:      decOps,
		EncodeNsPerOp:  encNs,
		DecodeNsPerOp:  decNs,
	}, nil
}

// servingPathResult reports the serving-path comparison: the identical
// d=20 batched stream driven through the library detector directly,
// through an in-process spotd server over a real loopback TCP
// connection (one synchronous Ingest round-trip per batch), and
// through that same server while a warm standby receives snapshot
// generations from the replication shipper. The two ratios are the
// artifact's record of what the wire costs and what replication costs
// on top of it; the shipped-generation counters prove the standby leg
// actually replicated during the timed window rather than measuring an
// idle shipper.
type servingPathResult struct {
	Dims                int     `json:"dims"`
	Shards              int     `json:"shards"`
	Batch               int     `json:"batch"`
	ReplIntervalMillis  int64   `json:"replicate_interval_millis"`
	LibraryPointsPerSec float64 `json:"library_points_per_sec"`
	DaemonPointsPerSec  float64 `json:"daemon_points_per_sec"`
	StandbyPointsPerSec float64 `json:"daemon_standby_points_per_sec"`
	DaemonOverLibrary   float64 `json:"daemon_over_library"`
	StandbyOverDaemon   float64 `json:"standby_over_daemon"`
	GenerationsShipped  uint64  `json:"generations_shipped"`
	ReplicationBytes    uint64  `json:"replication_bytes_shipped"`
	StandbyTicksBehind  uint64  `json:"standby_ticks_behind_at_end"`
}

// servingTenant is the tenant name every serving-path leg ingests into.
const servingTenant = "bench"

// runServingPath measures the three serving-path legs on the same
// clustered stream and batch pool as the grid points. Each leg warms
// the detector with the pool before timing; the daemon legs speak the
// real wire protocol over loopback TCP, so the measured gap includes
// encoding, the syscall path and the tenant worker handoff.
func runServingPath(dur time.Duration, batch int) (*servingPathResult, []result, error) {
	const (
		d            = 20
		shards       = 4
		replInterval = 100 * time.Millisecond
	)
	cfg := stream.DefaultConfig(d)
	cfg.MaxSubspaceDim = bench.MaxDimFor(d)
	cfg.Shards = shards
	// Same recycled-pool caveat as run(): the pool makes every cell look
	// perpetually fresh, so the populated-RD test would flag wholesale.
	cfg.RDPopulatedThreshold = 0

	flats := batchPool(bench.NewGenerator(bench.DefaultGenConfig(d)), d, batch)

	// startServer serves one in-process spotd on loopback; the returned
	// stop drains it.
	startServer := func(opts server.Options) (*server.Server, string, func(), error) {
		s, err := server.New(opts, []server.TenantConfig{{Name: servingTenant, Stream: cfg}})
		if err != nil {
			return nil, "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", nil, err
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- s.Serve(ln) }()
		stop := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
			<-serveDone
		}
		return s, ln.Addr().String(), stop, nil
	}

	// Leg 1: the library path, no wire.
	det, err := stream.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	out := make([]bool, batch)
	lib, err := timeBatches(flats, batch, dur, func(flat []float64) (int, error) {
		if _, err := det.ProcessBatch(flat, out, nil); err != nil {
			return 0, err
		}
		return countFlagged(out), nil
	})
	det.Close()
	if err != nil {
		return nil, nil, err
	}

	// Leg 2: the daemon path — one synchronous Ingest per batch over
	// loopback TCP.
	ingestLeg := func(addr string) (window, error) {
		c, err := server.Dial(addr)
		if err != nil {
			return window{}, err
		}
		defer c.Close()
		return timeBatches(flats, batch, dur, func(flat []float64) (int, error) {
			res, err := c.Ingest(servingTenant, flat, batch, server.IngestOptions{})
			if err != nil {
				return 0, err
			}
			return countFlagged(res.Verdicts), nil
		})
	}
	_, priAddr, priStop, err := startServer(server.Options{ID: "bench-pri"})
	if err != nil {
		return nil, nil, err
	}
	daemon, err := ingestLeg(priAddr)
	priStop()
	if err != nil {
		return nil, nil, err
	}

	// Leg 3: the daemon path again, with a warm standby receiving
	// snapshot generations while the timed window runs.
	sby, sbyAddr, sbyStop, err := startServer(server.Options{ID: "bench-sby", Role: server.RoleStandby})
	if err != nil {
		return nil, nil, err
	}
	defer sbyStop()
	pri2, pri2Addr, pri2Stop, err := startServer(server.Options{ID: "bench-pri2"})
	if err != nil {
		return nil, nil, err
	}
	defer pri2Stop()
	shipper, err := replica.NewShipper(replica.ShipperConfig{
		Server:   pri2,
		Targets:  []string{sbyAddr},
		Interval: replInterval,
		ID:       "bench-pri2",
	})
	if err != nil {
		return nil, nil, err
	}
	standby, err := ingestLeg(pri2Addr)
	if err != nil {
		shipper.Stop()
		return nil, nil, err
	}
	// One final pass so the counters cover the last cut generation,
	// then freeze them before shutdown.
	time.Sleep(2 * replInterval)
	shipper.Stop()
	var gens, bytesShipped uint64
	for _, tgt := range shipper.Status().Targets {
		gens += tgt.GensShipped
		bytesShipped += tgt.BytesShipped
	}
	priTS, _ := pri2.Tenant(servingTenant)
	sbyTS, _ := sby.Tenant(servingTenant)
	var behind uint64
	if priTS.Tick > sbyTS.Tick {
		behind = priTS.Tick - sbyTS.Tick
	}

	mkRow := func(name string, w window) result {
		return w.measured(result{
			Name: name, Dims: d, Shards: shards, MaxDim: cfg.MaxSubspaceDim,
			Phi: cfg.Phi, Batch: batch,
		})
	}
	rows := []result{
		mkRow("serving/library", lib),
		mkRow("serving/daemon", daemon),
		mkRow("serving/daemon+standby", standby),
	}
	libPts, daemonPts, standbyPts := rows[0].PointsPerSec, rows[1].PointsPerSec, rows[2].PointsPerSec
	return &servingPathResult{
		Dims:                d,
		Shards:              shards,
		Batch:               batch,
		ReplIntervalMillis:  replInterval.Milliseconds(),
		LibraryPointsPerSec: libPts,
		DaemonPointsPerSec:  daemonPts,
		StandbyPointsPerSec: standbyPts,
		DaemonOverLibrary:   daemonPts / libPts,
		StandbyOverDaemon:   standbyPts / daemonPts,
		GenerationsShipped:  gens,
		ReplicationBytes:    bytesShipped,
		StandbyTicksBehind:  behind,
	}, rows, nil
}

// autoThresholdLeg is one detector configuration driven through the
// calibration stream: an auto-thresholded leg targeting per-point risk
// q, or the fixed-threshold control whose flagged rate simply follows
// the distribution.
type autoThresholdLeg struct {
	Name string `json:"name"`
	// Risk is the requested per-point flag probability; 0 marks the
	// fixed-threshold control leg.
	Risk          float64 `json:"risk"`
	WarmEpochs    int     `json:"warm_epochs"`
	MeasureEpochs int     `json:"measure_epochs"`
	// FlaggedSteady and FlaggedPostDrift are the pooled flagged rates
	// over the two measure windows, each taken after the controller's
	// ~40-epoch convergence transient (warm_epochs covers it).
	FlaggedSteady    float64 `json:"flagged_rate_steady"`
	FlaggedPostDrift float64 `json:"flagged_rate_post_drift"`
	// InBandSteady / InBandPostDrift report rate ∈ [q/3, 3q] — the
	// calibration contract bench-compare gates on. Always false on the
	// control leg (no q to be in band of).
	InBandSteady    bool    `json:"in_band_steady"`
	InBandPostDrift bool    `json:"in_band_post_drift"`
	Calibrations    uint64  `json:"calibrations"`
	EffTrials       float64 `json:"eff_trials"`
}

// autoThresholdResult reports the EVT auto-thresholding scenario: a
// pure-inlier uniform stream whose support abruptly collapses to half
// the box mid-run. The auto legs must hold their requested flagged rate
// through the shift once re-calibrated; the fixed-threshold control
// shows why that is not free — its rate moves with the distribution.
type autoThresholdResult struct {
	Dims       int                `json:"dims"`
	Shards     int                `json:"shards"`
	EpochTicks uint64             `json:"epoch_ticks"`
	Legs       []autoThresholdLeg `json:"legs"`
}

// runAutoThreshold drives each leg through warm/measure windows on both
// sides of the drift. Measure windows scale with 1/q so even the
// q=1e-4 leg pools enough expected flags (~50) for a stable rate.
func runAutoThreshold() (*autoThresholdResult, error) {
	const (
		d          = 20
		epochTicks = 512
		warmEpochs = 60
	)
	mk := func(risk float64) stream.Config {
		cfg := stream.DefaultConfig(d)
		cfg.MaxSubspaceDim = 2
		cfg.Shards = 1
		cfg.Lambda = 0.01
		cfg.Warmup = 50
		cfg.EpochTicks = epochTicks
		if risk > 0 {
			cfg.AutoThreshold = stream.AutoThreshold{Risk: risk}
		}
		return cfg
	}
	leg := func(name string, risk float64, measureEpochs int) (autoThresholdLeg, error) {
		det, err := stream.New(mk(risk))
		if err != nil {
			return autoThresholdLeg{}, err
		}
		defer det.Close()
		rng := rand.New(rand.NewSource(71))
		flat := make([]float64, epochTicks*d)
		out := make([]bool, epochTicks)
		feed := func(epochs int, scale float64) float64 {
			flags := 0
			for e := 0; e < epochs && err == nil; e++ {
				for i := range flat {
					flat[i] = rng.Float64() * scale
				}
				_, err = det.ProcessBatch(flat, out, nil)
				flags += countFlagged(out)
			}
			return float64(flags) / float64(epochs*epochTicks)
		}
		feed(warmEpochs, 1)
		steady := feed(measureEpochs, 1)
		// The support collapses to [0, 0.5)^d; re-learn, then measure.
		feed(warmEpochs, 0.5)
		drifted := feed(measureEpochs, 0.5)
		if err != nil {
			return autoThresholdLeg{}, err
		}
		s := det.Stats()
		inBand := func(rate float64) bool {
			return risk > 0 && rate >= risk/3 && rate <= risk*3
		}
		return autoThresholdLeg{
			Name:             name,
			Risk:             risk,
			WarmEpochs:       warmEpochs,
			MeasureEpochs:    measureEpochs,
			FlaggedSteady:    steady,
			FlaggedPostDrift: drifted,
			InBandSteady:     inBand(steady),
			InBandPostDrift:  inBand(drifted),
			Calibrations:     s.Calibrations,
			EffTrials:        s.AutoEffTrials,
		}, nil
	}
	res := &autoThresholdResult{Dims: d, Shards: 1, EpochTicks: epochTicks}
	for _, l := range []struct {
		name          string
		risk          float64
		measureEpochs int
	}{
		{"auto/q=1e-3", 1e-3, 200},
		{"auto/q=1e-4", 1e-4, 1000},
		{"fixed", 0, 200},
	} {
		r, err := leg(l.name, l.risk, l.measureEpochs)
		if err != nil {
			return nil, err
		}
		res.Legs = append(res.Legs, r)
	}
	return res, nil
}

// gitSHA resolves the current commit, preferring the flag value; falls
// back to asking git, then to "unknown" so the artifact never lies by
// omission.
func gitSHA(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	out := flag.String("out", "BENCH_core.json", "output JSON path")
	dur := flag.Duration("duration", 2*time.Second, "measurement duration per configuration")
	batch := flag.Int("batch", 512, "batch size in points")
	sha := flag.String("gitsha", "", "git commit to record (default: ask git)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
	flag.Parse()
	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "spotbench: -batch must be ≥ 1, got %d\n", *batch)
		os.Exit(2)
	}
	if *dur <= 0 {
		fmt.Fprintf(os.Stderr, "spotbench: -duration must be positive, got %v\n", *dur)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spotbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "spotbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	rep := report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GitSHA:     gitSHA(*sha),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Ratios:     map[string]float64{},
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "spotbench: %v\n", err)
		os.Exit(1)
	}
	perDim := map[int]map[int]float64{}
	for _, d := range []int{20, 50, 100} {
		perDim[d] = map[int]float64{}
		for _, shards := range []int{1, 4, 8} {
			r, err := run(fmt.Sprintf("d=%d/shards=%d", d, shards), d, shards, *batch, *dur, false)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%-18s %12.0f points/sec  auc=%.3f p@%d=%.3f (bitset %.3f)  (%d subspaces, %d cells, %.0f distinct/batch ×%.1f dup)\n",
				r.Name, r.PointsPerSec, r.AUC, r.RankK, r.PrecisionAtK, r.BitsetPrecisionAtK,
				r.Subspaces, r.ProjectedCell, r.DistinctCellsPerBatch, r.CellDupRatio)
			rep.Benchmarks = append(rep.Benchmarks, r)
			perDim[d][shards] = r.PointsPerSec
		}
		if perDim[d][1] > 0 {
			rep.Ratios[fmt.Sprintf("d=%d", d)] = perDim[d][8] / perDim[d][1]
		}
	}
	// The duplication-free stay-flat case for batch cell coalescing:
	// the adversarial uniform stream at d=20/shards=1, where the
	// high-arity subspaces find almost every point in its own cell.
	uq, err := run("d=20/shards=1/unique/coalesce", 20, 1, *batch, *dur, true)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-18s %12.0f points/sec  (%.0f distinct/batch ×%.1f dup)\n",
		uq.Name, uq.PointsPerSec, uq.DistinctCellsPerBatch, uq.CellDupRatio)
	rep.Benchmarks = append(rep.Benchmarks, uq)
	dr, err := runDrift()
	if err != nil {
		fail(err)
	}
	rep.Drift = dr
	fmt.Printf("drift d=%d: entries mid=%d end=%d (×%.2f), %d without eviction\n",
		dr.Dims, dr.EntriesMid, dr.EntriesEnd, dr.GrowthRatio, dr.UnboundedEntries)
	er, err := runEvolution()
	if err != nil {
		fail(err)
	}
	rep.Evolution = er
	fmt.Printf("evolution d=%d: promoted=%d demoted=%d recall=%.3f (%d/%d)\n",
		er.Dims, er.Promoted, er.Demoted, er.Recall, er.Caught, er.Planted)
	sr, err := runSupervised()
	if err != nil {
		fail(err)
	}
	rep.Supervised = sr
	fmt.Printf("supervised d=%d: recall %.3f (moga truth=%v) vs unsupervised %.3f (truth=%v), %d examples\n",
		sr.Dims, sr.RecallSup, sr.TruthFoundByMOGA, sr.RecallUnsup, sr.TruthFoundUnsup, sr.ExamplesMarked)
	ck, err := runCheckpoint(*dur, *batch)
	if err != nil {
		fail(err)
	}
	rep.Checkpoint = ck
	fmt.Printf("checkpoint d=%d/shards=%d: %d bytes (%d cells), encode %.0fns decode %.0fns\n",
		ck.Dims, ck.Shards, ck.SnapshotBytes, ck.ProjectedCells, ck.EncodeNsPerOp, ck.DecodeNsPerOp)
	svp, svpRows, err := runServingPath(*dur, *batch)
	if err != nil {
		fail(err)
	}
	rep.ServingPath = svp
	rep.Benchmarks = append(rep.Benchmarks, svpRows...)
	fmt.Printf("serving path d=%d: library %.0f, daemon %.0f (×%.2f), +standby %.0f (×%.2f, %d gens %d bytes shipped, %d ticks behind)\n",
		svp.Dims, svp.LibraryPointsPerSec, svp.DaemonPointsPerSec, svp.DaemonOverLibrary,
		svp.StandbyPointsPerSec, svp.StandbyOverDaemon, svp.GenerationsShipped, svp.ReplicationBytes, svp.StandbyTicksBehind)
	at, err := runAutoThreshold()
	if err != nil {
		fail(err)
	}
	rep.AutoThreshold = at
	for _, l := range at.Legs {
		fmt.Printf("auto-threshold %-12s steady %.2e post-drift %.2e (band [q/3,3q]: %v/%v, %d calibrations)\n",
			l.Name, l.FlaggedSteady, l.FlaggedPostDrift, l.InBandSteady, l.InBandPostDrift, l.Calibrations)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
