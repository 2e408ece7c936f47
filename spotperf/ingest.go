package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"spot/internal/bench"
	"spot/internal/sst"
	"spot/internal/stream"
)

// Shared settings of the library workloads.
const (
	batchPoints = 512
	ringBatches = 64 // 32768 ticks ≈ 65 half-lives at λ=0.002: nothing recurs warm
	// epochTicks puts an epoch boundary in every other batch. The
	// warm-up is one pass of the ring, 32 epochs: the auto-threshold
	// controller's transient (effective trials overshoot, then settle)
	// ends after about 30 epochs of this length on both library
	// workloads.
	epochTicks  = 1024
	warmBatches = ringBatches
	// setups is how many times a run sets up (and probes snapshots);
	// setup_s is the median.
	setups = 3
	risk   = 1e-2
	// minWindowBatches keeps the timed window going for two passes of
	// the ring, however slow the machine, so p90 has twelve samples
	// beyond it.
	minWindowBatches = 2 * ringBatches
	// traceBlock is how many consecutive batches or requests share one
	// tracing state in a traced run; blocks alternate traced and
	// untraced, so the difference between them is the tracing overhead.
	traceBlock = 8
)

// ingestSpec is one closed-loop library workload: one caller driving
// ProcessBatchScored on 512-point batches.
type ingestSpec struct {
	name    string
	dims    int
	maxDim  int
	shards  int
	uniform bool // bench.GenConfig.Uniform: no clusters, no planted outliers
	evolve  bool // add the sst.TopSparse evolving group at arity 3
	// minPrecision and minRecall are the floors on flag precision and
	// recall against the planted labels; 0 skips the check.
	minPrecision, minRecall float64
}

var (
	ingestD100 = ingestSpec{
		name: "ingest_d100", dims: 100, maxDim: 2, shards: 2, evolve: true,
		minPrecision: 0.4, minRecall: 0.5,
	}
	ingestD20Uniform = ingestSpec{
		name: "ingest_d20_uniform", dims: 20, maxDim: 3, shards: 1, uniform: true,
	}
)

// config builds the detector configuration, with a fresh evolver: a
// restored detector needs its own.
func (s ingestSpec) config() (stream.Config, error) {
	cfg := stream.DefaultConfig(s.dims)
	cfg.MaxSubspaceDim = s.maxDim
	cfg.Shards = s.shards
	cfg.EpochTicks = epochTicks
	cfg.Scoring = true
	cfg.TopK = 16
	cfg.AutoThreshold = stream.AutoThreshold{Risk: risk}
	if s.evolve {
		ev, err := sst.NewTopSparse(sst.TopSparseConfig{
			Arity: 3, TopS: 16, Explore: 256, SeedFromBase: 16, Seed: 1,
		})
		if err != nil {
			return cfg, err
		}
		cfg.Evolver = ev
	}
	return cfg, nil
}

// ring is a workload's pre-generated input: consecutive batches of a
// generator stream with their planted-outlier labels.
type ring struct {
	dims, batch int
	flat        []float64
	labels      []bool
}

func newRing(gcfg bench.GenConfig, batches, batch int) *ring {
	rg := &ring{
		dims:   gcfg.Dims,
		batch:  batch,
		flat:   make([]float64, batches*batch*gcfg.Dims),
		labels: make([]bool, batches*batch),
	}
	bench.NewGenerator(gcfg).Fill(rg.flat, rg.labels, batches*batch)
	return rg
}

func (rg *ring) len() int { return len(rg.labels) / rg.batch }

// at returns batch i (mod the ring length) and its labels.
func (rg *ring) at(i int) ([]float64, []bool) {
	i %= rg.len()
	return rg.flat[i*rg.batch*rg.dims : (i+1)*rg.batch*rg.dims], rg.labels[i*rg.batch : (i+1)*rg.batch]
}

func (rg *ring) bytes() int { return len(rg.flat)*8 + len(rg.labels) }

// scoresMatch reports whether every score is positive exactly where the
// verdict flags the point, as ProcessBatchScored promises.
func scoresMatch(out []bool, scores []float64) bool {
	for i, f := range out {
		if f != (scores[i] > 0) {
			return false
		}
	}
	return true
}

func (s ingestSpec) run(r *run) error {
	gcfg := bench.DefaultGenConfig(s.dims)
	gcfg.Uniform = s.uniform
	gcfg.Seed = r.prov.Seed
	rg := newRing(gcfg, ringBatches, batchPoints)
	out := make([]bool, batchPoints)
	scores := make([]float64, batchPoints)
	mismatched := 0
	ingest := func(det *stream.Detector, i int) (labels []bool, err error) {
		flat, labels := rg.at(i)
		n, err := det.ProcessBatchScoredErr(flat, out, scores)
		if err == nil && n != batchPoints {
			err = fmt.Errorf("ingested %d of %d points", n, batchPoints)
		}
		if err == nil && !scoresMatch(out, scores) {
			mismatched++
		}
		r.op(err)
		return labels, err
	}

	// Set-up: New plus the warm-up, more than once; the last detector
	// is the one measured.
	var det *stream.Detector
	var setupS []float64
	for i := 0; i < setups; i++ {
		if det != nil {
			det.Close()
			det = nil
			runtime.GC() // the peak RSS should hold one detector, not several
		}
		cfg, err := s.config()
		if err != nil {
			return err
		}
		start := time.Now()
		det, err = stream.New(cfg)
		if err != nil {
			return err
		}
		created := time.Now()
		for b := 0; b < warmBatches; b++ {
			if _, err := ingest(det, b); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		end := time.Now()
		setupS = append(setupS, end.Sub(start).Seconds())
		id := r.tr.add(0, 0, "setup", int64(i), start, end)
		r.tr.add(0, id, "stream.New", -1, start, created)
	}
	defer det.Close()

	// The timed window.
	s0 := det.Stats()
	var (
		lat, tracedLat, untracedLat []float64
		crossing                    []bool
		conf                        confusion
		flagged, points             int
		busy                        time.Duration
		tracedPoints                int
	)
	window := r.tr.id()
	start := time.Now()
	for b := warmBatches; len(lat) < minWindowBatches || time.Since(start) < r.seconds; b++ {
		t0 := det.Tick()
		traced := r.traced() && (b/traceBlock)%2 == 0
		callStart := time.Now()
		labels, err := ingest(det, b)
		callEnd := time.Now()
		if err != nil {
			return fmt.Errorf("window: %w", err)
		}
		l := ms(callEnd.Sub(callStart))
		lat = append(lat, l)
		crossing = append(crossing, crossesEpoch(t0, batchPoints, epochTicks))
		if traced {
			r.tr.add(0, window, "stream.ProcessBatchScored", int64(b), callStart, callEnd)
			tracedLat = append(tracedLat, l)
			busy += callEnd.Sub(callStart)
			tracedPoints += batchPoints
		} else {
			untracedLat = append(untracedLat, l)
		}
		conf.add(out, labels)
		for _, f := range out {
			if f {
				flagged++
			}
		}
		points += batchPoints
	}
	end := time.Now()
	r.tr.add(window, 0, "window", -1, start, end)
	s1 := det.Stats()

	// End-to-end metrics.
	elapsed := end.Sub(start).Seconds()
	p50, _ := percentile(lat, 0.5)
	p90, ok := percentile(lat, 0.9)
	if !ok {
		return fmt.Errorf("window of %d batches cannot support p90", len(lat))
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = median(setupS)
	r.e2e["throughput_pps"] = float64(points) / elapsed
	r.e2e["latency_p50_ms"] = p50
	r.e2e["latency_p90_ms"] = p90
	r.e2e["peak_rss_mb"] = rss

	// Correctness.
	rate := float64(flagged) / float64(points)
	r.check("scores_match_verdicts", mismatched == 0, "%d batches with a score > 0 on an unflagged point or 0 on a flagged one", mismatched)
	r.check("flag_rate_in_band", rate >= risk/3 && rate <= 3*risk, "flag rate %.5f, band [%.5f, %.5f]", rate, risk/3, 3*risk)
	if s.minPrecision > 0 {
		r.check("precision_floor", conf.precision() >= s.minPrecision, "precision %.3f, floor %.2f (tp=%d fp=%d)", conf.precision(), s.minPrecision, conf.tp, conf.fp)
	}
	if s.minRecall > 0 {
		r.check("recall_floor", conf.recall() >= s.minRecall, "recall %.3f, floor %.2f (tp=%d fn=%d)", conf.recall(), s.minRecall, conf.tp, conf.fn)
	}
	r.e2e["success_ratio"] = 1 - float64(r.failed)/float64(r.attempted)

	r.details["setup_s"] = setupS
	r.details["window"] = map[string]any{
		"batches": len(lat), "points": points, "seconds": elapsed,
		"latency_ms_p50": p50, "latency_ms_p90": p90, "latency_samples": len(lat),
		"flag_rate": rate, "precision": conf.precision(), "recall": conf.recall(),
	}
	if !r.traced() {
		return nil
	}

	// Per-layer metrics: counter deltas over the window, then the
	// post-window probes on the warmed detector.
	layerFromStats(r, s0, s1, points, det.Template().FixedCount()+det.Template().EvolvedCount())
	extra, _ := epochExtra(lat, crossing)
	r.layer["stream.ingest_ns_per_point"] = float64(busy.Nanoseconds()) / float64(tracedPoints)
	r.layer["stream.epoch_batch_extra_ms"] = extra
	r.layer["stream.flag_rate"] = rate
	r.layer["trace.overhead_ratio"] = median(tracedLat)/median(untracedLat) - 1

	heap := heapPerCell(rg.bytes(), s1.ProjectedCells+s1.BaseCells)
	r.layer["core.heap_bytes_per_cell"] = heap

	if err := probeSnapshot(r, det, s.config); err != nil {
		return err
	}
	r.layer["trace.spans"] = float64(len(r.tr.spans))
	for _, name := range []string{
		"stream.daemon_snapshot_ms", "snapshot.save_ms", "snapshot.recover_ms", "snapshot.checkpoints",
		"server.open_loop_ms_p50", "server.open_loop_ms_p90", "server.open_loop_ms_p99",
		"server.rtt_ms_p50", "server.overhead_ms", "server.queue_len_mean", "server.queue_len_max",
		"server.shed", "server.deadline_misses", "server.send_lag_ms_p99",
		"replica.generations", "replica.bytes_per_point", "replica.ship_failures",
		"replica.lag_ticks_max", "replica.standby_tax",
	} {
		r.layer[name] = 0 // no daemon, no keeper, no standby on a library workload
	}
	return nil
}

// layerFromStats fills the counter-derived per-layer metrics from the
// detector's Stats before (s0) and after (s1) a measured span of
// points ingested into a template of subspaces live subspaces.
func layerFromStats(r *run, s0, s1 stream.Stats, points, subspaces int) {
	sweeps := float64(s1.Sweeps - s0.Sweeps)
	perSweep := func(v uint64) float64 {
		if sweeps == 0 {
			return 0
		}
		return float64(v) / sweeps
	}
	coalPoints := float64(s1.CoalescedPoints - s0.CoalescedPoints)
	coalDistinct := float64(s1.CoalescedDistinct - s0.CoalescedDistinct)
	dup := 0.0
	if coalDistinct > 0 {
		dup = coalPoints / coalDistinct
	}
	r.layer["stream.sweep_ms"] = perSweep(s1.SweepNanos-s0.SweepNanos) / 1e6
	r.layer["core.projected_cells"] = float64(s1.ProjectedCells)
	r.layer["core.base_cells"] = float64(s1.BaseCells)
	r.layer["core.evicted_per_sweep"] = perSweep(s1.EvictedProjected - s0.EvictedProjected + s1.EvictedBase - s0.EvictedBase)
	r.layer["core.coalesce_dup_ratio"] = dup
	r.layer["core.coalesced_share"] = coalPoints / (float64(points) * float64(subspaces))
	r.layer["sst.subspaces"] = float64(s1.EvolvedActive)
	r.layer["sst.promoted"] = float64(s1.Promoted)
	r.layer["sst.demoted"] = float64(s1.Demoted)
	r.layer["evt.calibrations_per_sweep"] = perSweep(s1.Calibrations - s0.Calibrations)
	r.layer["evt.eff_trials"] = s1.AutoEffTrials
	r.details["stats_window_start"] = s0
	r.details["stats_window_end"] = s1
}

// heapPerCell is the in-use heap after a full collection, less the
// input's bytes, per summarized cell.
func heapPerCell(inputBytes, cells int) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if cells == 0 {
		return 0
	}
	return (float64(m.HeapInuse) - float64(inputBytes)) / float64(cells)
}

// probeSnapshot times Detector.Snapshot and stream.Restore on a warmed
// detector, each several times, and records the medians and the size.
// config builds the restore configuration (with a fresh evolver).
func probeSnapshot(r *run, det *stream.Detector, config func() (stream.Config, error)) error {
	var buf bytes.Buffer
	var snapMS, restoreMS []float64
	for i := 0; i < setups; i++ {
		buf.Reset()
		start := time.Now()
		err := det.Snapshot(&buf)
		end := time.Now()
		r.op(err)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		snapMS = append(snapMS, ms(end.Sub(start)))
		r.tr.add(0, 0, "stream.Detector.Snapshot", -1, start, end)
	}
	for i := 0; i < setups; i++ {
		cfg, err := config()
		if err != nil {
			return err
		}
		start := time.Now()
		restored, err := stream.Restore(bytes.NewReader(buf.Bytes()), cfg)
		end := time.Now()
		r.op(err)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		r.check("restore_tick", restored.Tick() == det.Tick(), "restored tick %d, snapshot taken at %d", restored.Tick(), det.Tick())
		restored.Close()
		restoreMS = append(restoreMS, ms(end.Sub(start)))
		r.tr.add(0, 0, "stream.Restore", -1, start, end)
	}
	r.layer["stream.snapshot_ms"] = median(snapMS)
	r.layer["stream.snapshot_bytes"] = float64(buf.Len())
	r.layer["stream.restore_ms"] = median(restoreMS)
	return nil
}
