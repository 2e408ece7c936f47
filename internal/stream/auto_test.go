package stream

import (
	"math"
	"math/rand"
	"testing"
)

// autoTestConfig is the shared fixture of the auto-thresholding tests:
// a uniform unit-box stream (every point an inlier) over a template
// small enough that a few epochs produce healthy measure censuses.
func autoTestConfig(risk float64) Config {
	cfg := DefaultConfig(6)
	cfg.MaxSubspaceDim = 2
	cfg.Lambda = 0.01
	cfg.Warmup = 50
	cfg.EpochTicks = 512
	cfg.AutoThreshold = AutoThreshold{Risk: risk}
	return cfg
}

func uniformStream(seed int64, d int) func(buf []float64) {
	rng := rand.New(rand.NewSource(seed))
	return func(buf []float64) {
		for i := range buf {
			buf[i] = rng.Float64()
		}
	}
}

func TestAutoThresholdValidation(t *testing.T) {
	base := func() Config { return autoTestConfig(0.01) }
	bad := []func(*Config){
		func(c *Config) { c.AutoThreshold.Risk = -0.01 },                 // negative risk
		func(c *Config) { c.AutoThreshold.Risk = 0.5 },                   // risk at bulk boundary
		func(c *Config) { c.AutoThreshold.Risk = 0.7 },                   // risk above bulk
		func(c *Config) { c.AutoThreshold = AutoThreshold{Level: 0.1} },  // level without risk
		func(c *Config) { c.AutoThreshold.Level = 0.5 },                  // level at bulk boundary
		func(c *Config) { c.AutoThreshold.Level = -0.1 },                 // negative level
		func(c *Config) { c.EpochTicks = 0; c.RDPopulatedThreshold = 0 }, // no epoch engine to calibrate in
	}
	for i, mutate := range bad {
		cfg := base()
		mutate(&cfg)
		if det, err := New(cfg); err == nil {
			det.Close()
			t.Errorf("bad auto config %d accepted, want error", i)
		}
	}
	good := base()
	good.AutoThreshold.Level = 0.2
	det, err := New(good)
	if err != nil {
		t.Fatalf("valid auto config rejected: %v", err)
	}
	det.Close()
}

// TestAutoThresholdCalibrates: after a few epochs of a warm uniform
// stream, the sweep census has fitted calibrators and Stats exposes the
// calibration counters.
func TestAutoThresholdCalibrates(t *testing.T) {
	cfg := autoTestConfig(0.01)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	next := uniformStream(11, cfg.Dims)
	buf := make([]float64, cfg.Dims)
	for i := 0; i < 4*int(cfg.EpochTicks); i++ {
		next(buf)
		mustProcess(det, buf)
	}
	st := det.Stats()
	if st.Calibrations == 0 {
		t.Error("no calibrations after 4 epochs of a warm stream")
	}
	if st.CalibrationSamples == 0 {
		t.Error("calibration consumed no census samples")
	}
	if st.CalibratedThresholds == 0 {
		t.Error("no calibrator holds a fitted threshold")
	}
	if st.AutoEffTrials < 1 || st.AutoEffTrials > 4096 {
		t.Errorf("AutoEffTrials %g outside controller bounds [1, 4096]", st.AutoEffTrials)
	}
}

// TestAutoThresholdOffStatsZero: with auto-thresholding disabled the
// calibration counters stay zero — the observability fields can't lie
// about a mode that isn't running.
func TestAutoThresholdOffStatsZero(t *testing.T) {
	cfg := autoTestConfig(0.01)
	cfg.AutoThreshold = AutoThreshold{}
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	next := uniformStream(11, cfg.Dims)
	buf := make([]float64, cfg.Dims)
	for i := 0; i < 2*int(cfg.EpochTicks); i++ {
		next(buf)
		mustProcess(det, buf)
	}
	st := det.Stats()
	if st.Calibrations != 0 || st.CalibrationSamples != 0 || st.CalibratedThresholds != 0 || st.AutoEffTrials != 0 {
		t.Errorf("auto-off stats not zero: %+v", st)
	}
}

// TestAutoThresholdFlaggedRateBand is the headline property of the
// feature: on a pure-inlier uniform stream, asking for per-point risk q
// yields a steady-state flagged rate within a small factor of q —
// without any hand-tuned thresholds. The stream and detector are fully
// deterministic, so this is a regression pin, not a statistical gamble.
func TestAutoThresholdFlaggedRateBand(t *testing.T) {
	const risk = 0.01
	cfg := autoTestConfig(risk)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	next := uniformStream(17, cfg.Dims)
	buf := make([]float64, cfg.Dims)
	// Warm phase: summaries form, the sample windows flush their
	// warm-up contamination, and the controller converges its
	// effective-trials divisor.
	for i := 0; i < 40*int(cfg.EpochTicks); i++ {
		next(buf)
		mustProcess(det, buf)
	}
	// Measure phase.
	const measure = 30720
	flags := 0
	for i := 0; i < measure; i++ {
		next(buf)
		if mustProcess(det, buf) {
			flags++
		}
	}
	rate := float64(flags) / measure
	if rate < risk/3 || rate > risk*3 {
		t.Errorf("steady flagged rate %.4f outside [q/3, 3q] for q=%g (%d flags / %d points)",
			rate, risk, flags, measure)
	}
}

// TestAutoThresholdRefitsUnderDrift: an abrupt distribution shift (the
// uniform box collapses onto one half of every axis) must not wedge the
// calibrators — refits keep landing after the shift and the flagged
// rate over the post-shift steady window stays within the band.
func TestAutoThresholdRefitsUnderDrift(t *testing.T) {
	const risk = 0.01
	cfg := autoTestConfig(risk)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	rng := rand.New(rand.NewSource(23))
	buf := make([]float64, cfg.Dims)
	for i := 0; i < 40*int(cfg.EpochTicks); i++ {
		for j := range buf {
			buf[j] = rng.Float64()
		}
		mustProcess(det, buf)
	}
	calsBefore := det.Stats().Calibrations
	// Shift: all mass moves to [0, 0.5) on every axis. Let the
	// detector re-learn — the sample windows turn over in ~8 epochs
	// and the controller re-converges — then measure.
	for i := 0; i < 40*int(cfg.EpochTicks); i++ {
		for j := range buf {
			buf[j] = rng.Float64() * 0.5
		}
		mustProcess(det, buf)
	}
	if calsAfter := det.Stats().Calibrations; calsAfter <= calsBefore {
		t.Errorf("no calibrations after drift: %d before, %d after", calsBefore, calsAfter)
	}
	const measure = 30720
	flags := 0
	for i := 0; i < measure; i++ {
		for j := range buf {
			buf[j] = rng.Float64() * 0.5
		}
		if mustProcess(det, buf) {
			flags++
		}
	}
	rate := float64(flags) / measure
	if rate < risk/3 || rate > risk*3 {
		t.Errorf("post-drift flagged rate %.4f outside [q/3, 3q] for q=%g (%d flags / %d points)",
			rate, risk, flags, measure)
	}
}

// TestAutoThresholdShardAndBatchInvariance extends the engine's core
// invariant to auto mode: calibrated thresholds are fitted from a
// merged, sorted census on the dispatcher, so verdicts are identical
// across shard counts, pointwise ingestion and batches of 300 points
// (straddling the 512-tick epochs) and of 63 and 1 points.
func TestAutoThresholdShardAndBatchInvariance(t *testing.T) {
	const n = 3 * 512
	d := 5
	flat := make([]float64, n*d)
	uniformStream(31, d)(flat)

	runPointwise := func(shards int) []bool {
		cfg := autoTestConfig(0.01)
		cfg.Dims = d
		cfg.Shards = shards
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer det.Close()
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = mustProcess(det, flat[i*d:(i+1)*d])
		}
		return out
	}
	runBatch := func(shards, batch int) []bool {
		cfg := autoTestConfig(0.01)
		cfg.Dims = d
		cfg.Shards = shards
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer det.Close()
		out := make([]bool, n)
		for done := 0; done < n; done += batch {
			end := min(done+batch, n)
			mustBatch(det, flat[done*d:end*d], out[done:end], nil)
		}
		return out
	}

	ref := runPointwise(1)
	variants := map[string][]bool{
		"pointwise/shards=3": runPointwise(3),
		"batch300/shards=1":  runBatch(1, 300),
		"batch300/shards=4":  runBatch(4, 300),
		"batch63/shards=4":   runBatch(4, 63),
		"batch1/shards=4":    runBatch(4, 1),
	}
	for name, got := range variants {
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: verdict %d = %v, pointwise/shards=1 = %v", name, i, got[i], ref[i])
			}
		}
	}
}

// TestAutoThresholdScoredInvariance: auto-thresholding and scoring
// together — the combination a calibrated, attributed deployment runs
// — give bit-identical verdicts, scores and calibration state whether
// the stream arrives pointwise or in 300-point batches (which straddle
// the 512-tick epoch boundaries, so the dispatcher splits them), and
// whether the subspaces are dealt to 1, 2 or 4 shards.
func TestAutoThresholdScoredInvariance(t *testing.T) {
	const n = 6 * 512
	d := 5
	flat := make([]float64, n*d)
	uniformStream(37, d)(flat)

	type result struct {
		out    []bool
		scores []float64
		stats  Stats
	}
	run := func(shards, batch int) result {
		cfg := autoTestConfig(0.01)
		cfg.Dims = d
		cfg.Shards = shards
		cfg.Scoring = true
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer det.Close()
		r := result{out: make([]bool, n), scores: make([]float64, n)}
		if batch == 0 {
			for i := 0; i < n; i++ {
				r.out[i], r.scores[i] = mustProcessScored(det, flat[i*d:(i+1)*d])
			}
		} else {
			for done := 0; done < n; done += batch {
				end := min(done+batch, n)
				mustBatch(det, flat[done*d:end*d], r.out[done:end], r.scores[done:end])
			}
		}
		r.stats = det.Stats()
		return r
	}

	ref := run(1, 0)
	flagged := 0
	for i, f := range ref.out {
		if f {
			flagged++
		}
		if f != (ref.scores[i] > 0) {
			t.Fatalf("point %d: verdict %v with score %v", i, f, ref.scores[i])
		}
	}
	if flagged == 0 || ref.stats.Calibrations == 0 {
		t.Fatalf("degenerate reference: %d flagged, %d calibrations", flagged, ref.stats.Calibrations)
	}
	variants := map[string]result{
		"pointwise/shards=4": run(4, 0),
		"batch300/shards=1":  run(1, 300),
		"batch300/shards=2":  run(2, 300),
		"batch300/shards=4":  run(4, 300),
	}
	for name, got := range variants {
		for i := range ref.out {
			if got.out[i] != ref.out[i] {
				t.Fatalf("%s: verdict %d = %v, pointwise/shards=1 = %v", name, i, got.out[i], ref.out[i])
			}
			if math.Float64bits(got.scores[i]) != math.Float64bits(ref.scores[i]) {
				t.Fatalf("%s: score %d = %v, pointwise/shards=1 = %v", name, i, got.scores[i], ref.scores[i])
			}
		}
		g, w := got.stats, ref.stats
		if g.Calibrations != w.Calibrations || g.CalibrationSamples != w.CalibrationSamples ||
			math.Float64bits(g.AutoEffTrials) != math.Float64bits(w.AutoEffTrials) {
			t.Fatalf("%s: calibrations %d/%d samples %d/%d eff trials %v/%v (got/want)", name,
				g.Calibrations, w.Calibrations, g.CalibrationSamples, w.CalibrationSamples, g.AutoEffTrials, w.AutoEffTrials)
		}
	}
}
