package stream

import (
	"math"
	"reflect"
	"testing"

	"spot/internal/bench"
)

// mustProcess ingests one point into a detector the test built to
// accept it and returns the verdict; a typed error means the test
// itself is broken, so it panics with the error.
func mustProcess(d *Detector, point []float64) bool {
	flagged, _, err := d.Process(point)
	if err != nil {
		panic(err)
	}
	return flagged
}

// mustProcessScored is mustProcess returning the score as well.
func mustProcessScored(d *Detector, point []float64) (bool, float64) {
	flagged, score, err := d.Process(point)
	if err != nil {
		panic(err)
	}
	return flagged, score
}

// mustMark records a labeled example the test built to be accepted.
func mustMark(d *Detector, point []float64) {
	if err := d.MarkExample(point); err != nil {
		panic(err)
	}
}

// mustBatch is ProcessBatch for a batch the test built to be accepted:
// it panics with a typed error instead of returning it.
func mustBatch(d *Detector, flat []float64, out []bool, scores []float64) int {
	n, err := d.ProcessBatch(flat, out, scores)
	if err != nil {
		panic(err)
	}
	return n
}

// TestDetectorFindsPlantedOutliers streams Gaussian clusters with
// planted projected outliers through the detector and checks that,
// after warmup, planted outliers are flagged and the false-positive
// rate on cluster points stays low.
func TestDetectorFindsPlantedOutliers(t *testing.T) {
	const (
		d      = 10
		n      = 6000
		warmup = 2000
	)
	cfg := DefaultConfig(d)
	cfg.MaxSubspaceDim = 2
	cfg.Shards = 2
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()

	gcfg := bench.DefaultGenConfig(d)
	gen := bench.NewGenerator(gcfg)
	buf := make([]float64, d)

	var planted, caught, inliers, falsePos int
	for i := 0; i < n; i++ {
		isOut := gen.Next(buf)
		flag := mustProcess(det, buf)
		if i < warmup {
			continue
		}
		if isOut {
			planted++
			if flag {
				caught++
			}
		} else {
			inliers++
			if flag {
				falsePos++
			}
		}
	}
	if planted < 10 {
		t.Fatalf("generator planted only %d outliers, stream misconfigured", planted)
	}
	recall := float64(caught) / float64(planted)
	fpRate := float64(falsePos) / float64(inliers)
	t.Logf("planted=%d caught=%d recall=%.3f inliers=%d falsePos=%d fpRate=%.4f",
		planted, caught, recall, inliers, falsePos, fpRate)
	if recall < 0.9 {
		t.Errorf("recall = %.3f, want ≥ 0.9", recall)
	}
	if fpRate > 0.10 {
		t.Errorf("false-positive rate = %.4f, want ≤ 0.10", fpRate)
	}
}

// TestShardInvariance checks that verdicts do not depend on the shard
// count: the SST partition changes, the math does not.
func TestShardInvariance(t *testing.T) {
	const d, n = 8, 1500
	verdicts := make([][]bool, 0, 3)
	for _, shards := range []int{1, 3, 8} {
		cfg := DefaultConfig(d)
		cfg.MaxSubspaceDim = 2
		cfg.Shards = shards
		cfg.Warmup = 100
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := bench.NewGenerator(bench.DefaultGenConfig(d))
		buf := make([]float64, d)
		v := make([]bool, n)
		for i := 0; i < n; i++ {
			gen.Next(buf)
			v[i] = mustProcess(det, buf)
		}
		det.Close()
		verdicts = append(verdicts, v)
	}
	for s := 1; s < len(verdicts); s++ {
		for i := range verdicts[0] {
			if verdicts[s][i] != verdicts[0][i] {
				t.Fatalf("verdict for point %d differs between shard configs", i)
			}
		}
	}
}

// TestBatchMatchesPointwise checks ProcessBatch produces exactly the
// verdicts of point-by-point Process on the same stream, in full
// 256-point batches and in 37-point batches — small enough that the
// grouper's index shrinks to the batch, and misaligned with the 256-
// and 2048-tick boundaries.
//
// The second table pins the tiling of the shard loop: a one-point
// batch groups up to 512 subspaces per tile and a 512-point batch one,
// so batch sizes around those widths (1, 2, 3, 64, 511, 512, 513, 1500)
// at 1 and 3 shards must reproduce the 1-point feed's verdicts, score
// bits, Explain entries and final TopK exactly. d=15 with arity ≤ 3
// gives 575 subspaces (191–192 per shard at 3 shards): two tiles for a
// single point at 1 shard, and a multiple of none of the tile widths
// below one subspace (512, 256, 170, 8) on at least one shard. The
// 700-tick epoch splits most batches.
func TestBatchMatchesPointwise(t *testing.T) {
	const d, n = 8, 2048
	mk := func() *Detector {
		cfg := DefaultConfig(d)
		cfg.MaxSubspaceDim = 2
		cfg.Shards = 4
		cfg.Warmup = 100
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	gen := bench.NewGenerator(bench.DefaultGenConfig(d))
	flat := make([]float64, n*d)
	labels := make([]bool, n)
	gen.Fill(flat, labels, n)

	pointwise := mk()
	defer pointwise.Close()
	want := make([]bool, n)
	for i := 0; i < n; i++ {
		want[i] = mustProcess(pointwise, flat[i*d:(i+1)*d])
	}

	for _, batch := range []int{256, 37} {
		batched := mk()
		defer batched.Close()
		got := make([]bool, n)
		for off := 0; off < n; off += batch {
			end := min(off+batch, n)
			mustBatch(batched, flat[off*d:end*d], got[off:end], nil)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("verdict for point %d (batch %d): batch=%v pointwise=%v", i, batch, got[i], want[i])
			}
		}
		if pointwise.Tick() != batched.Tick() {
			t.Fatalf("tick mismatch (batch %d): %d vs %d", batch, pointwise.Tick(), batched.Tick())
		}
		if s := batched.Stats(); s.CoalesceGroupings == 0 {
			t.Fatalf("batch %d: no grouping passes recorded", batch)
		}
	}

	const td, tn = 15, 1600
	tflat := make([]float64, tn*td)
	tlabels := make([]bool, tn)
	bench.NewGenerator(bench.DefaultGenConfig(td)).Fill(tflat, tlabels, tn)
	for _, shards := range []int{1, 3} {
		mkScored := func() *Detector {
			cfg := DefaultConfig(td)
			cfg.Shards = shards
			cfg.Warmup = 100
			cfg.EpochTicks = 700
			cfg.Scoring = true
			cfg.TopK = 8
			det, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return det
		}
		ref := mkScored()
		wantOut := make([]bool, tn)
		wantScore := make([]float64, tn)
		wantAttr := make([][]Attribution, tn)
		for i := 0; i < tn; i++ {
			wantOut[i], wantScore[i] = mustProcessScored(ref, tflat[i*td:(i+1)*td])
			wantAttr[i] = ref.Explain(0, nil)
		}
		wantTop := ref.TopK(nil)
		ref.Close()
		if len(wantTop) == 0 {
			t.Fatalf("shards=%d: the 1-point feed flagged nothing; the table compares only zeros", shards)
		}
		for _, batch := range []int{1, 2, 3, 64, 511, 512, 513, 1500} {
			det := mkScored()
			out := make([]bool, batch)
			scores := make([]float64, batch)
			for off := 0; off < tn; off += batch {
				m := min(batch, tn-off)
				mustBatch(det, tflat[off*td:(off+m)*td], out[:m], scores[:m])
				for i := 0; i < m; i++ {
					p := off + i
					if out[i] != wantOut[p] || math.Float64bits(scores[i]) != math.Float64bits(wantScore[p]) {
						t.Fatalf("shards=%d batch=%d point %d: (%v, %v), 1-point feed (%v, %v)",
							shards, batch, p, out[i], scores[i], wantOut[p], wantScore[p])
					}
					if got := det.Explain(i, nil); !reflect.DeepEqual(got, wantAttr[p]) {
						t.Fatalf("shards=%d batch=%d point %d: Explain %v, 1-point feed %v", shards, batch, p, got, wantAttr[p])
					}
				}
			}
			if got := det.TopK(nil); !reflect.DeepEqual(got, wantTop) {
				t.Fatalf("shards=%d batch=%d: TopK %v, 1-point feed %v", shards, batch, got, wantTop)
			}
			det.Close()
		}
	}
}

// TestProcessZeroAllocs verifies the acceptance criterion: Process
// performs zero heap allocations per point once the point's cells
// exist.
func TestProcessZeroAllocs(t *testing.T) {
	const d = 12
	cfg := DefaultConfig(d)
	cfg.MaxSubspaceDim = 3
	cfg.Shards = 2
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	gen := bench.NewGenerator(bench.DefaultGenConfig(d))
	buf := make([]float64, d)
	for i := 0; i < 500; i++ {
		gen.Next(buf)
		mustProcess(det, buf)
	}
	point := make([]float64, d)
	copy(point, buf)
	mustProcess(det, point) // ensure every cell this point touches exists
	allocs := testing.AllocsPerRun(200, func() {
		mustProcess(det, point)
	})
	if allocs != 0 {
		t.Errorf("Process allocates %.1f objects/point on the hot path, want 0", allocs)
	}
}

// TestWarmupSuppression: before the subspace summaries carry Warmup
// worth of decayed weight, nothing is flagged — not even blatant
// outliers.
func TestWarmupSuppression(t *testing.T) {
	const d = 5
	cfg := DefaultConfig(d)
	cfg.MaxSubspaceDim = 2
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	gen := bench.NewGenerator(bench.DefaultGenConfig(d))
	buf := make([]float64, d)
	for i := 0; i < 50; i++ {
		gen.Next(buf)
		if mustProcess(det, buf) {
			t.Fatalf("point %d flagged during warmup", i)
		}
	}
	outlier := []float64{0.99, 0.99, 0.99, 0.99, 0.99}
	if mustProcess(det, outlier) {
		t.Fatal("outlier flagged during warmup")
	}
}

// TestIRSDFlagsDisplacedCell isolates the IRSD measure: with RD and
// IkRD disabled, a sparse cell whose magnitude sits far out in the
// subspace's distribution is still flagged.
func TestIRSDFlagsDisplacedCell(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxSubspaceDim = 1
	cfg.RDThreshold = 0 // disable: RD is never negative
	cfg.IkRDThreshold = 0
	cfg.IRSDThreshold = 0.12
	cfg.Warmup = 100
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	// A tight cluster near 0.5...
	for i := 0; i < 400; i++ {
		mustProcess(det, []float64{0.5 + 0.01*float64(i%5-2)})
	}
	// ...then a point in a far, empty interval: z ≈ |0.95-0.5|/σ is
	// huge, IRSD ≈ 0.
	if !mustProcess(det, []float64{0.95}) {
		t.Error("far displaced point not flagged by IRSD")
	}
	if mustProcess(det, []float64{0.5}) {
		t.Error("cluster-center point flagged by IRSD")
	}
}

// TestIkRDFlagsFarCell isolates the IkRD measure: with RD and IRSD
// disabled, a cell at maximum grid distance from the representative
// (densest) cells is flagged, a neighbouring cell is not.
func TestIkRDFlagsFarCell(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxSubspaceDim = 1
	cfg.RDThreshold = 0
	cfg.IRSDThreshold = 0
	cfg.IkRDThreshold = 0.15
	cfg.Warmup = 100
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	// Dense mass in interval 0 (phi=8 over [0,1): x < 0.125).
	for i := 0; i < 400; i++ {
		mustProcess(det, []float64{0.06})
	}
	// Interval 7: grid distance 7 of max 7 -> IkRD = 0 -> flagged.
	if !mustProcess(det, []float64{0.99}) {
		t.Error("far cell not flagged by IkRD")
	}
	// Interval 1: distance 1 -> IkRD ≈ 0.857 -> not flagged.
	if mustProcess(det, []float64{0.2}) {
		t.Error("adjacent cell flagged by IkRD")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Dims: 5, Phi: 8, MaxSubspaceDim: 2, Shards: 0, Lambda: 0.01, K: 3},
		{Dims: 5, Phi: 8, MaxSubspaceDim: 2, Shards: 1, Lambda: 0, K: 3},
		{Dims: 5, Phi: 0, MaxSubspaceDim: 2, Shards: 1, Lambda: 0.01, K: 3},
		{Dims: 5, Phi: 8, MaxSubspaceDim: 2, Shards: 1, Lambda: 0.01, K: 0},
		{Dims: 5, Phi: 8, MaxSubspaceDim: 2, Shards: 1, Lambda: 0.01, K: 3,
			Min: []float64{0}, Max: []float64{1}}, // bounds don't cover Dims
		{Dims: 5, Phi: 8, MaxSubspaceDim: 2, Shards: 1, Lambda: 0.01, K: 3,
			Warmup: 200}, // unreachable: weight asymptotes at ~144.8 for this Lambda
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}
