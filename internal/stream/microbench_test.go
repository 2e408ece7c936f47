package stream

import (
	"testing"

	"spot/internal/bench"
)

// microbenchDetector builds a d=20 detector with populated tables and
// sweeps pushed beyond the horizon, so the benchmarks and alloc gates
// time the steady-state ingestion path alone. With scoring on, the
// warm-up ingests run scored so the attribution buffers and score
// scratch reach their watermarks too.
func microbenchDetector(tb testing.TB, shards int, scoring bool) (*Detector, []float64, []bool, []float64) {
	const d, batch = 20, 512
	cfg := DefaultConfig(d)
	cfg.Shards = shards
	cfg.EpochTicks = 1 << 40 // no sweep inside the measured window
	cfg.Scoring = scoring
	if scoring {
		cfg.TopK = 16
	}
	det, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	gen := bench.NewGenerator(bench.DefaultGenConfig(d))
	flat := make([]float64, batch*d)
	labels := make([]bool, batch)
	out := make([]bool, batch)
	var scores []float64
	if scoring {
		scores = make([]float64, batch)
	}
	gen.Fill(flat, labels, batch)
	for i := 0; i < 4; i++ { // populate every cell the batch touches
		if scoring {
			det.ProcessBatchScored(flat, out, scores)
		} else {
			det.ProcessBatch(flat, out)
		}
	}
	return det, flat, out, scores
}

// BenchmarkProcessPoint measures the pointwise hot path: one point
// through every SST subspace, reported with allocations (steady state
// must be zero — TestProcessZeroAllocs is the hard gate).
func BenchmarkProcessPoint(b *testing.B) {
	det, flat, _, _ := microbenchDetector(b, 1, false)
	defer det.Close()
	d := 20
	points := len(flat) / d
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Process(flat[(i%points)*d : (i%points+1)*d])
	}
}

// BenchmarkProcessBatch measures the batch hot path (subspace-major
// tiling, discretization plane, cell coalescing, word-wise verdict
// merge) at 1 and 4 shards, plus a scored shards=1 point isolating the
// ensemble-scoring overhead.
func BenchmarkProcessBatch(b *testing.B) {
	for _, v := range []struct {
		name    string
		shards  int
		scoring bool
	}{
		{"shards=1", 1, false},
		{"shards=4", 4, false},
		{"shards=1/scored", 1, true},
	} {
		b.Run(v.name, func(b *testing.B) {
			det, flat, out, scores := microbenchDetector(b, v.shards, v.scoring)
			defer det.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v.scoring {
					det.ProcessBatchScored(flat, out, scores)
				} else {
					det.ProcessBatch(flat, out)
				}
			}
			b.StopTimer()
			pts := float64(b.N * len(out))
			b.ReportMetric(pts/b.Elapsed().Seconds(), "points/sec")
		})
	}
}

// TestProcessBatchZeroAllocs pins the steady-state contract of the
// batch path: re-ingesting a batch whose cells all exist performs zero
// heap allocations — scratch planes, verdict bitsets, the grouping
// scratch and table probes all reuse their buffers. make microbench
// runs this gate alongside the benchmarks. The subtest is named for the
// coalescing batch path, which is the only batch path.
func TestProcessBatchZeroAllocs(t *testing.T) {
	t.Run("coalesce", func(t *testing.T) {
		det, flat, out, _ := microbenchDetector(t, 2, false)
		defer det.Close()
		allocs := testing.AllocsPerRun(20, func() {
			det.ProcessBatch(flat, out)
		})
		if allocs != 0 {
			t.Fatalf("steady-state ProcessBatch allocates %.1f times per batch, want 0", allocs)
		}
	})
}

// TestProcessBatchScoredZeroAllocs extends the zero-alloc gate to the
// scoring layer: once the attribution buffers have grown to the
// stream's flag-rate watermark, a scored batch — verdicts, per-point
// ensemble scores, attribution merge-sort, top-K maintenance and the
// Explain/TopK queries against it — allocates nothing.
func TestProcessBatchScoredZeroAllocs(t *testing.T) {
	det, flat, out, scores := microbenchDetector(t, 2, true)
	defer det.Close()
	attrs := make([]Attribution, 0, 256)
	offs := make([]Offender, 0, 16)
	allocs := testing.AllocsPerRun(20, func() {
		det.ProcessBatchScored(flat, out, scores)
		for i := range out {
			if out[i] {
				attrs = det.Explain(i, attrs[:0])
			}
		}
		offs = det.TopK(offs[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state ProcessBatchScored allocates %.1f times per batch, want 0", allocs)
	}
}

// TestProcessScoredZeroAllocs is the pointwise equivalent: scored
// single-point ingestion stays allocation-free in steady state.
func TestProcessScoredZeroAllocs(t *testing.T) {
	det, flat, _, _ := microbenchDetector(t, 1, true)
	defer det.Close()
	const d = 20
	points := len(flat) / d
	i := 0
	allocs := testing.AllocsPerRun(512, func() {
		det.ProcessScored(flat[(i%points)*d : (i%points+1)*d])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state ProcessScored allocates %.3f times per point, want 0", allocs)
	}
}
