package stream

import (
	"fmt"
	"testing"

	"spot/internal/bench"
)

// BenchmarkDetector measures streaming throughput (points/sec) of the
// sharded detector across dimensionalities and shard counts. Batches
// are pre-generated so the benchmark times the detector, not the
// generator.
func BenchmarkDetector(b *testing.B) {
	const batch = 512
	for _, d := range []int{20, 50, 100} {
		for _, shards := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("d=%d/shards=%d", d, shards), func(b *testing.B) {
				cfg := DefaultConfig(d)
				cfg.MaxSubspaceDim = bench.MaxDimFor(d)
				cfg.Shards = shards
				det, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer det.Close()
				gen := bench.NewGenerator(bench.DefaultGenConfig(d))
				const pool = 4
				flats := make([][]float64, pool)
				labels := make([]bool, batch)
				out := make([]bool, batch)
				for i := range flats {
					flats[i] = make([]float64, batch*d)
					gen.Fill(flats[i], labels, batch)
				}
				// Populate the cell tables before timing.
				for i := range flats {
					mustBatch(det, flats[i], out, nil)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustBatch(det, flats[i%pool], out, nil)
				}
				b.StopTimer()
				pts := float64(b.N * batch)
				b.ReportMetric(pts/b.Elapsed().Seconds(), "points/sec")
			})
		}
	}
}
