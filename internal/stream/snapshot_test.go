package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"spot/internal/bench"
	"spot/internal/snapshot"
	"spot/internal/sst"
)

// snapTrial is one randomized checkpoint/restore scenario: a data
// stream, a batch plan, a kill point at a batch boundary, and the
// detector configuration knobs the restore must reproduce.
type snapTrial struct {
	scenario   string
	d, n       int
	epoch      uint64
	supervised bool
	subBatch   int // re-cut every planned batch into sub-batches of this size; 0 = as planned
	maxDim     int
	lambda     float64
	evSeed     int64
	flat       []float64
	labels     []bool
	batches    []int
	killAfter  int // snapshot after this many batches
}

func makeSnapTrial(t *testing.T, trial int, meta *rand.Rand) snapTrial {
	d := 5 + meta.Intn(4)
	epoch := uint64(64 + meta.Intn(300))
	n := 1000 + meta.Intn(600)
	mode := trial % 3
	gcfg := bench.DefaultGenConfig(d)
	gcfg.Seed = meta.Int63()
	switch mode {
	case 1:
		centerA := make([]float64, d)
		centerB := make([]float64, d)
		for i := range centerA {
			centerA[i] = 0.19
			centerB[i] = 0.81
		}
		gcfg.Centers = [][]float64{centerA, centerB}
		gcfg.Sigma = 0.005
		gcfg.OutlierRate = 0.03
		gcfg.Mode = bench.OutlierMix
		gcfg.MixDim = meta.Intn(d)
	case 2:
		gcfg.DriftPeriod = 300 + meta.Intn(300)
	}
	tr := snapTrial{
		d: d, n: n, epoch: epoch,
		supervised: trial%2 == 0,
		subBatch:   []int{0, 0, 1, 63}[trial%4],
		maxDim:     1 + meta.Intn(2),
		lambda:     []float64{0.005, 0.01, 0.02}[meta.Intn(3)],
		evSeed:     meta.Int63(),
	}
	tr.flat = make([]float64, n*d)
	tr.labels = make([]bool, n)
	bench.NewGenerator(gcfg).Fill(tr.flat, tr.labels, n)
	for rem := n; rem > 0; {
		b := 1 + meta.Intn(250)
		if b > rem {
			b = rem
		}
		tr.batches = append(tr.batches, b)
		rem -= b
	}
	// Kill somewhere in the middle of the run, never at the very end,
	// so both halves exercise real work.
	tr.killAfter = 1 + meta.Intn(len(tr.batches)-1)
	tr.scenario = fmt.Sprintf("trial=%d d=%d epoch=%d n=%d mode=%d supervised=%v subBatch=%d maxDim=%d lambda=%g evSeed=%d batches=%d killAfter=%d",
		trial, d, epoch, n, mode, tr.supervised, tr.subBatch, tr.maxDim, tr.lambda, tr.evSeed, len(tr.batches), tr.killAfter)
	return tr
}

func (tr *snapTrial) evolver(t *testing.T) sst.Evolver {
	ts, err := sst.NewTopSparse(sst.TopSparseConfig{
		Arity: 2, TopS: 2, Explore: 32, SparseRatio: 0.1, MinScore: 0.05, Seed: tr.evSeed,
	})
	if err != nil {
		t.Fatalf("%s: %v", tr.scenario, err)
	}
	if !tr.supervised {
		return ts
	}
	mg, err := sst.NewMOGA(sst.MOGAConfig{
		MinArity: 2, MaxArity: 2, PopSize: 8, Generations: 2, TopS: 2,
		SparseRatio: 0.1, MinCoverage: 0.6, MinSparsity: 0.4, Seed: tr.evSeed,
	})
	if err != nil {
		t.Fatalf("%s: %v", tr.scenario, err)
	}
	return sst.Multi{ts, mg}
}

func (tr *snapTrial) config(t *testing.T, shards int) Config {
	cfg := DefaultConfig(tr.d)
	cfg.MaxSubspaceDim = tr.maxDim
	cfg.Shards = shards
	cfg.Lambda = tr.lambda
	cfg.Warmup = 30
	cfg.EpochTicks = tr.epoch
	cfg.EvictEpsilon = 1e-4
	cfg.RDPopulatedThreshold = 0.2
	cfg.Evolver = tr.evolver(t)
	return cfg
}

// feed runs batches [from, to) of the trial's plan through det,
// writing verdicts into place and replaying the supervised feedback.
func (tr *snapTrial) feed(det *Detector, verdicts []bool, from, to int) {
	off := 0
	for i := 0; i < from; i++ {
		off += tr.batches[i]
	}
	for bi := from; bi < to; bi++ {
		b := tr.batches[bi]
		step := b
		if tr.subBatch > 0 {
			step = tr.subBatch
		}
		for lo := off; lo < off+b; lo += step {
			hi := min(lo+step, off+b)
			mustBatch(det, tr.flat[lo*tr.d:hi*tr.d], verdicts[lo:hi], nil)
		}
		if tr.supervised {
			for i := off; i < off+b; i++ {
				if tr.labels[i] {
					mustMark(det, tr.flat[i*tr.d:(i+1)*tr.d])
				}
			}
		}
		off += b
	}
}

// oracle runs the trial uninterrupted and returns its verdicts, final
// stats and evolved-group dims.
func (tr *snapTrial) oracle(t *testing.T, shards int) ([]bool, Stats, []uint16) {
	det, err := New(tr.config(t, shards))
	if err != nil {
		t.Fatalf("%s: %v", tr.scenario, err)
	}
	defer det.Close()
	verdicts := make([]bool, tr.n)
	tr.feed(det, verdicts, 0, len(tr.batches))
	return verdicts, det.Stats(), evolvedDims(det)
}

func evolvedDims(det *Detector) []uint16 {
	var out []uint16
	for _, id := range det.Template().EvolvedIDs(nil) {
		out = append(out, det.Template().Dims(int(id))...)
	}
	return out
}

// sameEpochStats compares the deterministic Stats fields — everything
// except wall-clock times and the process-local checkpoint telemetry.
func sameEpochStats(a, b Stats) bool {
	return a.Tick == b.Tick &&
		a.BaseCells == b.BaseCells &&
		a.ProjectedCells == b.ProjectedCells &&
		a.Sweeps == b.Sweeps &&
		a.EvictedProjected == b.EvictedProjected &&
		a.EvictedBase == b.EvictedBase &&
		a.EvolvedActive == b.EvolvedActive &&
		a.Promoted == b.Promoted &&
		a.Demoted == b.Demoted &&
		a.EvolverPanics == b.EvolverPanics &&
		a.Examples == b.Examples &&
		a.CoalescedPoints == b.CoalescedPoints &&
		a.CoalescedDistinct == b.CoalescedDistinct &&
		a.CoalesceGroupings == b.CoalesceGroupings
}

// TestRestoreEquivalenceProperty is the crash-safety property at the
// heart of the checkpoint work: kill a detector at a random batch
// boundary mid-stream, restore it from the snapshot bytes, and the
// continuation must be verdict-bit-identical to the uninterrupted
// oracle — across shard counts, batch sizes down to one point, and
// with the supervised MOGA evolver (RNG state and all) in the loop on
// half the trials. Final epoch statistics and evolved subspaces must
// match too.
func TestRestoreEquivalenceProperty(t *testing.T) {
	meta := rand.New(rand.NewSource(77))
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		tr := makeSnapTrial(t, trial, meta)
		for _, shards := range []int{1, 4} {
			oracleV, oracleS, oracleE := tr.oracle(t, shards)

			det, err := New(tr.config(t, shards))
			if err != nil {
				t.Fatalf("%s: %v", tr.scenario, err)
			}
			verdicts := make([]bool, tr.n)
			tr.feed(det, verdicts, 0, tr.killAfter)
			var buf bytes.Buffer
			if err := det.Snapshot(&buf); err != nil {
				t.Fatalf("%s: snapshot: %v", tr.scenario, err)
			}
			det.Close() // the "crash"

			restored, err := Restore(bytes.NewReader(buf.Bytes()), tr.config(t, shards))
			if err != nil {
				t.Fatalf("%s: restore: %v", tr.scenario, err)
			}
			tr.feed(restored, verdicts, tr.killAfter, len(tr.batches))
			for i := range oracleV {
				if verdicts[i] != oracleV[i] {
					t.Fatalf("%s shards=%d: verdict for point %d differs after restore", tr.scenario, shards, i)
				}
			}
			if s := restored.Stats(); !sameEpochStats(s, oracleS) {
				t.Fatalf("%s shards=%d: stats diverged after restore:\n restored %+v\n oracle   %+v", tr.scenario, shards, s, oracleS)
			}
			e := evolvedDims(restored)
			if fmt.Sprint(e) != fmt.Sprint(oracleE) {
				t.Fatalf("%s shards=%d: evolved groups diverged: %v vs %v", tr.scenario, shards, e, oracleE)
			}
			restored.Close()
		}
	}
}

// TestRestoreAcrossShardCounts checks the re-deal path: a snapshot
// taken at S shards restored into a detector with a different count
// must continue with the same verdicts the oracle at the new count
// produces — the same contract live shard-count invariance gives.
func TestRestoreAcrossShardCounts(t *testing.T) {
	meta := rand.New(rand.NewSource(101))
	for trial := 0; trial < 3; trial++ {
		tr := makeSnapTrial(t, trial, meta)
		for _, counts := range [][2]int{{1, 4}, {4, 1}, {4, 8}} {
			from, to := counts[0], counts[1]
			oracleV, oracleS, _ := tr.oracle(t, to)

			det, err := New(tr.config(t, from))
			if err != nil {
				t.Fatalf("%s: %v", tr.scenario, err)
			}
			verdicts := make([]bool, tr.n)
			tr.feed(det, verdicts, 0, tr.killAfter)
			var buf bytes.Buffer
			if err := det.Snapshot(&buf); err != nil {
				t.Fatalf("%s: snapshot: %v", tr.scenario, err)
			}
			det.Close()

			restored, err := Restore(bytes.NewReader(buf.Bytes()), tr.config(t, to))
			if err != nil {
				t.Fatalf("%s %d->%d shards: restore: %v", tr.scenario, from, to, err)
			}
			tr.feed(restored, verdicts, tr.killAfter, len(tr.batches))
			for i := range oracleV {
				if verdicts[i] != oracleV[i] {
					t.Fatalf("%s %d->%d shards: verdict for point %d differs after re-dealt restore", tr.scenario, from, to, i)
				}
			}
			if s := restored.Stats(); !sameEpochStats(s, oracleS) {
				t.Fatalf("%s %d->%d shards: stats diverged:\n restored %+v\n oracle   %+v", tr.scenario, from, to, s, oracleS)
			}
			restored.Close()
		}
	}
}

// TestSnapshotRestoreByteStable: snapshotting a restored detector must
// reproduce the original snapshot byte for byte — the state round trip
// is lossless and canonical (sorted base cells, dense cell order,
// process-local telemetry excluded).
func TestSnapshotRestoreByteStable(t *testing.T) {
	meta := rand.New(rand.NewSource(7))
	tr := makeSnapTrial(t, 0, meta)
	det, err := New(tr.config(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	tr.feed(det, make([]bool, tr.n), 0, tr.killAfter)
	var first bytes.Buffer
	if err := det.Snapshot(&first); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(first.Bytes()), tr.config(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	var second bytes.Buffer
	if err := restored.Snapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", first.Len(), second.Len())
	}
	if s := det.Stats(); s.Checkpoints != 1 || s.CheckpointBytes != uint64(first.Len()) || s.CheckpointNanos == 0 {
		t.Fatalf("checkpoint telemetry not tracked: %+v", s)
	}
}

// TestSnapshotSameStreamSameBytes: two detectors fed the same stream
// write byte-identical checkpoints — the sweeps' wall time is
// process-local and never serialized — and a restored detector reports
// only its own sweep time while the sweep count carries over.
func TestSnapshotSameStreamSameBytes(t *testing.T) {
	meta := rand.New(rand.NewSource(11))
	tr := makeSnapTrial(t, 0, meta)
	var snaps [2]bytes.Buffer
	for i := range snaps {
		det, err := New(tr.config(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		tr.feed(det, make([]bool, tr.n), 0, len(tr.batches))
		if s := det.Stats(); s.Sweeps == 0 || s.SweepNanos == 0 {
			t.Fatalf("trial ran no timed sweep: %+v", s)
		}
		if err := det.Snapshot(&snaps[i]); err != nil {
			t.Fatal(err)
		}
		det.Close()
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Fatalf("same stream, different checkpoints: %d vs %d bytes", snaps[0].Len(), snaps[1].Len())
	}
	restored, err := Restore(bytes.NewReader(snaps[0].Bytes()), tr.config(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if s := restored.Stats(); s.Sweeps == 0 || s.SweepNanos != 0 {
		t.Fatalf("restored sweep counters: Sweeps=%d SweepNanos=%d, want carried count and zero time", s.Sweeps, s.SweepNanos)
	}
}

// TestRestoreParentCheckpoint pins backward compatibility of format
// version 3: testdata/parent_v3.snap was written by the build that
// still routed duplication-free subspaces through a per-subspace
// coalescing gate, whose counter byte the shard section carries for
// every subspace — non-zero for the 3-d subspace of this checkpoint,
// since a uniform stream leaves almost every point of a 64-point batch
// in its own cell. The byte is now reserved and ignored, so the restored
// detector must emit exactly the verdicts that build emitted on the
// next 256 points (testdata/parent_v3.verdicts, one '0'/'1' per point).
//
// Recipe: the config below; rng := rand.New(rand.NewSource(2008));
// 16 ProcessBatch calls of 64 points, every coordinate rng.Float64()
// in row-major order; Snapshot; then 4 more 64-point batches from the
// same rng, whose verdicts are the .verdicts file.
func TestRestoreParentCheckpoint(t *testing.T) {
	const d, batch, warm, next = 3, 64, 1024, 256
	cfg := DefaultConfig(d)
	cfg.MaxSubspaceDim = 3
	cfg.Shards = 2
	cfg.EpochTicks = 512
	cfg.RDThreshold = 0.5
	cfg.IRSDThreshold = 0.3
	cfg.IkRDThreshold = 0.5
	snap, err := os.ReadFile("testdata/parent_v3.snap")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent_v3.verdicts")
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.TrimSpace(want)
	if len(want) != next {
		t.Fatalf("fixture holds %d verdicts, want %d", len(want), next)
	}
	det, err := Restore(bytes.NewReader(snap), cfg)
	if err != nil {
		t.Fatalf("restore parent checkpoint: %v", err)
	}
	defer det.Close()
	if det.Tick() != warm {
		t.Fatalf("restored tick %d, want %d", det.Tick(), warm)
	}
	rng := rand.New(rand.NewSource(2008))
	for i := 0; i < warm*d; i++ {
		rng.Float64()
	}
	buf := make([]float64, batch*d)
	out := make([]bool, batch)
	flagged := 0
	for off := 0; off < next; off += batch {
		for i := range buf {
			buf[i] = rng.Float64()
		}
		mustBatch(det, buf, out, nil)
		for i, f := range out {
			if w := want[off+i] == '1'; f != w {
				t.Fatalf("point %d after restore: verdict %v, parent build %v", warm+off+i, f, w)
			}
			if f {
				flagged++
			}
		}
	}
	if flagged == 0 || flagged == next {
		t.Fatalf("degenerate fixture: %d of %d points flagged", flagged, next)
	}
}

// TestRestoreConfigMismatch: every state-shaping parameter the restore
// config may not silently change must be rejected with
// ErrConfigMismatch.
func TestRestoreConfigMismatch(t *testing.T) {
	meta := rand.New(rand.NewSource(9))
	tr := makeSnapTrial(t, 0, meta)
	det, err := New(tr.config(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	tr.feed(det, make([]bool, tr.n), 0, tr.killAfter)
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*Config){
		"dims":        func(c *Config) { c.Dims++ },
		"phi":         func(c *Config) { c.Phi++ },
		"maxSubDim":   func(c *Config) { c.MaxSubspaceDim = 3 - c.MaxSubspaceDim%2 },
		"k":           func(c *Config) { c.K++ },
		"lambda":      func(c *Config) { c.Lambda *= 2 },
		"no evolver":  func(c *Config) { c.Evolver = nil },
		"non-marshal": func(c *Config) { c.Evolver = plainEvolver{} },
	}
	for name, mutate := range mutations {
		cfg := tr.config(t, 2)
		mutate(&cfg)
		if cfg.Dims != tr.d {
			// Dimension changes need a fresh grid; rebuild the base
			// config from scratch at the new dimensionality.
			cfg = DefaultConfig(tr.d + 1)
			cfg.MaxSubspaceDim = tr.maxDim
			cfg.Evolver = tr.evolver(t)
		}
		if _, err := Restore(bytes.NewReader(buf.Bytes()), cfg); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("%s: got %v, want ErrConfigMismatch", name, err)
		}
	}
}

// plainEvolver implements sst.Evolver but not sst.StateMarshaler, so a
// snapshot carrying evolver state cannot restore into it.
type plainEvolver struct{}

func (plainEvolver) Observe(sub uint32, outlier bool) {}
func (plainEvolver) Evolve(tmpl *sst.Template, st *sst.EpochStats) sst.Evolution {
	return sst.Evolution{}
}

// TestRestoreFaultInjection sweeps injected faults over real snapshot
// bytes: truncation at every section boundary and mid-payload, bit
// flips from the magic through the payloads, and garbage tails. Every
// case must fail with a typed snapshot error — never a panic, never a
// silently wrong detector.
func TestRestoreFaultInjection(t *testing.T) {
	meta := rand.New(rand.NewSource(11))
	tr := makeSnapTrial(t, 0, meta)
	det, err := New(tr.config(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	tr.feed(det, make([]bool, tr.n), 0, tr.killAfter)
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	typed := func(err error) bool {
		return errors.Is(err, snapshot.ErrBadMagic) ||
			errors.Is(err, snapshot.ErrVersion) ||
			errors.Is(err, snapshot.ErrChecksum) ||
			errors.Is(err, snapshot.ErrTruncated) ||
			errors.Is(err, snapshot.ErrCorrupt) ||
			errors.Is(err, snapshot.ErrInjected) ||
			errors.Is(err, ErrConfigMismatch)
	}

	// Truncation at a spread of offsets, including 0 and just short of
	// the end marker.
	for _, cut := range []int{0, 3, 8, 11, 12, 40, len(raw) / 3, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		if cut > len(raw) {
			continue
		}
		_, err := Restore(snapshot.NewTruncatedReader(bytes.NewReader(raw), int64(cut)), tr.config(t, 2))
		if err == nil || !typed(err) {
			t.Errorf("truncate@%d: got %v, want a typed snapshot error", cut, err)
		}
	}
	// Bit flips across the whole file, deterministic spread.
	for off := 0; off < len(raw); off += 1 + len(raw)/97 {
		mask := byte(1 << uint(off%8))
		_, err := Restore(snapshot.NewBitFlipReader(bytes.NewReader(raw), int64(off), mask), tr.config(t, 2))
		if err == nil || !typed(err) {
			t.Errorf("bitflip@%d: got %v, want a typed snapshot error", off, err)
		}
	}
	// Trailing garbage after a complete snapshot.
	tail := append(append([]byte(nil), raw...), 0xde, 0xad, 0xbe, 0xef)
	if _, err := Restore(bytes.NewReader(tail), tr.config(t, 2)); err != nil {
		// A reader that stops at the end marker tolerates a tail; a
		// typed error is equally acceptable. A panic is not (implicit).
		if !typed(err) {
			t.Errorf("trailing garbage: got untyped error %v", err)
		}
	}
}

// TestRestoreScoringEquivalence extends the crash-safety property to
// the scoring layer: killing and restoring a scoring detector
// mid-stream must reproduce the uninterrupted run's scores bit for
// bit and the exact top-K window, the round trip must be byte-stable,
// and the new meta fields must be config-matched. Corrupting the
// scored snapshot anywhere must still fail typed.
func TestRestoreScoringEquivalence(t *testing.T) {
	meta := rand.New(rand.NewSource(55))
	for trial := 0; trial < 3; trial++ {
		tr := makeSnapTrial(t, trial, meta)
		cfgOf := func(shards int) Config {
			cfg := tr.config(t, shards)
			cfg.Scoring = true
			cfg.TopK = 8
			return cfg
		}
		feedScored := func(det *Detector, verdicts []bool, scores []float64, from, to int) {
			off := 0
			for i := 0; i < from; i++ {
				off += tr.batches[i]
			}
			for bi := from; bi < to; bi++ {
				b := tr.batches[bi]
				mustBatch(det, tr.flat[off*tr.d:(off+b)*tr.d], verdicts[off:off+b], scores[off:off+b])
				if tr.supervised {
					for i := off; i < off+b; i++ {
						if tr.labels[i] {
							mustMark(det, tr.flat[i*tr.d:(i+1)*tr.d])
						}
					}
				}
				off += b
			}
		}

		for _, shards := range []int{1, 4} {
			oracle, err := New(cfgOf(shards))
			if err != nil {
				t.Fatalf("%s: %v", tr.scenario, err)
			}
			oracleV := make([]bool, tr.n)
			oracleScores := make([]float64, tr.n)
			feedScored(oracle, oracleV, oracleScores, 0, len(tr.batches))
			oracleTop := oracle.TopK(nil)
			oracle.Close()

			det, err := New(cfgOf(shards))
			if err != nil {
				t.Fatalf("%s: %v", tr.scenario, err)
			}
			verdicts := make([]bool, tr.n)
			scores := make([]float64, tr.n)
			feedScored(det, verdicts, scores, 0, tr.killAfter)
			var buf bytes.Buffer
			if err := det.Snapshot(&buf); err != nil {
				t.Fatalf("%s: snapshot: %v", tr.scenario, err)
			}
			det.Close() // the crash

			restored, err := Restore(bytes.NewReader(buf.Bytes()), cfgOf(shards))
			if err != nil {
				t.Fatalf("%s: restore: %v", tr.scenario, err)
			}
			feedScored(restored, verdicts, scores, tr.killAfter, len(tr.batches))
			for i := range oracleV {
				if verdicts[i] != oracleV[i] {
					t.Fatalf("%s shards=%d: verdict for point %d differs after restore", tr.scenario, shards, i)
				}
				if scores[i] != oracleScores[i] {
					t.Fatalf("%s shards=%d: score for point %d differs after restore: %g vs %g",
						tr.scenario, shards, i, scores[i], oracleScores[i])
				}
			}
			top := restored.TopK(nil)
			if len(top) != len(oracleTop) {
				t.Fatalf("%s shards=%d: top-K has %d entries after restore, oracle %d",
					tr.scenario, shards, len(top), len(oracleTop))
			}
			for i := range top {
				if top[i] != oracleTop[i] {
					t.Fatalf("%s shards=%d: top-K entry %d differs: %+v vs %+v",
						tr.scenario, shards, i, top[i], oracleTop[i])
				}
			}
			// Byte stability: a re-snapshot of the restored detector at
			// the kill point reproduces the original bytes (take it
			// before feeding the continuation).
			restored.Close()

			restored2, err := Restore(bytes.NewReader(buf.Bytes()), cfgOf(shards))
			if err != nil {
				t.Fatalf("%s: second restore: %v", tr.scenario, err)
			}
			var again bytes.Buffer
			if err := restored2.Snapshot(&again); err != nil {
				t.Fatalf("%s: re-snapshot: %v", tr.scenario, err)
			}
			restored2.Close()
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatalf("%s shards=%d: scored snapshot not byte-stable: %d vs %d bytes",
					tr.scenario, shards, buf.Len(), again.Len())
			}

			if trial == 0 && shards == 1 {
				// Scoring and TopK are state-shaping: restoring into a
				// detector with either changed must be rejected.
				off := cfgOf(1)
				off.Scoring = false
				off.TopK = 0
				if _, err := Restore(bytes.NewReader(buf.Bytes()), off); !errors.Is(err, ErrConfigMismatch) {
					t.Errorf("scoring off: got %v, want ErrConfigMismatch", err)
				}
				k2 := cfgOf(1)
				k2.TopK = 16
				if _, err := Restore(bytes.NewReader(buf.Bytes()), k2); !errors.Is(err, ErrConfigMismatch) {
					t.Errorf("TopK changed: got %v, want ErrConfigMismatch", err)
				}
				plain, err := New(tr.config(t, 1))
				if err != nil {
					t.Fatal(err)
				}
				var plainBuf bytes.Buffer
				if err := plain.Snapshot(&plainBuf); err != nil {
					t.Fatal(err)
				}
				plain.Close()
				if _, err := Restore(bytes.NewReader(plainBuf.Bytes()), cfgOf(1)); !errors.Is(err, ErrConfigMismatch) {
					t.Errorf("scoring on over unscored snapshot: got %v, want ErrConfigMismatch", err)
				}

				// Fault injection over the scored bytes: bit flips across
				// the file (covering the new meta fields and the top-K
				// section) must surface typed errors, never panics.
				raw := buf.Bytes()
				typed := func(err error) bool {
					return errors.Is(err, snapshot.ErrBadMagic) ||
						errors.Is(err, snapshot.ErrVersion) ||
						errors.Is(err, snapshot.ErrChecksum) ||
						errors.Is(err, snapshot.ErrTruncated) ||
						errors.Is(err, snapshot.ErrCorrupt) ||
						errors.Is(err, snapshot.ErrInjected) ||
						errors.Is(err, ErrConfigMismatch)
				}
				for off := 0; off < len(raw); off += 1 + len(raw)/61 {
					mask := byte(1 << uint(off%8))
					_, err := Restore(snapshot.NewBitFlipReader(bytes.NewReader(raw), int64(off), mask), cfgOf(1))
					if err == nil || !typed(err) {
						t.Errorf("scored bitflip@%d: got %v, want a typed snapshot error", off, err)
					}
				}
			}
		}
	}
}

// TestKeeperRecoveryEndToEnd wires the real pieces together: periodic
// detector checkpoints through a snapshot.Keeper, newest generation
// corrupted on disk (the torn-overwrite shape), recovery from the last
// good generation, and continuation that matches the oracle from that
// batch boundary on.
func TestKeeperRecoveryEndToEnd(t *testing.T) {
	meta := rand.New(rand.NewSource(23))
	tr := makeSnapTrial(t, 0, meta)
	oracleV, _, _ := tr.oracle(t, 2)

	keeper, err := snapshot.NewKeeper(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(tr.config(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make([]bool, tr.n)
	// Checkpoint after every batch up to the kill point; remember which
	// batch each generation covers.
	genBatches := make(map[string]int)
	for bi := 0; bi < tr.killAfter; bi++ {
		tr.feed(det, verdicts, bi, bi+1)
		p, _, err := keeper.Save(det.Snapshot)
		if err != nil {
			t.Fatalf("checkpoint after batch %d: %v", bi, err)
		}
		genBatches[p] = bi + 1
	}
	det.Close() // the crash

	// Corrupt the newest generation the way a torn overwrite would.
	gens, err := keeper.Generations()
	if err != nil || gens != 2 {
		t.Fatalf("generations = %d, %v — want 2 retained", gens, err)
	}
	newest := ""
	for p := range genBatches {
		if genBatches[p] > genBatches[newest] || newest == "" {
			newest = p
		}
	}
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x08
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var restored *Detector
	loadedFrom, err := keeper.Load(func(r io.Reader) error {
		var rerr error
		restored, rerr = Restore(r, tr.config(t, 2))
		return rerr
	})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if loadedFrom == newest {
		t.Fatal("recovered from the corrupted generation")
	}
	defer restored.Close()
	resume := genBatches[loadedFrom]
	if resume != tr.killAfter-1 {
		t.Fatalf("recovered generation covers %d batches, want the previous one (%d)", resume, tr.killAfter-1)
	}
	tr.feed(restored, verdicts, resume, len(tr.batches))
	// Verdicts before the recovered boundary were emitted pre-crash;
	// everything from the resume point must match the oracle.
	off := 0
	for i := 0; i < resume; i++ {
		off += tr.batches[i]
	}
	for i := off; i < tr.n; i++ {
		if verdicts[i] != oracleV[i] {
			t.Fatalf("%s: verdict for point %d differs after keeper recovery", tr.scenario, i)
		}
	}
}

// TestSnapshotAfterClose: a closed detector refuses to snapshot.
func TestSnapshotAfterClose(t *testing.T) {
	cfg := DefaultConfig(4)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det.Close()
	if err := det.Snapshot(&bytes.Buffer{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestProcessBatchErrValidation covers the typed-error batch entry
// point: ragged input, short verdict buffers, empty batches, and use
// after Close all surface as errors instead of panics, and a rejected
// batch leaves the tick where it was.
func TestProcessBatchErrValidation(t *testing.T) {
	cfg := DefaultConfig(4)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, 8)
	if _, err := det.ProcessBatch(make([]float64, 6), out, nil); !errors.Is(err, ErrBatchLength) {
		t.Fatalf("ragged batch: got %v, want ErrBatchLength", err)
	}
	if _, err := det.ProcessBatch(make([]float64, 4*8), make([]bool, 2), nil); !errors.Is(err, ErrVerdictBuffer) {
		t.Fatalf("short buffer: got %v, want ErrVerdictBuffer", err)
	}
	if n, err := det.ProcessBatch(nil, nil, nil); n != 0 || err != nil {
		t.Fatalf("empty batch: got (%d, %v), want (0, nil)", n, err)
	}
	if n, err := det.ProcessBatch(make([]float64, 4*3), out, nil); n != 3 || err != nil {
		t.Fatalf("valid batch: got (%d, %v)", n, err)
	}
	if _, err := det.ProcessBatch(make([]float64, 6), out, nil); !errors.Is(err, ErrBatchLength) || det.Tick() != 3 {
		t.Errorf("ragged batch after ingest: got %v at tick %d, want ErrBatchLength at tick 3", err, det.Tick())
	}
	det.Close()
	if _, err := det.ProcessBatch(make([]float64, 4), out, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: got %v, want ErrClosed", err)
	}
}
