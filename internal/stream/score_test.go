package stream

import (
	"errors"
	"math"
	"testing"

	"spot/internal/bench"
	"spot/internal/core"
)

// ---- Brute-force attribution oracle -------------------------------
//
// scoreOracle is an independent naive reimplementation of the scored
// verdict pass for one-shard detectors: map-backed cell summaries, a
// plain loop per subspace, no batching, no open addressing. With
// Shards=1 and EvictEpsilon=0 every quantity the verdict math reads is
// bit-reproducible (the populated-average sums run in first-touch cell
// order, which the oracle records explicitly), so the detector's
// Explain output, scores and top-K must match it exactly — not
// approximately.

type oPCS struct {
	dc, s, q float64
	last     uint64
}

func (p *oPCS) touch(decay *core.DecayTable, tick uint64, m float64) {
	if p.last != tick {
		f := decay.At(tick - p.last)
		p.dc *= f
		p.s *= f
		p.q *= f
		p.last = tick
	}
	p.dc++
	p.s += m
	p.q += m * m
}

type oSub struct {
	sid        uint32
	dims       []uint16
	keyBase    uint64
	size       int
	phiPow     float64
	invMaxDist float64
	total      oPCS
	cells      map[uint64]*oPCS
	order      []uint64 // cell keys in first-touch order (= table slot order)
	repKeys    []uint64
	repDcs     []float64
	repMin     float64
	repMinI    int
	repsLast   uint64
	popFloor   float64
}

type scoreOracle struct {
	cfg    Config
	grid   *core.Grid
	decay  *core.DecayTable
	subs   []*oSub // subspace-ID order
	coords []uint8
	tick   uint64
}

func newScoreOracle(t *testing.T, det *Detector, cfg Config) *scoreOracle {
	min, max := cfg.Min, cfg.Max
	if min == nil && max == nil {
		min = make([]float64, cfg.Dims)
		max = make([]float64, cfg.Dims)
		for i := range max {
			max[i] = 1
		}
	}
	grid, err := core.NewGrid(cfg.Phi, min, max)
	if err != nil {
		t.Fatal(err)
	}
	o := &scoreOracle{
		cfg:    cfg,
		grid:   grid,
		decay:  core.NewDecayTable(cfg.Lambda),
		coords: make([]uint8, cfg.Dims),
	}
	tmpl := det.Template()
	for id := 0; id < tmpl.Count(); id++ {
		size := tmpl.Size(id)
		sub := &oSub{
			sid:     uint32(id),
			dims:    append([]uint16(nil), tmpl.Dims(id)...),
			keyBase: uint64(id) << core.SubspaceShift,
			size:    size,
			phiPow:  math.Pow(float64(cfg.Phi), float64(size)),
			cells:   make(map[uint64]*oPCS),
			repKeys: make([]uint64, cfg.K),
			repDcs:  make([]float64, cfg.K),
		}
		for i := range sub.repKeys {
			sub.repKeys[i] = repEmpty
		}
		if cfg.Phi > 1 {
			sub.invMaxDist = 1 / float64((cfg.Phi-1)*size)
		}
		o.subs = append(o.subs, sub)
	}
	return o
}

// process folds one point and returns the flag, the ensemble score and
// the point's attribution entries in subspace-ID order — exactly what
// Process + Explain(0) report.
func (o *scoreOracle) process(point []float64) (bool, float64, []Attribution) {
	o.tick++
	tick := o.tick
	o.grid.Intervals(point, o.coords)
	var attrs []Attribution
	logSum := 0.0
	for _, sub := range o.subs {
		key := sub.keyBase
		m := 0.0
		for j, dim := range sub.dims {
			key |= uint64(o.coords[dim]) << (uint(j) * core.CoordBits)
			m += point[dim]
		}
		sub.total.touch(o.decay, tick, m)
		c := sub.cells[key]
		if c == nil {
			c = &oPCS{last: tick}
			sub.cells[key] = c
			sub.order = append(sub.order, key)
		}
		c.touch(o.decay, tick, m)
		dc := c.dc

		// Greedy representative upkeep, mirrored from the shard: strided
		// fading, the cached-minimum gate, refresh-or-displace.
		if dt := tick - sub.repsLast; dt >= repDecayStride {
			f := o.decay.At(dt)
			for i := range sub.repDcs {
				sub.repDcs[i] *= f
			}
			sub.repMin *= f
			sub.repsLast = tick
		}
		if dc > sub.repMin {
			found := -1
			for i, rk := range sub.repKeys {
				if rk == key {
					found = i
					break
				}
			}
			if found < 0 {
				found = sub.repMinI
				sub.repKeys[found] = key
			}
			sub.repDcs[found] = dc
			if found == sub.repMinI {
				sub.repMin = sub.repDcs[0]
				sub.repMinI = 0
				for i := 1; i < len(sub.repDcs); i++ {
					if sub.repDcs[i] < sub.repMin {
						sub.repMin = sub.repDcs[i]
						sub.repMinI = i
					}
				}
			}
		}

		if sub.total.dc < o.cfg.Warmup {
			continue
		}
		lhs := dc * sub.phiPow
		var fired core.Measure
		var sev float64
		if rhs := o.cfg.RDThreshold * sub.total.dc; lhs < rhs {
			fired = core.MeasureRD
			sev = core.Deficit(lhs, rhs)
		}
		if dc < sub.popFloor {
			fired |= core.MeasureRDPopulated
			if s2 := core.Deficit(dc, sub.popFloor); s2 > sev {
				sev = s2
			}
		}
		if lhs < sub.total.dc {
			if o.cfg.IRSDThreshold > 0 && sub.total.dc > 0 {
				mu := sub.total.s / sub.total.dc
				if v := sub.total.q/sub.total.dc - mu*mu; v > 0 {
					z := math.Abs(c.s/dc-mu) / math.Sqrt(v)
					if irsd := 1 / (1 + z); irsd < o.cfg.IRSDThreshold {
						fired |= core.MeasureIRSD
						if s2 := core.Deficit(irsd, o.cfg.IRSDThreshold); s2 > sev {
							sev = s2
						}
					}
				}
			}
			if o.cfg.IkRDThreshold > 0 && sub.invMaxDist > 0 {
				sum, cnt := 0.0, 0
				for i, rk := range sub.repKeys {
					if sub.repDcs[i] <= 0 || rk == key {
						continue
					}
					dist := 0
					for j := 0; j < sub.size; j++ {
						dj := int(core.CoordAt(key, j)) - int(core.CoordAt(rk, j))
						if dj < 0 {
							dj = -dj
						}
						dist += dj
					}
					sum += float64(dist)
					cnt++
				}
				if cnt > 0 {
					if ikrd := 1 - (sum/float64(cnt))*sub.invMaxDist; ikrd < o.cfg.IkRDThreshold {
						fired |= core.MeasureIkRD
						if s2 := core.Deficit(ikrd, o.cfg.IkRDThreshold); s2 > sev {
							sev = s2
						}
					}
				}
			}
		}
		if fired != 0 {
			attrs = append(attrs, Attribution{Subspace: sub.sid, Cell: key, Measures: fired, Severity: sev})
			logSum += math.Log1p(-sev)
		}
	}
	score := 0.0
	if len(attrs) > 0 {
		score = -math.Expm1(logSum)
	}
	if o.cfg.EpochTicks > 0 && tick%o.cfg.EpochTicks == 0 {
		o.sweep(tick)
	}
	return len(attrs) > 0, score, attrs
}

// sweep recomputes the per-arity populated averages the popRD floor
// derives from: per-subspace cell sums in first-touch order, reduced
// per arity in subspace-ID order — the exact summation orders of the
// detector's sweep with one shard and no evictions.
func (o *scoreOracle) sweep(tick uint64) {
	cells := make([]int, core.MaxSubspaceDims+1)
	dcs := make([]float64, core.MaxSubspaceDims+1)
	for _, sub := range o.subs {
		pop := 0
		tot := 0.0
		for _, key := range sub.order {
			c := sub.cells[key]
			tot += c.dc * o.decay.At(tick-c.last)
			pop++
		}
		if pop > 0 {
			cells[sub.size] += pop
			dcs[sub.size] += tot
		}
	}
	for _, sub := range o.subs {
		if cells[sub.size] > 0 {
			sub.popFloor = o.cfg.RDPopulatedThreshold * (dcs[sub.size] / float64(cells[sub.size]))
		} else {
			sub.popFloor = 0
		}
	}
}

// TestAttributionOracle streams planted-outlier data through a scoring
// detector and the brute-force oracle side by side, requiring bitwise
// agreement on every verdict, score, attribution entry (subspace,
// cell, fired measures, severity) and the final top-K — with epoch
// sweeps keeping the popRD floor live so all four measures fire. The
// stream goes in once pointwise (Process) and once through scored
// ProcessBatch calls of 100 points, which the 128-tick epochs
// split mid-batch; the oracle stays pointwise for both.
func TestAttributionOracle(t *testing.T) {
	t.Run("pointwise", func(t *testing.T) { attributionOracle(t, 0) })
	t.Run("batch100", func(t *testing.T) { attributionOracle(t, 100) })
}

// attributionOracle runs one TestAttributionOracle leg: batch 0 feeds
// the stream point by point, batch > 0 in batches of that many points.
func attributionOracle(t *testing.T, batch int) {
	const d, n = 6, 2000
	cfg := DefaultConfig(d)
	cfg.MaxSubspaceDim = 2
	cfg.Lambda = 0.01
	cfg.Warmup = 30
	cfg.EpochTicks = 128
	cfg.EvictEpsilon = 0 // no evictions: cell order stays first-touch
	cfg.RDPopulatedThreshold = 0.2
	// Trigger-happy thresholds so all four measures fire on this
	// stream: RDThreshold above the λ=0.01 arity-1 RD floor (≈0.055)
	// and an IkRD threshold reachable by the generator's displacement.
	cfg.RDThreshold = 0.3
	cfg.IkRDThreshold = 0.6
	cfg.Scoring = true
	cfg.TopK = 5
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	o := newScoreOracle(t, det, cfg)
	tk := &topkOracle{lambda: cfg.Lambda}

	gen := bench.NewGenerator(bench.DefaultGenConfig(d))
	flat := make([]float64, n*d)
	for i := 0; i < n; i++ {
		gen.Next(flat[i*d : (i+1)*d])
	}
	step := max(batch, 1)
	out := make([]bool, step)
	scores := make([]float64, step)
	var explain []Attribution
	var measuresSeen core.Measure
	flagged := 0
	for i := 0; i < n; i++ {
		rel := i % step
		if rel == 0 {
			hi := min(i+step, n)
			if batch == 0 {
				out[0], scores[0] = mustProcessScored(det, flat[i*d:hi*d])
			} else {
				mustBatch(det, flat[i*d:hi*d], out, scores)
			}
		}
		gotFlag, gotScore := out[rel], scores[rel]
		wantFlag, wantScore, wantAttrs := o.process(flat[i*d : (i+1)*d])
		if gotFlag != wantFlag {
			t.Fatalf("point %d: verdict %v, oracle %v", i, gotFlag, wantFlag)
		}
		if math.Float64bits(gotScore) != math.Float64bits(wantScore) {
			t.Fatalf("point %d: score %g, oracle %g", i, gotScore, wantScore)
		}
		explain = det.Explain(rel, explain[:0])
		if len(explain) != len(wantAttrs) {
			t.Fatalf("point %d: %d attribution entries, oracle %d\n got %+v\nwant %+v",
				i, len(explain), len(wantAttrs), explain, wantAttrs)
		}
		for j := range explain {
			if explain[j] != wantAttrs[j] {
				t.Fatalf("point %d entry %d: %+v, oracle %+v", i, j, explain[j], wantAttrs[j])
			}
			measuresSeen |= explain[j].Measures
		}
		if gotFlag {
			flagged++
			if !(gotScore > 0 && gotScore <= 1) {
				t.Fatalf("point %d: flagged with score %g outside (0,1]", i, gotScore)
			}
			tk.add(o.tick, wantScore)
		} else if gotScore != 0 {
			t.Fatalf("point %d: not flagged but score %g", i, gotScore)
		}
	}
	if flagged == 0 {
		t.Fatal("stream produced no flagged points; oracle exercised nothing")
	}
	for _, m := range []core.Measure{core.MeasureRD, core.MeasureRDPopulated, core.MeasureIRSD, core.MeasureIkRD} {
		if measuresSeen&m == 0 {
			t.Errorf("measure %v never fired; scenario too weak", m)
		}
	}

	got := det.TopK(nil)
	want := tk.top(det.decay, det.Tick(), cfg.TopK)
	if len(got) != len(want) {
		t.Fatalf("TopK returned %d offenders, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("TopK entry %d: %+v, oracle %+v", i, got[i], want[i])
		}
	}
}

// TestScoringAdditivePointwise runs the same stream through a scoring
// and a non-scoring detector via the pointwise APIs: verdicts must be
// identical, and the score must be positive exactly on flagged points.
func TestScoringAdditivePointwise(t *testing.T) {
	const d, n = 8, 3000
	mk := func(scoring bool) *Detector {
		cfg := DefaultConfig(d)
		cfg.Lambda = 0.005
		cfg.Warmup = 50
		cfg.EpochTicks = 256
		cfg.RDPopulatedThreshold = 0.2
		cfg.Scoring = scoring
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	plain := mk(false)
	defer plain.Close()
	scored := mk(true)
	defer scored.Close()

	gen := bench.NewGenerator(bench.DefaultGenConfig(d))
	buf := make([]float64, d)
	flagged := 0
	for i := 0; i < n; i++ {
		gen.Next(buf)
		want := mustProcess(plain, buf)
		got, score := mustProcessScored(scored, buf)
		if got != want {
			t.Fatalf("point %d: scoring changed the verdict: %v vs %v", i, got, want)
		}
		if (score > 0) != want {
			t.Fatalf("point %d: verdict %v but score %g", i, want, score)
		}
		if score < 0 || score > 1 || math.IsNaN(score) {
			t.Fatalf("point %d: score %g outside [0,1]", i, score)
		}
		if want {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no flagged points; additivity not exercised")
	}
}

// TestScoreReconstruction checks the published noisy-OR identity: for
// each flagged point of a scored batch, the score recomputes exactly
// from the Explain severities.
func TestScoreReconstruction(t *testing.T) {
	const d, n = 6, 2048
	cfg := DefaultConfig(d)
	cfg.Lambda = 0.01
	cfg.Warmup = 30
	cfg.EpochTicks = 300 // mid-batch epoch split
	cfg.RDPopulatedThreshold = 0.2
	cfg.Shards = 4
	cfg.Scoring = true
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()

	flat := make([]float64, n*d)
	labels := make([]bool, n)
	bench.NewGenerator(bench.DefaultGenConfig(d)).Fill(flat, labels, n)
	out := make([]bool, n)
	scores := make([]float64, n)
	mustBatch(det, flat, out, scores)

	var attrs []Attribution
	flagged := 0
	for i := 0; i < n; i++ {
		attrs = det.Explain(i, attrs[:0])
		if out[i] != (len(attrs) > 0) {
			t.Fatalf("point %d: verdict %v but %d attribution entries", i, out[i], len(attrs))
		}
		if !out[i] {
			if scores[i] != 0 {
				t.Fatalf("point %d: unflagged score %g", i, scores[i])
			}
			continue
		}
		flagged++
		sum := 0.0
		for j, a := range attrs {
			if a.Measures == 0 {
				t.Fatalf("point %d entry %d: empty measure set", i, j)
			}
			if !(a.Severity > 0 && a.Severity <= 1) {
				t.Fatalf("point %d entry %d: severity %g outside (0,1]", i, j, a.Severity)
			}
			if j > 0 && attrs[j-1].Subspace >= a.Subspace {
				t.Fatalf("point %d: Explain entries out of subspace order: %+v", i, attrs)
			}
			sum += math.Log1p(-a.Severity)
		}
		if rec := -math.Expm1(sum); rec != scores[i] {
			t.Fatalf("point %d: score %g does not reconstruct from severities (%g)", i, scores[i], rec)
		}
	}
	if flagged == 0 {
		t.Fatal("no flagged points; reconstruction not exercised")
	}
}

// TestBatchErrContracts pins every typed error of the batch APIs and
// the buffer contracts the docs promise: validation happens before any
// state is touched, only out[0:n] is written, longer buffers keep
// their tail.
func TestBatchErrContracts(t *testing.T) {
	const d = 4
	mk := func(scoring bool) *Detector {
		cfg := DefaultConfig(d)
		cfg.EpochTicks = 0
		cfg.RDPopulatedThreshold = 0
		cfg.Scoring = scoring
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(det.Close)
		return det
	}
	plain := mk(false)
	scored := mk(true)
	closedPlain := mk(false)
	closedPlain.Close()
	closedScored := mk(true)
	closedScored.Close()

	flat := make([]float64, 2*d)
	out := make([]bool, 2)
	scores := make([]float64, 2)
	cases := []struct {
		name string
		call func() (int, error)
		want error
	}{
		{"closed", func() (int, error) { return closedPlain.ProcessBatch(flat, out, nil) }, ErrClosed},
		{"closed scored", func() (int, error) { return closedScored.ProcessBatch(flat, out, scores) }, ErrClosed},
		{"ragged batch", func() (int, error) { return plain.ProcessBatch(flat[:2*d-1], out, nil) }, ErrBatchLength},
		{"ragged scored batch", func() (int, error) { return scored.ProcessBatch(flat[:2*d-1], out, scores) }, ErrBatchLength},
		{"short verdict buffer", func() (int, error) { return plain.ProcessBatch(flat, out[:1], nil) }, ErrVerdictBuffer},
		{"short scored verdict buffer", func() (int, error) { return scored.ProcessBatch(flat, out[:1], scores) }, ErrVerdictBuffer},
		{"short score buffer", func() (int, error) { return scored.ProcessBatch(flat, out, scores[:1]) }, ErrScoreBuffer},
		{"scoring disabled", func() (int, error) { return plain.ProcessBatch(flat, out, scores) }, ErrScoringDisabled},
	}
	for _, tc := range cases {
		n, err := tc.call()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got (%d, %v), want %v", tc.name, n, err, tc.want)
		}
		if n != 0 {
			t.Errorf("%s: n = %d on error, want 0", tc.name, n)
		}
	}
	if plain.Tick() != 0 || scored.Tick() != 0 {
		t.Fatalf("a rejected call touched detector state: ticks %d, %d", plain.Tick(), scored.Tick())
	}

	// Empty batches are accepted no-ops even with nil buffers.
	if n, err := plain.ProcessBatch(nil, nil, nil); n != 0 || err != nil {
		t.Fatalf("empty batch: got (%d, %v)", n, err)
	}
	if n, err := scored.ProcessBatch(nil, nil, nil); n != 0 || err != nil {
		t.Fatalf("empty scored batch: got (%d, %v)", n, err)
	}

	// The verdict contract is per point, not per float: out needs n
	// slots for n points, and slots past n are never written.
	longOut := []bool{true, true, true, true}
	longScores := []float64{9, 9, 9, 9}
	if _, err := scored.ProcessBatch(flat, longOut, longScores); err != nil {
		t.Fatal(err)
	}
	if longOut[2] != true || longOut[3] != true {
		t.Fatalf("out tail overwritten: %v", longOut)
	}
	if longScores[2] != 9 || longScores[3] != 9 {
		t.Fatalf("scores tail overwritten: %v", longScores)
	}

	// The one-point path: Process on a non-scoring detector reports a
	// zero score rather than an error, and a scored one-point batch on
	// it is refused with the typed error, as is an empty score buffer.
	if _, score, err := plain.Process(make([]float64, d)); score != 0 || err != nil {
		t.Errorf("Process on a non-scoring detector: got (%g, %v), want (0, nil)", score, err)
	}
	if _, err := plain.ProcessBatch(make([]float64, d), out, scores[:1]); !errors.Is(err, ErrScoringDisabled) {
		t.Errorf("scored one-point batch on a non-scoring detector: got %v, want ErrScoringDisabled", err)
	}
	if _, err := scored.ProcessBatch(make([]float64, d), out, scores[:0]); !errors.Is(err, ErrScoreBuffer) {
		t.Errorf("one-point batch with an empty score buffer: got %v, want ErrScoreBuffer", err)
	}
}

// TestScoringConfigValidation pins the constructor checks the scoring
// fields add.
func TestScoringConfigValidation(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.TopK = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative TopK accepted")
	}
	cfg = DefaultConfig(4)
	cfg.TopK = 8 // without Scoring
	if _, err := New(cfg); err == nil {
		t.Error("TopK without Scoring accepted")
	}
	cfg = DefaultConfig(4)
	cfg.Scoring = true
	cfg.TopK = 8
	det, err := New(cfg)
	if err != nil {
		t.Fatalf("valid scoring config rejected: %v", err)
	}
	det.Close()
}
