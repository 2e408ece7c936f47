package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestTouchRunMatchesTouchOracle pins the run-fold contract the
// coalesced batch path stands on: PCS.TouchRun over any strictly
// increasing tick sequence produces bit-identical state and per-touch
// snapshots to iterated PCS.Touch calls. Trials randomize run length,
// starting state, magnitudes and tick gaps — mixing dense consecutive
// ticks with gaps beyond the DecayTable memo (dt > 4096), so the fold
// crosses the table→Exp2 fallback boundary mid-run.
func TestTouchRunMatchesTouchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dt := NewDecayTable(0.002)
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(64)
		start := uint64(rng.Intn(10000))
		var ref, run PCS
		if rng.Intn(2) == 0 { // half the trials start from a lived-in cell
			ref = PCS{Dc: 50 * rng.Float64(), S: 20 * rng.Float64(), Q: 40 * rng.Float64(), Last: start}
			run = ref
		} else {
			ref.Last = start
			run.Last = start
		}
		ticks := make([]uint64, m)
		mags := make([]float64, m)
		tick := start
		for j := range ticks {
			switch rng.Intn(4) {
			case 0: // consecutive tick — the dense-run common case
				tick++
			case 1: // small gap inside the memo table
				tick += 1 + uint64(rng.Intn(100))
			case 2: // gap straddling the memo boundary
				tick += decayTableSize - 8 + uint64(rng.Intn(16))
			default: // far past the memo: Exp2 fallback
				tick += decayTableSize + uint64(rng.Intn(20000))
			}
			ticks[j] = tick
			mags[j] = 10 * (rng.Float64() - 0.5)
		}

		wantSS := make([]float64, m)
		wantDc := make([]float64, m)
		for j := range ticks {
			ref.Touch(dt, ticks[j], mags[j])
			wantSS[j] = ref.S
			wantDc[j] = ref.Dc
		}
		gotSS := make([]float64, m)
		gotDc := make([]float64, m)
		run.TouchRun(dt, ticks, mags, gotSS, gotDc)

		if run != ref {
			t.Fatalf("trial %d: state diverged:\n run %+v\nwant %+v", trial, run, ref)
		}
		for j := range ticks {
			if gotSS[j] != wantSS[j] || gotDc[j] != wantDc[j] {
				t.Fatalf("trial %d touch %d: snapshot (S=%v Dc=%v) != oracle (S=%v Dc=%v)",
					trial, j, gotSS[j], gotDc[j], wantSS[j], wantDc[j])
			}
		}
	}
}

// TestSeriesClosedForm checks the closed-form geometric series against
// the iterated sum of DecayTable powers, including lengths beyond the
// memo table, and verifies the run-fold algebra it documents: a fresh
// summary touched once per tick for m ticks ends within rounding of
// Series(m).
func TestSeriesClosedForm(t *testing.T) {
	for _, lambda := range []float64{0.002, 0.01, 0.2} {
		dt := NewDecayTable(lambda)
		for _, m := range []uint64{0, 1, 2, 3, 100, decayTableSize - 1, decayTableSize, decayTableSize + 977} {
			want := 0.0
			for j := uint64(0); j < m; j++ {
				want += dt.At(j)
			}
			got := dt.Series(m)
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("lambda=%g m=%d: Series=%v, iterated sum=%v", lambda, m, got, want)
			}
		}

		const m = 300
		var p PCS
		p.Last = 10
		ticks := make([]uint64, m)
		mags := make([]float64, m)
		scratch := make([]float64, m)
		for j := range ticks {
			ticks[j] = 10 + uint64(j) + 1
		}
		p.TouchRun(dt, ticks, mags, scratch, scratch)
		if want := dt.Series(m); math.Abs(p.Dc-want) > 1e-9*want {
			t.Fatalf("lambda=%g: %d consecutive touches give Dc=%v, Series=%v", lambda, m, p.Dc, want)
		}
	}
}

// TestTouchRunsTilesMatchPointwise pins TouchRuns' tile contract:
// stripe position i of a w-subspace, n-point tile touches at tick
// t0+i+1, runs never leave their stripe, and folding a tile — grouped
// by Group, or by Singletons when n == 1 — leaves every summary and
// every per-position post-touch (sum, density) bit-identical to
// touching the same cells point by point, subspace by subspace, with
// PCS.Touch on the map-backed oracle. Tiles are re-used across rounds
// at stream ticks that keep advancing, so later rounds fold into lived-
// in cells and some new ones.
func TestTouchRunsTilesMatchPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dt := NewDecayTable(0.002)
	for _, shape := range []struct{ w, n int }{{1, 512}, {3, 37}, {8, 64}, {512, 1}, {5, 1}, {2, 2}} {
		tbl, oracle := NewPCSTable(), NewMapPCSTable()
		var g Grouper
		t0 := uint64(rng.Intn(1000))
		pairs := shape.w * shape.n
		keys := make([]uint64, pairs)
		mags := make([]float64, pairs)
		ss := make([]float64, pairs)
		dcs := make([]float64, pairs)
		for round := 0; round < 6; round++ {
			for j := 0; j < shape.w; j++ {
				for i := 0; i < shape.n; i++ {
					// A few cells per subspace (stripe j), so runs repeat.
					keys[j*shape.n+i] = uint64(j)<<SubspaceShift | uint64(rng.Intn(6))
					mags[j*shape.n+i] = 10 * (rng.Float64() - 0.5)
				}
			}
			if shape.n == 1 {
				copy(g.Singletons(pairs), keys)
			} else {
				g.Group(keys)
			}
			tbl.TouchRuns(dt, t0, shape.n, &g, mags, ss, dcs)
			for j := 0; j < shape.w; j++ {
				for i := 0; i < shape.n; i++ {
					p := j*shape.n + i
					tick := t0 + uint64(i) + 1
					c := oracle.Get(keys[p], tick)
					c.Touch(dt, tick, mags[p])
					if math.Float64bits(ss[p]) != math.Float64bits(c.S) || math.Float64bits(dcs[p]) != math.Float64bits(c.Dc) {
						t.Fatalf("w=%d n=%d round %d pair %d: (S, Dc) = (%v, %v), pointwise (%v, %v)",
							shape.w, shape.n, round, p, ss[p], dcs[p], c.S, c.Dc)
					}
				}
			}
			t0 += uint64(shape.n) + uint64(rng.Intn(50))
		}
		if tbl.Len() != oracle.Len() {
			t.Fatalf("w=%d n=%d: %d cells, oracle %d", shape.w, shape.n, tbl.Len(), oracle.Len())
		}
		for i := 0; i < oracle.Len(); i++ {
			key, want := oracle.At(i)
			got := tbl.Get(key, 0)
			if *got != *want {
				t.Fatalf("w=%d n=%d: cell %x = %+v, oracle %+v", shape.w, shape.n, key, *got, *want)
			}
		}
	}
}
