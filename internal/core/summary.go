package core

import "math"

// decayWeight is the one primitive every fading weight in the engine
// derives from: 2^(-lambda*dt) evaluated as math.Exp2 over the exact
// float64 product. Decay, the DecayTable entries and the DecayTable's
// past-the-table fallback all call it, so a gap computed from table
// entries and the same gap computed by the fallback can never diverge
// by more than Exp2's own rounding — there is no second formula to
// drift against. (Exp2(-0) is exactly 1, so dt == 0 needs no special
// case.)
func decayWeight(lambda float64, dt uint64) float64 {
	return math.Exp2(-lambda * float64(dt))
}

// Decay returns the exponential fading weight 2^(-lambda*dt) applied to
// a summary that was last touched dt ticks ago. lambda is the fading
// factor λ of the paper; larger λ forgets the past faster. The
// effective window size (total decayed weight of an infinite uniform
// stream) is 1/(1-2^-λ).
func Decay(lambda float64, dt uint64) float64 {
	return decayWeight(lambda, dt)
}

// decayTableSize covers the gaps between touches of recurring
// summaries; larger gaps fall back to math.Exp2. Subspace totals are
// touched every tick, but individual cells of a subspace with c
// populated cells recur every ~c ticks — profiles showed the old
// 64-entry table pushing a large share of cell touches onto the
// transcendental fallback, so the table spans 4096 ticks (32 KiB,
// shared read-only across shards; the hot prefix stays cached).
const decayTableSize = 4096

// DecayTable memoizes Decay(lambda, dt) for small dt. Subspace totals
// are touched every tick (dt==1) and hot cells every few ticks, so the
// table turns the hot path's transcendental call into an array load.
// It is immutable after construction and safe to share across shards.
type DecayTable struct {
	lambda float64
	pow    [decayTableSize]float64
}

// NewDecayTable precomputes fading weights for the fading factor lambda.
func NewDecayTable(lambda float64) *DecayTable {
	t := &DecayTable{lambda: lambda}
	for i := range t.pow {
		t.pow[i] = decayWeight(lambda, uint64(i))
	}
	return t
}

// Lambda returns the fading factor the table was built for.
func (t *DecayTable) Lambda() float64 { return t.lambda }

// At returns the fading weight for a gap of dt ticks: a table load
// below decayTableSize, the shared decayWeight primitive past it —
// table entries are built from the same primitive, so the two regimes
// agree bitwise on any gap either could serve. The table hit stays
// small enough to inline into every touch loop; only the rare
// past-the-table gap pays a call (scripts/inline_check.sh guards this).
func (t *DecayTable) At(dt uint64) float64 {
	if dt < decayTableSize {
		return t.pow[dt]
	}
	return t.atFar(dt)
}

// atFar is At's out-of-line fallback for gaps past the table. It must
// not be inlined: its math.Exp2 body would push At over the inline
// budget and put a real call back on every table hit.
//
//go:noinline
func (t *DecayTable) atFar(dt uint64) float64 {
	return decayWeight(t.lambda, dt)
}

// Series returns the closed-form geometric series 1 + f + f² + … +
// f^(m-1) with f = At(1): the total decayed weight, as seen at the last
// tick, of m touches at consecutive ticks. It is the algebra behind run
// folding — a summary receiving one unit per tick for m ticks ends at
// Dc·f^m + Series(m) — evaluated from table powers in O(1) instead of m
// iterated multiply-adds. The closed form agrees with the iterated fold
// only up to floating-point rounding, so the ingestion path (whose
// verdicts must stay bit-identical between the coalesced and pointwise
// orders) uses the exact Horner evaluation in PCS.TouchRun and this
// form backs analysis and tests.
func (t *DecayTable) Series(m uint64) float64 {
	if m == 0 {
		return 0
	}
	f := t.At(1)
	if f == 1 {
		return float64(m)
	}
	return (1 - t.At(m)) / (1 - f)
}

// PCS is the Projected Cell Summary: the per-cell state SPOT keeps for
// every populated cell of every subspace in the SST. All fields decay
// with the fading factor; decay is applied lazily when the cell is next
// touched (update-on-touch), so no background pass ever rewrites the
// table. The magnitude moments S and Q accumulate the projected
// magnitude m of member points (the sum of the point's coordinates over
// the subspace's dimensions), from which the cell's mean and standard
// deviation — the inputs to IRSD — are derived.
type PCS struct {
	Dc   float64 // decayed density (weighted point count)
	S    float64 // decayed sum of member magnitudes
	Q    float64 // decayed sum of squared member magnitudes
	Last uint64  // tick of the last touch
}

// Touch folds one point with magnitude m observed at tick into the
// summary, first bringing the decayed fields current. It performs no
// allocation.
func (p *PCS) Touch(t *DecayTable, tick uint64, m float64) {
	if p.Last != tick {
		d := t.At(tick - p.Last)
		p.Dc *= d
		p.S *= d
		p.Q *= d
		p.Last = tick
	}
	p.Dc++
	p.S += m
	p.Q += m * m
}

// TouchRun folds a whole run of touches on one cell: touch j occurs at
// tick ticks[j] (strictly increasing, all ≥ p.Last) with magnitude
// mags[j], and the post-touch magnitude sum and density are snapshotted
// into ss[j] and dcs[j] (both len ≥ len(ticks)) — the per-point view a
// verdict pass consumes. It is the decayed geometric-series fold of the
// coalesced batch path, evaluated by Horner's rule with the summary
// held in registers across the run: Dc after the run is
// Dc₀·f^Δ + Σⱼ f^δⱼ (DecayTable.Series gives the consecutive-tick
// closed form), but folding it one touch at a time keeps every
// intermediate — and therefore every verdict — bit-identical to
// iterated Touch calls, which a property test pins across random tick
// gaps and the decay-table fallback boundary. No heap allocations.
func (p *PCS) TouchRun(t *DecayTable, ticks []uint64, mags []float64, ss, dcs []float64) {
	mags = mags[:len(ticks)]
	ss = ss[:len(ticks)]
	dcs = dcs[:len(ticks)]
	dc, sv, q, last := p.Dc, p.S, p.Q, p.Last
	for j, tick := range ticks {
		if last != tick {
			f := t.At(tick - last)
			dc *= f
			sv *= f
			q *= f
			last = tick
		}
		m := mags[j]
		dc++
		sv += m
		q += m * m
		ss[j] = sv
		dcs[j] = dc
	}
	p.Dc, p.S, p.Q, p.Last = dc, sv, q, last
}

// DcAt returns the decayed density as seen at tick without mutating the
// summary.
func (p *PCS) DcAt(t *DecayTable, tick uint64) float64 {
	return p.Dc * t.At(tick-p.Last)
}

// Mean returns the decayed mean magnitude of the cell's members.
func (p *PCS) Mean() float64 {
	if p.Dc == 0 {
		return 0
	}
	return p.S / p.Dc
}

// Sigma returns the decayed standard deviation of member magnitudes.
func (p *PCS) Sigma() float64 {
	if p.Dc == 0 {
		return 0
	}
	mu := p.S / p.Dc
	v := p.Q/p.Dc - mu*mu
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// BCS is the Base Cell Summary kept for populated cells of the full
// d-dimensional space. Unlike the scalar PCS it stores per-dimension
// decayed linear sums (LS) and squared sums (SS), so the centroid and
// spread of the cell under any projection can be reconstructed without
// revisiting data — the raw material the epoch sweep snapshots and the
// self-evolving subspace group (internal/sst's TopSparse evolver)
// mines for candidate subspaces.
type BCS struct {
	Dc   float64
	LS   []float64
	SS   []float64
	Last uint64
}

// NewBCS returns an empty base cell summary for a d-dimensional space.
func NewBCS(d int) *BCS {
	return &BCS{LS: make([]float64, d), SS: make([]float64, d)}
}

// Touch folds point (length d) observed at tick into the summary,
// applying pending decay first. For an existing cell it performs no
// allocation.
func (b *BCS) Touch(t *DecayTable, tick uint64, point []float64) {
	if b.Last != tick {
		d := t.At(tick - b.Last)
		b.Dc *= d
		for i := range b.LS {
			b.LS[i] *= d
			b.SS[i] *= d
		}
		b.Last = tick
	}
	b.Dc++
	for i, x := range point {
		b.LS[i] += x
		b.SS[i] += x * x
	}
}

// DcAt returns the decayed density as seen at tick without mutating the
// summary.
func (b *BCS) DcAt(t *DecayTable, tick uint64) float64 {
	return b.Dc * t.At(tick-b.Last)
}

// Centroid writes the decayed centroid of the cell into out.
func (b *BCS) Centroid(out []float64) {
	if b.Dc == 0 {
		for i := range b.LS {
			out[i] = 0
		}
		return
	}
	for i := range b.LS {
		out[i] = b.LS[i] / b.Dc
	}
}
