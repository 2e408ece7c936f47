package stream

import (
	"math"
	"sort"

	"spot/internal/core"
)

// Ensemble scoring and per-verdict attribution. With Config.Scoring
// set, the verdict pass records one attribution entry per flagged
// (subspace, cell) pair — which measures fired and how far below
// threshold they fell (core.Deficit) — instead of collapsing the
// evidence to a verdict bit. After every (sub-)batch the dispatcher
// merges the shards' entries, sorts them by (point, subspace) and
// folds each point's severities into one ensemble score via noisy-OR:
//
//	score = 1 - Π(1 - severity_s)  over the point's fired subspaces
//
// computed as -expm1(Σ log1p(-sev)) for precision. Treating each
// subspace as an independent weak witness — the ensemble view of
// subspace outlier detection — makes the score grow with both the
// depth of individual deviations and the number of agreeing
// subspaces, and keeps it calibrated in (0,1]. Folding in sorted
// subspace order makes the float accumulation — and therefore the
// score bits — independent of the shard layout.
//
// Scoring is additive: the fired-measure semantics mirror the verdict
// gates exactly (a point is flagged iff it has ≥ 1 attribution entry),
// so verdict bits are identical with scoring on or off, and the
// non-scoring hot path is untouched.

// Attribution is one subspace's evidence against a flagged point:
// where it looked anomalous and why. Valid until the next ingest call.
type Attribution struct {
	// Subspace is the SST subspace ID; Detector.Template().Dims
	// resolves its member dimensions.
	Subspace uint32
	// Cell is the packed cell key the point landed in within that
	// subspace (core.CoordAt unpacks per-dimension intervals).
	Cell uint64
	// Measures is the set of outlier-ness measures that fired.
	Measures core.Measure
	// Severity is the maximum normalized deficit across the fired
	// measures, in (0,1]: how decisively the worst measure fell below
	// its threshold.
	Severity float64
}

// attrBuf is a reusable structure-of-arrays attribution buffer. The
// per-shard instances are filled lock-free during the verdict pass
// (relative point indices); the detector-level instance holds the
// merged, (point, subspace)-sorted entries of the most recent ingest
// call, with point indices relative to that call. All arrays grow to
// a steady-state watermark and are reused — zero allocations once the
// stream's flag rate has been seen.
type attrBuf struct {
	point []int32
	sid   []uint32
	cell  []uint64
	meas  []core.Measure
	sev   []float64
}

func (b *attrBuf) reset() {
	b.point = b.point[:0]
	b.sid = b.sid[:0]
	b.cell = b.cell[:0]
	b.meas = b.meas[:0]
	b.sev = b.sev[:0]
}

func (b *attrBuf) add(point int32, sid uint32, cell uint64, meas core.Measure, sev float64) {
	b.point = append(b.point, point)
	b.sid = append(b.sid, sid)
	b.cell = append(b.cell, cell)
	b.meas = append(b.meas, meas)
	b.sev = append(b.sev, sev)
}

// attrSorter sorts an attrBuf's tail [lo:] by (point, subspace). Each
// (point, subspace) pair appears at most once, so the order is total
// and deterministic regardless of how shards interleaved the entries.
// A preallocated pointer receiver keeps sort.Sort allocation-free.
type attrSorter struct {
	b  *attrBuf
	lo int
}

func (s *attrSorter) Len() int { return len(s.b.point) - s.lo }

func (s *attrSorter) Less(i, j int) bool {
	i, j = i+s.lo, j+s.lo
	if s.b.point[i] != s.b.point[j] {
		return s.b.point[i] < s.b.point[j]
	}
	return s.b.sid[i] < s.b.sid[j]
}

func (s *attrSorter) Swap(i, j int) {
	b := s.b
	i, j = i+s.lo, j+s.lo
	b.point[i], b.point[j] = b.point[j], b.point[i]
	b.sid[i], b.sid[j] = b.sid[j], b.sid[i]
	b.cell[i], b.cell[j] = b.cell[j], b.cell[i]
	b.meas[i], b.meas[j] = b.meas[j], b.meas[i]
	b.sev[i], b.sev[j] = b.sev[j], b.sev[i]
}

// mergeScores concatenates the shards' attribution entries for the
// just-processed chunk of n points starting at stream tick t0+1 (point
// indices offset by base within the caller's batch), sorts them by
// (point, subspace), folds per-point ensemble scores into
// scores[0:n], and offers each scored point to the streaming top-K.
// Called on the dispatcher with workers idle.
func (d *Detector) mergeScores(n int, t0 uint64, base int, scores []float64) {
	for i := range scores {
		scores[i] = 0
	}
	lo := len(d.attr.point)
	for _, sh := range d.shards {
		a := &sh.attr
		for j := range a.point {
			d.attr.add(a.point[j]+int32(base), a.sid[j], a.cell[j], a.meas[j], a.sev[j])
		}
	}
	d.sorter.b = &d.attr
	d.sorter.lo = lo
	sort.Sort(&d.sorter)
	pts := d.attr.point
	for i := lo; i < len(pts); {
		p := pts[i]
		sum := 0.0
		for ; i < len(pts) && pts[i] == p; i++ {
			sum += math.Log1p(-d.attr.sev[i])
		}
		score := -math.Expm1(sum)
		rel := int(p) - base
		scores[rel] = score
		if d.topk != nil {
			d.topk.add(t0+uint64(rel)+1, score)
		}
	}
}

// Explain appends the attribution entries of point i of the most
// recent Process/ProcessBatch call (i is the index within that call;
// 0 for Process) to buf and returns the extended slice,
// ordered by subspace ID. A point that was not flagged — or any i
// when scoring is disabled — appends nothing. The entries are valid
// snapshots (copied, not aliased); passing a reused buf[:0] makes the
// query allocation-free once buf has grown to the working size.
func (d *Detector) Explain(i int, buf []Attribution) []Attribution {
	pts := d.attr.point
	lo := sort.Search(len(pts), func(j int) bool { return pts[j] >= int32(i) })
	for ; lo < len(pts) && pts[lo] == int32(i); lo++ {
		buf = append(buf, Attribution{
			Subspace: d.attr.sid[lo],
			Cell:     d.attr.cell[lo],
			Measures: d.attr.meas[lo],
			Severity: d.attr.sev[lo],
		})
	}
	return buf
}

// TopK appends the current worst offenders — the up-to-Config.TopK
// highest-scoring points of the recent stream, scores decayed to the
// current tick, best first — to buf and returns the extended slice.
// Empty when Config.TopK is 0. Entries below Config.EvictEpsilon are
// dropped at epoch sweeps, so the window tracks the stream the same
// way the summary tables do. Safe to call between ingest calls only;
// passing a reused buf[:0] makes the query allocation-free.
func (d *Detector) TopK(buf []Offender) []Offender {
	if d.topk == nil {
		return buf
	}
	return d.topk.appendTo(d.decay, d.tick, buf)
}
