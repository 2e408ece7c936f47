package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a percentile's rank for
// the sample to support it: p90 needs at least 100 samples, p99 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of values
// and whether the sample supports it, i.e. at least minBeyond samples
// rank above it. values is not modified.
func percentile(values []float64, p float64) (float64, bool) {
	n := len(values)
	if n == 0 {
		return 0, false
	}
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	// The epsilon keeps p·n that is integral in exact arithmetic from
	// rounding up a rank (0.99·1000 is 990.0000000000001 in float64).
	r := int(math.Ceil(p*float64(n) - 1e-9))
	r = max(1, min(r, n))
	return sorted[r-1], n-r >= minBeyond
}

// median is the nearest-rank median; 0 for an empty sample.
func median(values []float64) float64 {
	v, _ := percentile(values, 0.5)
	return v
}

// quantiles lists a latency sample's median, upper quantiles and
// maximum, each with whether the sample supports it.
func quantiles(values []float64) map[string]any {
	out := map[string]any{"n": len(values), "max": slices.Max(values)}
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.98, 0.99} {
		v, ok := percentile(values, p)
		out[fmt.Sprintf("p%g", 100*p)] = map[string]any{"value": v, "supported": ok}
	}
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// crossesEpoch reports whether a batch of n points ingested after tick
// t0 — covering ticks t0+1 … t0+n — reaches a multiple of epoch, so the
// detector ran an epoch sweep inside the call.
func crossesEpoch(t0 uint64, n int, epoch uint64) bool {
	return (t0+uint64(n))/epoch > t0/epoch
}

// epochExtra is the median latency of epoch-crossing batches minus the
// median of all other batches: the per-batch cost of the sweep and of
// what runs with it (evolution, EVT refits). ok is false when either
// class is empty.
func epochExtra(latencies []float64, crossing []bool) (extra float64, ok bool) {
	var cross, other []float64
	for i, l := range latencies {
		if crossing[i] {
			cross = append(cross, l)
		} else {
			other = append(other, l)
		}
	}
	if len(cross) == 0 || len(other) == 0 {
		return 0, false
	}
	return median(cross) - median(other), true
}

// confusion counts verdicts against planted-outlier labels.
type confusion struct {
	tp, fp, fn int
}

// add folds one batch of verdicts and their labels into c.
func (c *confusion) add(flags, labels []bool) {
	for i, f := range flags {
		switch {
		case f && labels[i]:
			c.tp++
		case f:
			c.fp++
		case labels[i]:
			c.fn++
		}
	}
}

// precision is the share of flagged points that were planted outliers;
// 0 when nothing was flagged.
func (c confusion) precision() float64 {
	if c.tp+c.fp == 0 {
		return 0
	}
	return float64(c.tp) / float64(c.tp+c.fp)
}

// recall is the share of planted outliers that were flagged; 0 when
// nothing was planted.
func (c confusion) recall() float64 {
	if c.tp+c.fn == 0 {
		return 0
	}
	return float64(c.tp) / float64(c.tp+c.fn)
}

// span is one timed call across a layer boundary. Times are offsets
// from the tracer's start; Parent is 0 for a root span and Req is -1
// when the span belongs to no request.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so a parent can be named before it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved ID; id 0 reserves one.
func (t *tracer) add(id, parent int64, name string, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children
// (concurrent requests under one phase span) are counted once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
			continue
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// spanSummary aggregates spans by name: how many, their total
// duration and their total self time.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize groups spans by name with their self times.
func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	out := map[string]spanSummary{}
	for _, s := range spans {
		a := out[s.Name]
		a.Count++
		a.TotalMS += ms(s.End - s.Start)
		a.SelfMS += ms(self[s.ID])
		out[s.Name] = a
	}
	return out
}
