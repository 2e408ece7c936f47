package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so percentile must sort
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 1000, p: 0.99, want: 990, ok: true}, // exactly 10 beyond
		{n: 999, p: 0.99, want: 990, ok: false}, // 9 beyond
		{n: 100, p: 0.90, want: 90, ok: true},
		{n: 99, p: 0.90, want: 90, ok: false},
		{n: 101, p: 0.5, want: 51, ok: true},
		{n: 4, p: 0.5, want: 2, ok: false},
		{n: 1, p: 0.99, want: 1, ok: false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample must not support any percentile")
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	v := []float64{3, 1, 2}
	percentile(v, 0.5)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Fatalf("input reordered: %v", v)
	}
	if m := median(v); m != 2 {
		t.Fatalf("median = %g, want 2", m)
	}
}

func TestCrossesEpoch(t *testing.T) {
	cases := []struct {
		t0    uint64
		n     int
		epoch uint64
		want  bool
	}{
		{0, 512, 1024, false},    // ticks 1..512
		{512, 512, 1024, true},   // ticks 513..1024 end on the boundary
		{1024, 512, 1024, false}, // sweep at 1024 ran in the previous call
		{1000, 64, 1024, true},   // boundary inside the batch
		{960, 64, 1024, true},    // ticks 961..1024
		{1024, 64, 1024, false},  // ticks 1025..1088
		{0, 2048, 1024, true},    // several boundaries
	}
	for _, c := range cases {
		if got := crossesEpoch(c.t0, c.n, c.epoch); got != c.want {
			t.Errorf("crossesEpoch(%d, %d, %d) = %v, want %v", c.t0, c.n, c.epoch, got, c.want)
		}
	}
}

func TestEpochExtra(t *testing.T) {
	lat := []float64{10, 30, 11, 31, 12, 29}
	cross := []bool{false, true, false, true, false, true}
	extra, ok := epochExtra(lat, cross)
	if !ok || extra != 30-11 {
		t.Fatalf("epochExtra = %g, %v; want 19, true", extra, ok)
	}
	if _, ok := epochExtra(lat, []bool{true, true, true, true, true, true}); ok {
		t.Fatal("all-crossing sample must report no extra")
	}
}

func TestConfusion(t *testing.T) {
	var c confusion
	c.add([]bool{true, true, false, false, true}, []bool{true, false, true, false, true})
	if c.tp != 2 || c.fp != 1 || c.fn != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if p := c.precision(); math.Abs(p-2.0/3) > 1e-12 {
		t.Errorf("precision = %g, want 2/3", p)
	}
	if r := c.recall(); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("recall = %g, want 2/3", r)
	}
	var empty confusion
	if empty.precision() != 0 || empty.recall() != 0 {
		t.Error("empty confusion must report zeros")
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "phase", Start: at(0), End: at(100)},
		// Two overlapping children cover 10..40, a third 60..70, and a
		// fourth spills past the parent's end and is clipped at 100.
		{ID: 2, Parent: 1, Name: "req", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "req", Start: at(20), End: at(40)},
		{ID: 4, Parent: 1, Name: "req", Start: at(60), End: at(70)},
		{ID: 5, Parent: 1, Name: "req", Start: at(95), End: at(120)},
		{ID: 6, Parent: 4, Name: "call", Start: at(62), End: at(68)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: at(55), 2: at(20), 3: at(20), 4: at(4), 5: at(25), 6: at(6)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if s := sum["req"]; s.Count != 4 || s.TotalMS != 75 || s.SelfMS != 69 {
		t.Errorf("summary[req] = %+v", s)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add(0, 0, "x", -1, time.Now(), time.Now()); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	tr = newTracer()
	p := tr.id()
	now := time.Now()
	tr.add(0, p, "child", 7, now, now.Add(time.Millisecond))
	tr.add(p, 0, "parent", -1, now, now.Add(2*time.Millisecond))
	if len(tr.spans) != 2 || tr.spans[0].Parent != p || tr.spans[1].ID != p {
		t.Fatalf("spans = %+v", tr.spans)
	}
}
