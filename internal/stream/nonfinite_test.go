package stream

import (
	"errors"
	"math"
	"testing"
)

// feedClean ingests n deterministic finite points and returns the
// verdicts, so tests can compare a detector that survived a rejected
// poison point against one that never saw it.
func feedClean(t *testing.T, det *Detector, n int) []bool {
	t.Helper()
	next := uniformStream(41, det.cfg.Dims)
	buf := make([]float64, det.cfg.Dims)
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		next(buf)
		out[i] = mustProcess(det, buf)
	}
	return out
}

// TestNonFiniteRejected: every NaN/±Inf placement returns ErrNonFinite
// from both ingest entry points, with the offending point and
// dimension named in the message.
func TestNonFiniteRejected(t *testing.T) {
	cfg := DefaultConfig(4)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, p := range poisons {
		for dim := 0; dim < cfg.Dims; dim++ {
			pt := []float64{0.1, 0.2, 0.3, 0.4}
			pt[dim] = p
			if _, _, err := det.Process(pt); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("Process(%g at dim %d) = %v, want ErrNonFinite", p, dim, err)
			}
			batch := append(append([]float64{0.5, 0.5, 0.5, 0.5}, pt...), 0.6, 0.6, 0.6, 0.6)
			out := make([]bool, 3)
			if _, err := det.ProcessBatch(batch, out, nil); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("ProcessBatch(%g at dim %d) = %v, want ErrNonFinite", p, dim, err)
			}
		}
	}
}

// TestNonFiniteRejectBeforeMutate: a rejected point must leave no trace.
// Tick and the summary tables stay untouched, and every later verdict is
// identical to a detector that never saw the poison — the reject happens
// before any state mutation, not after a partial one.
func TestNonFiniteRejectBeforeMutate(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.EpochTicks = 128
	dirty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dirty.Close()
	clean, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	// Warm both, then hit only one with poison between clean points.
	warm := uniformStream(43, cfg.Dims)
	buf := make([]float64, cfg.Dims)
	for i := 0; i < 300; i++ {
		warm(buf)
		mustProcess(dirty, buf)
		mustProcess(clean, buf)
	}
	before := dirty.Stats()
	if _, _, err := dirty.Process([]float64{0.1, math.NaN(), 0.3, 0.4}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("poison point not rejected: %v", err)
	}
	out := make([]bool, 2)
	if _, err := dirty.ProcessBatch([]float64{
		0.1, 0.2, 0.3, 0.4,
		math.Inf(-1), 0.2, 0.3, 0.4,
	}, out, nil); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("poison batch not rejected: %v", err)
	}
	after := dirty.Stats()
	if after.Tick != before.Tick || after.BaseCells != before.BaseCells || after.SummaryEntries != before.SummaryEntries {
		t.Fatalf("rejected input mutated state: before %+v after %+v", before, after)
	}
	dv := feedClean(t, dirty, 600)
	cv := feedClean(t, clean, 600)
	for i := range dv {
		if dv[i] != cv[i] {
			t.Fatalf("verdict %d diverged after rejected poison: dirty=%v clean=%v", i, dv[i], cv[i])
		}
	}
}

// TestNonFinitePanicsOnPanicAPI: no ingest entry point panics on
// non-finite input — Process and ProcessBatch, unscored and scored,
// all return the typed ErrNonFinite, so callers can errors.Is it, and
// the tick stays put.
func TestNonFinitePanicsOnPanicAPI(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Scoring = true
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	flat := []float64{1, 2, 3, math.Inf(1)}
	calls := []struct {
		name string
		call func() error
	}{
		{"Process", func() error { _, _, err := det.Process([]float64{math.NaN(), 1}); return err }},
		{"ProcessBatch", func() error { _, err := det.ProcessBatch(flat, make([]bool, 2), nil); return err }},
		{"ProcessBatch scored", func() error {
			_, err := det.ProcessBatch(flat, make([]bool, 2), make([]float64, 2))
			return err
		}},
	}
	for _, c := range calls {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked on non-finite input: %v", c.name, r)
				}
			}()
			if err := c.call(); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%s = %v, want ErrNonFinite", c.name, err)
			}
		}()
	}
	if det.Tick() != 0 {
		t.Fatalf("rejected calls moved the tick to %d", det.Tick())
	}
}

// TestWrongLengthPointRejected: a single point of other than Dims
// values — short or long — returns ErrBatchLength from Process before
// any state is touched, without panicking: the tick
// stays put and every later verdict matches a twin detector that never
// saw the malformed calls.
func TestWrongLengthPointRejected(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.EpochTicks = 128
	dirty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dirty.Close()
	clean, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	warm := uniformStream(47, cfg.Dims)
	buf := make([]float64, cfg.Dims)
	for i := 0; i < 300; i++ {
		warm(buf)
		mustProcess(dirty, buf)
		mustProcess(clean, buf)
	}
	tick := dirty.Tick()
	for _, pt := range [][]float64{
		{0.1, 0.2},
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
		{},
	} {
		if _, _, err := dirty.Process(pt); !errors.Is(err, ErrBatchLength) {
			t.Fatalf("Process(%d values) = %v, want ErrBatchLength", len(pt), err)
		}
		if got := dirty.Tick(); got != tick {
			t.Fatalf("rejected %d-value point moved the tick: %d -> %d", len(pt), tick, got)
		}
	}
	dv := feedClean(t, dirty, 600)
	cv := feedClean(t, clean, 600)
	for i := range dv {
		if dv[i] != cv[i] {
			t.Fatalf("verdict %d diverged after rejected points: dirty=%v clean=%v", i, dv[i], cv[i])
		}
	}
}
