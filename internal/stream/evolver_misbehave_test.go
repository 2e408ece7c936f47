package stream

import (
	"testing"

	"spot/internal/sst"
)

// scriptedEvolver replays a fixed sequence of Evolutions, one per epoch
// boundary, regardless of the sweep statistics — a stand-in for a buggy
// or adversarial Evolver implementation.
type scriptedEvolver struct {
	steps []sst.Evolution
	at    int
}

// Evolve implements sst.Evolver.
func (s *scriptedEvolver) Evolve(*sst.Template, *sst.EpochStats) sst.Evolution {
	if s.at >= len(s.steps) {
		return sst.Evolution{}
	}
	ev := s.steps[s.at]
	s.at++
	return ev
}

// panickyEvolver blows up on a scripted subset of its Evolve calls and
// behaves on the rest.
type panickyEvolver struct {
	calls   int
	panicOn map[int]bool
}

// Evolve implements sst.Evolver.
func (p *panickyEvolver) Evolve(*sst.Template, *sst.EpochStats) sst.Evolution {
	p.calls++
	if p.panicOn[p.calls] {
		panic("evolver bug")
	}
	return sst.Evolution{Promote: [][]uint16{{uint16(p.calls), uint16(p.calls + 1)}}}
}

// TestPanickingEvolverIsContained: an Evolver that panics mid-sweep
// must not take the detector down. The sweep applies no evolution that
// epoch, counts the incident in Stats.EvolverPanics, demotes nothing,
// and later well-behaved epochs evolve normally.
func TestPanickingEvolverIsContained(t *testing.T) {
	const d = 6
	ev := &panickyEvolver{panicOn: map[int]bool{1: true, 3: true}}
	cfg := DefaultConfig(d)
	cfg.MaxSubspaceDim = 1
	cfg.Shards = 2
	cfg.Warmup = 30
	cfg.EpochTicks = 64
	cfg.EvictEpsilon = 1e-6
	cfg.Evolver = ev
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()

	point := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	run := func(epochs int) Stats {
		for i := 0; i < 64*epochs; i++ {
			mustProcess(det, point)
		}
		return det.Stats()
	}

	// Epoch 1 panics: no evolution, one contained incident, fixed
	// group untouched.
	s := run(1)
	if s.Sweeps != 1 || s.EvolverPanics != 1 {
		t.Fatalf("after epoch 1: Sweeps=%d EvolverPanics=%d, want 1/1", s.Sweeps, s.EvolverPanics)
	}
	if s.Promoted != 0 || s.Demoted != 0 || s.EvolvedActive != 0 {
		t.Fatalf("panicking epoch mutated the template: %+v", s)
	}
	if det.Template().FixedCount() != d || !det.Template().Active(0) {
		t.Fatal("fixed group mutated by panicking evolver")
	}

	// Epoch 2 behaves: its promotion lands.
	if s = run(1); s.EvolverPanics != 1 || s.Promoted != 1 || s.EvolvedActive != 1 {
		t.Fatalf("after epoch 2: %+v, want one promotion and no new panic", s)
	}
	// Epoch 3 panics again: counted, nothing demoted, epoch 4 evolves.
	if s = run(2); s.Sweeps != 4 || s.EvolverPanics != 2 || s.Promoted != 2 || s.Demoted != 0 {
		t.Fatalf("after epoch 4: %+v, want 4 sweeps, 2 contained panics, 2 promotions", s)
	}
}

// TestMisbehavingEvolverIsContained: the detector must survive an
// evolver that proposes duplicates of fixed-group members, malformed
// dimension sets, demotions of fixed or dead IDs, and the same set
// twice in one epoch — applying only the legal mutations and counting
// only those in its lifetime stats, with the hot path unaffected.
func TestMisbehavingEvolverIsContained(t *testing.T) {
	const d = 5
	ev := &scriptedEvolver{steps: []sst.Evolution{
		{
			Promote: [][]uint16{
				{2},    // duplicates a fixed arity-1 subspace
				{3, 1}, // not strictly increasing
				{1, 9}, // dimension out of range
				{1, 3}, // legal
				{1, 3}, // duplicate of the same epoch's promotion
			},
			Demote: []uint32{0, 99}, // fixed-group ID; unknown ID
		},
		{
			Demote: []uint32{5, 5}, // legal demote of {1,3}; then double demote
		},
	}}
	cfg := DefaultConfig(d)
	cfg.MaxSubspaceDim = 1
	cfg.Shards = 2
	cfg.Warmup = 30
	cfg.EpochTicks = 64
	cfg.EvictEpsilon = 1e-6
	cfg.Evolver = ev
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()

	point := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	for i := 0; i < 64; i++ {
		mustProcess(det, point)
	}
	s := det.Stats()
	if s.Sweeps != 1 {
		t.Fatalf("Sweeps = %d, want 1", s.Sweeps)
	}
	if s.Promoted != 1 || s.Demoted != 0 {
		t.Fatalf("promoted/demoted = %d/%d after epoch 1, want 1/0 — illegal proposals must not count", s.Promoted, s.Demoted)
	}
	if got := det.Stats().EvolvedActive; got != 1 {
		t.Fatalf("EvolvedActive = %d, want 1", got)
	}
	tmpl := det.Template()
	id, ok := tmpl.Contains([]uint16{1, 3})
	if !ok || id != uint32(d) {
		t.Fatalf("Contains([1 3]) = %d,%v, want %d,true", id, ok, d)
	}
	if tmpl.FixedCount() != d || !tmpl.Active(0) {
		t.Fatal("fixed group mutated by misbehaving evolver")
	}

	// Second epoch: the legal demote lands once, the double demote is
	// dropped, and the detector keeps processing normally.
	for i := 0; i < 64; i++ {
		mustProcess(det, point)
	}
	s = det.Stats()
	if s.Promoted != 1 || s.Demoted != 1 {
		t.Fatalf("promoted/demoted = %d/%d after epoch 2, want 1/1", s.Promoted, s.Demoted)
	}
	if got := s.EvolvedActive; got != 0 {
		t.Fatalf("EvolvedActive = %d after demotion, want 0", got)
	}
	if _, still := tmpl.Contains([]uint16{1, 3}); still {
		t.Fatal("demoted subspace still in the template index")
	}
	// The purge left no ghost cells for the demoted subspace.
	for i := 0; i < 64; i++ {
		mustProcess(det, point)
	}
	if s := det.Stats(); s.Sweeps != 3 {
		t.Fatalf("Sweeps = %d, want 3 — detector stalled after misbehaving evolver", s.Sweeps)
	}
}
