package sst

import (
	"slices"
	"testing"
)

// mogaStats builds the synthetic epoch snapshot shared by the MOGA
// tests: two dense full-space clusters (interval 1 everywhere and
// interval 6 everywhere over 6 dimensions), one sparse base cell that
// borrows dimension 3 from the other cluster (unsupervised signal), and
// labeled examples that borrow dimension 5 (supervised signal). A pair
// containing dimension 5 projects every example into an empty cell; no
// other pair does.
func mogaStats(tmpl *Template, tick uint64) *EpochStats {
	return &EpochStats{
		Tick:      tick,
		BaseTotal: 101,
		BaseCells: []BaseCell{
			{Coords: []uint8{1, 1, 1, 1, 1, 1}, Dc: 50},
			{Coords: []uint8{6, 6, 6, 6, 6, 6}, Dc: 50},
			{Coords: []uint8{1, 1, 1, 6, 1, 1}, Dc: 1},
		},
		Subspaces: make([]SubspaceStats, tmpl.Count()),
		Examples: []Example{
			{Coords: []uint8{1, 1, 1, 1, 1, 6}, Tick: tick - 1},
			{Coords: []uint8{6, 6, 6, 6, 6, 1}, Tick: tick - 1},
		},
	}
}

func mogaTestConfig() MOGAConfig {
	return MOGAConfig{
		MinArity:    2,
		MaxArity:    2,
		PopSize:     16,
		Generations: 4,
		TopS:        1,
		SparseRatio: 0.1,
		MinCoverage: 0.9,
		MinSparsity: 0.5,
		Seed:        1,
	}
}

// TestMOGAPromotesExampleSubspace: the genetic search must find a pair
// containing the dimension the labeled examples deviate in — and must
// NOT pick the pair the unsupervised sparse structure points at
// (dimension 3), because no example lands in a sparse cell there.
func TestMOGAPromotesExampleSubspace(t *testing.T) {
	tmpl, err := NewFixed(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMOGA(mogaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := m.Evolve(tmpl, mogaStats(tmpl, 100))
	if len(out.Demote) != 0 {
		t.Fatalf("nothing to demote, got %v", out.Demote)
	}
	if len(out.Promote) != 1 {
		t.Fatalf("promotions = %v, want exactly 1 (TopS)", out.Promote)
	}
	p := out.Promote[0]
	if len(p) != 2 || !slices.Contains(p, uint16(5)) {
		t.Fatalf("promoted %v, want a pair containing the examples' deviating dimension 5", p)
	}
	if slices.Contains(p, uint16(3)) {
		t.Fatalf("promoted %v pairs the unsupervised-only dimension 3 — supervision ignored", p)
	}
	if !m.Owns(p) {
		t.Error("evolver does not own its own promotion")
	}
}

// TestMOGADemotesStaleMember: once the swept statistics show an owned
// subspace without sparse structure, it is demoted and ownership
// released — while a foreign evolved subspace in the same state is left
// alone.
func TestMOGADemotesStaleMember(t *testing.T) {
	tmpl, err := NewFixed(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMOGA(mogaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := m.Evolve(tmpl, mogaStats(tmpl, 100))
	if len(out.Promote) != 1 {
		t.Fatalf("promotions = %v, want 1", out.Promote)
	}
	own, err := tmpl.Promote(out.Promote[0])
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := tmpl.Promote([]uint16{0, 1})
	if err != nil {
		t.Fatal(err)
	}

	// Next epoch: no examples (supervision went quiet), both evolved
	// subspaces swept with zero sparse cells.
	stats := &EpochStats{
		Tick:      200,
		BaseTotal: 100,
		BaseCells: []BaseCell{
			{Coords: []uint8{1, 1, 1, 1, 1, 1}, Dc: 50},
			{Coords: []uint8{6, 6, 6, 6, 6, 6}, Dc: 50},
		},
		Subspaces: make([]SubspaceStats, tmpl.Count()),
	}
	stats.Subspaces[own] = SubspaceStats{Populated: 2, TotalDc: 100, Sparse: 0}
	stats.Subspaces[foreign] = SubspaceStats{Populated: 2, TotalDc: 100, Sparse: 0}
	out2 := m.Evolve(tmpl, stats)
	if len(out2.Demote) != 1 || out2.Demote[0] != own {
		t.Fatalf("demotions = %v, want exactly [%d] (own member only)", out2.Demote, own)
	}
	if len(out2.Promote) != 0 {
		t.Fatalf("promoted %v with no examples to learn from", out2.Promote)
	}
	if m.Owns(tmpl.Dims(int(own))) {
		t.Error("ownership not released on demotion")
	}
}

// TestMOGADeterminism: two evolvers with the same seed fed the same
// snapshots produce identical verdicts — the property shard-count
// invariance rests on.
func TestMOGADeterminism(t *testing.T) {
	mk := func() ([][]uint16, []uint32) {
		tmpl, err := NewFixed(8, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mogaTestConfig()
		cfg.MaxArity = 3
		m, err := NewMOGA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var promos [][]uint16
		var demos []uint32
		for epoch := 0; epoch < 4; epoch++ {
			stats := &EpochStats{
				Tick:      uint64(100 * (epoch + 1)),
				BaseTotal: 101,
				BaseCells: []BaseCell{
					{Coords: []uint8{1, 1, 1, 1, 1, 1, 1, 1}, Dc: 50},
					{Coords: []uint8{6, 6, 6, 6, 6, 6, 6, 6}, Dc: 50},
					{Coords: []uint8{1, 1, 6, 1, 1, 1, 1, 6}, Dc: 1},
				},
				Subspaces: make([]SubspaceStats, tmpl.Count()),
				Examples: []Example{
					{Coords: []uint8{1, 1, 1, 1, 1, 1, 6, 1}, Tick: 50},
				},
			}
			out := m.Evolve(tmpl, stats)
			for _, p := range out.Promote {
				if _, err := tmpl.Promote(p); err == nil {
					promos = append(promos, append([]uint16(nil), p...))
				}
			}
			demos = append(demos, out.Demote...)
		}
		return promos, demos
	}
	p1, d1 := mk()
	p2, d2 := mk()
	if len(p1) != len(p2) || len(d1) != len(d2) {
		t.Fatalf("verdict counts diverged: %v/%v vs %v/%v", p1, d1, p2, d2)
	}
	for i := range p1 {
		if !slices.Equal(p1[i], p2[i]) {
			t.Fatalf("promotion %d diverged: %v vs %v", i, p1[i], p2[i])
		}
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("demotion %d diverged: %d vs %d", i, d1[i], d2[i])
		}
	}
}

// TestMOGANoExamplesNoSearch: without labeled examples the supervised
// group must stay empty regardless of how sparse the stream looks.
func TestMOGANoExamplesNoSearch(t *testing.T) {
	tmpl, err := NewFixed(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMOGA(mogaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	stats := mogaStats(tmpl, 100)
	stats.Examples = nil
	out := m.Evolve(tmpl, stats)
	if len(out.Promote) != 0 || len(out.Demote) != 0 {
		t.Fatalf("unsupervised snapshot mutated the supervised group: %+v", out)
	}
}

// TestMOGAConfigValidation rejects out-of-range knobs.
func TestMOGAConfigValidation(t *testing.T) {
	bad := []MOGAConfig{
		{MinArity: 1, MaxArity: 2, TopS: 1}, // arity-1 is the fixed group's job
		{MinArity: 3, MaxArity: 2, TopS: 1}, // min > max
		{MinArity: 2, MaxArity: 9, TopS: 1}, // beyond key capacity
		{TopS: 0},                           // no budget
		{TopS: 1, PopSize: 2},               // population too small to breed
		{TopS: 1, Generations: -1},          // negative generations
		{TopS: 1, SparseRatio: 1.5},         // ratio out of (0,1)
		{TopS: 1, CrossoverP: 1.5},          // not a probability
		{TopS: 1, MutationP: -0.5},          // not a probability
		{TopS: 1, MinCoverage: 2},           // floor out of [0,1]
		{TopS: 1, MinSparsity: -1},          // floor out of [0,1]
	}
	for i, cfg := range bad {
		if _, err := NewMOGA(cfg); err == nil {
			t.Errorf("config %d accepted, want error: %+v", i, cfg)
		}
	}
	if _, err := NewMOGA(MOGAConfig{TopS: 2}); err != nil {
		t.Errorf("all-defaults config rejected: %v", err)
	}
}

// TestMultiCoexistingGroups drives the unsupervised TopSparse and the
// supervised MOGA through one Multi evolver: each promotes its own kind
// of subspace, owns it exclusively, and neither demotes the other's.
func TestMultiCoexistingGroups(t *testing.T) {
	tmpl, err := NewFixed(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTopSparse(TopSparseConfig{Arity: 2, TopS: 1, Explore: 64, SparseRatio: 0.1, MinScore: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewMOGA(mogaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	multi := Multi{ts, mg}

	out := multi.Evolve(tmpl, mogaStats(tmpl, 100))
	if len(out.Promote) != 2 {
		t.Fatalf("promotions = %v, want one per group", out.Promote)
	}
	tsSet, mgSet := out.Promote[0], out.Promote[1]
	if !slices.Contains(tsSet, uint16(3)) {
		t.Fatalf("TopSparse promoted %v, want a pair with the globally sparse dimension 3", tsSet)
	}
	if !slices.Contains(mgSet, uint16(5)) {
		t.Fatalf("MOGA promoted %v, want a pair with the examples' dimension 5", mgSet)
	}
	tsID, err := tmpl.Promote(tsSet)
	if err != nil {
		t.Fatal(err)
	}
	mgID, err := tmpl.Promote(mgSet)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Owns(tsSet) || ts.Owns(mgSet) || !mg.Owns(mgSet) || mg.Owns(tsSet) {
		t.Fatal("ownership crossed between the groups")
	}

	// Both members go stale; each group demotes exactly its own.
	stats := mogaStats(tmpl, 200)
	stats.Subspaces[tsID] = SubspaceStats{Populated: 2, TotalDc: 100, Sparse: 0}
	stats.Subspaces[mgID] = SubspaceStats{Populated: 2, TotalDc: 100, Sparse: 0}
	out2 := multi.Evolve(tmpl, stats)
	if len(out2.Demote) != 2 {
		t.Fatalf("demotions = %v, want both stale members (one per owner)", out2.Demote)
	}
	seen := map[uint32]bool{out2.Demote[0]: true, out2.Demote[1]: true}
	if !seen[tsID] || !seen[mgID] {
		t.Fatalf("demotions = %v, want {%d, %d}", out2.Demote, tsID, mgID)
	}
}

// TestMOGALowDimensionalSpace: a data space smaller than the configured
// MaxArity must clamp the search instead of hanging — the genome can
// never hold more dimensions than exist. (Regression: mutate/repair
// once looped forever hunting a clear bit in a full bitset.)
func TestMOGALowDimensionalSpace(t *testing.T) {
	tmpl, err := NewFixed(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMOGA(MOGAConfig{TopS: 1, Seed: 3}) // defaults: MinArity 2, MaxArity 3 > d
	if err != nil {
		t.Fatal(err)
	}
	stats := &EpochStats{
		Tick:      100,
		BaseTotal: 100,
		BaseCells: []BaseCell{
			{Coords: []uint8{1, 1}, Dc: 50},
			{Coords: []uint8{6, 6}, Dc: 50},
		},
		Subspaces: make([]SubspaceStats, tmpl.Count()),
		Examples:  []Example{{Coords: []uint8{1, 6}, Tick: 99}},
	}
	out := m.Evolve(tmpl, stats) // must terminate
	if len(out.Promote) != 1 || !slices.Equal(out.Promote[0], []uint16{0, 1}) {
		t.Fatalf("promotions = %v, want the only possible pair [0 1]", out.Promote)
	}
}

// TestMultiDuplicateProposalOwnership: when two groups propose the same
// dimension set in one epoch, the earlier group wins — the merged
// verdict carries the set once and the later group's ownership claim is
// revoked, preserving the one-owner invariant.
func TestMultiDuplicateProposalOwnership(t *testing.T) {
	tmpl, err := NewFixed(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Identical seeds and configs → identical proposals.
	m1, err := NewMOGA(mogaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMOGA(mogaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := Multi{m1, m2}.Evolve(tmpl, mogaStats(tmpl, 100))
	if len(out.Promote) != 1 {
		t.Fatalf("promotions = %v, want the duplicate collapsed to 1", out.Promote)
	}
	p := out.Promote[0]
	if !m1.Owns(p) {
		t.Error("earlier evolver lost ownership of its promotion")
	}
	if m2.Owns(p) {
		t.Error("later evolver kept a false ownership claim over the dropped duplicate")
	}
}
