package sst

import (
	"slices"
	"testing"
)

// TestTemplateLifecycleTable drives the template's promote/demote slot
// machinery through scripted operation sequences, pinning the edge
// cases the evolvers rely on: tombstoned slots are reused (LIFO) before
// fresh IDs are minted, a demoted subspace can be re-promoted into a
// reused slot with its index entries consistent, and proposals that
// duplicate a fixed-group member or a live evolved member fail without
// corrupting counts.
func TestTemplateLifecycleTable(t *testing.T) {
	type op struct {
		promote []uint16 // non-nil: Promote(promote)
		demote  []uint16 // non-nil: Demote(id of this live set)
		wantID  uint32   // expected ID for a successful promote
		wantErr bool
	}
	cases := []struct {
		name        string
		d, maxDim   int
		ops         []op
		wantCount   int // total slots incl. tombstones
		wantEvolved int // live evolved subspaces
	}{
		{
			name: "tombstone_reuse_is_lifo",
			d:    6, maxDim: 1,
			ops: []op{
				{promote: []uint16{0, 1}, wantID: 6},
				{promote: []uint16{1, 2}, wantID: 7},
				{promote: []uint16{2, 3}, wantID: 8},
				{demote: []uint16{0, 1}},             // frees slot 6
				{demote: []uint16{1, 2}},             // frees slot 7
				{promote: []uint16{3, 4}, wantID: 7}, // most recently freed first
				{promote: []uint16{4, 5}, wantID: 6},
				{promote: []uint16{0, 5}, wantID: 9}, // tombstones exhausted → append
			},
			wantCount:   10,
			wantEvolved: 4,
		},
		{
			name: "demote_then_repromote_same_subspace",
			d:    5, maxDim: 1,
			ops: []op{
				{promote: []uint16{1, 3}, wantID: 5},
				{demote: []uint16{1, 3}},
				{promote: []uint16{1, 3}, wantID: 5}, // same set, reused slot
				{demote: []uint16{1, 3}},
				{promote: []uint16{1, 3}, wantID: 5}, // and again
			},
			wantCount:   6,
			wantEvolved: 1,
		},
		{
			name: "fixed_duplicate_rejected_not_double_counted",
			d:    4, maxDim: 2,
			ops: []op{
				{promote: []uint16{2}, wantErr: true},       // duplicates fixed arity-1
				{promote: []uint16{0, 3}, wantErr: true},    // duplicates fixed arity-2
				{promote: []uint16{0, 1, 2}, wantID: 10},    // 4 + C(4,2) = 10 fixed slots
				{promote: []uint16{0, 1, 2}, wantErr: true}, // duplicates live evolved
				{demote: []uint16{0, 1, 2}},
				{promote: []uint16{0, 1, 2}, wantID: 10}, // re-promotable after demote
			},
			wantCount:   11,
			wantEvolved: 1,
		},
		{
			name: "malformed_proposals_rejected",
			d:    5, maxDim: 1,
			ops: []op{
				{promote: []uint16{3, 1}, wantErr: true},      // not strictly increasing
				{promote: []uint16{2, 2}, wantErr: true},      // repeated dimension
				{promote: []uint16{1, 7}, wantErr: true},      // dimension out of range
				{promote: []uint16{0, 1, 2, 3, 4}, wantID: 5}, // max-arity set is fine
				{promote: []uint16{}, wantErr: true},          // empty set
			},
			wantCount:   6,
			wantEvolved: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tmpl, err := NewFixed(tc.d, tc.maxDim)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range tc.ops {
				switch {
				case o.promote != nil:
					id, err := tmpl.Promote(o.promote)
					if o.wantErr {
						if err == nil {
							t.Fatalf("op %d: Promote(%v) succeeded, want error", i, o.promote)
						}
						continue
					}
					if err != nil {
						t.Fatalf("op %d: Promote(%v): %v", i, o.promote, err)
					}
					if id != o.wantID {
						t.Fatalf("op %d: Promote(%v) = ID %d, want %d", i, o.promote, id, o.wantID)
					}
					if got := tmpl.Dims(int(id)); !slices.Equal(got, o.promote) {
						t.Fatalf("op %d: Dims(%d) = %v, want %v", i, id, got, o.promote)
					}
					if got, ok := tmpl.Contains(o.promote); !ok || got != id {
						t.Fatalf("op %d: Contains(%v) = %d,%v, want %d,true", i, o.promote, got, ok, id)
					}
				case o.demote != nil:
					id, ok := tmpl.Contains(o.demote)
					if !ok {
						t.Fatalf("op %d: %v not in template, cannot demote", i, o.demote)
					}
					if err := tmpl.Demote(id); (err != nil) != o.wantErr {
						t.Fatalf("op %d: Demote(%d) error = %v, wantErr %v", i, id, err, o.wantErr)
					}
					if _, still := tmpl.Contains(o.demote); still {
						t.Fatalf("op %d: %v still in index after demotion", i, o.demote)
					}
				}
			}
			if tmpl.Count() != tc.wantCount {
				t.Errorf("Count = %d, want %d", tmpl.Count(), tc.wantCount)
			}
			if tmpl.EvolvedCount() != tc.wantEvolved {
				t.Errorf("EvolvedCount = %d, want %d", tmpl.EvolvedCount(), tc.wantEvolved)
			}
			// The index and the active flags must agree after any script.
			for i := 0; i < tmpl.Count(); i++ {
				id, ok := tmpl.Contains(tmpl.Dims(i))
				if tmpl.Active(i) && (!ok || id != uint32(i)) {
					t.Errorf("live subspace %d not resolvable through Contains", i)
				}
			}
		})
	}
}
