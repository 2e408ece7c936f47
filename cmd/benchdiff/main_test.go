package main

import (
	"os"
	"path/filepath"
	"testing"
)

// writeReport drops a minimal artifact to disk for loadReport.
func writeReport(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oldReport = `{
  "git_sha": "aaaa", "num_cpu": 4,
  "benchmarks": [
    {"name": "d=20/shards=1", "points_per_sec": 20000},
    {"name": "d=50/shards=1", "points_per_sec": 10000},
    {"name": "gone-scenario", "points_per_sec": 5000}
  ]
}`

// TestDiffFlagsRegressions: a >threshold drop is a regression, a small
// wobble and an improvement are not, and unmatched scenarios are
// skipped rather than compared against zero.
func TestDiffFlagsRegressions(t *testing.T) {
	newReport := `{
  "git_sha": "bbbb", "num_cpu": 4,
  "benchmarks": [
    {"name": "d=20/shards=1", "points_per_sec": 26000},
    {"name": "d=50/shards=1", "points_per_sec": 8500},
    {"name": "brand-new", "points_per_sec": 1}
  ]
}`
	oldR, err := loadReport(writeReport(t, "old.json", oldReport))
	if err != nil {
		t.Fatal(err)
	}
	newR, err := loadReport(writeReport(t, "new.json", newReport))
	if err != nil {
		t.Fatal(err)
	}
	deltas, regressions, missing := diff(oldR, newR, 0.10, 0.05)
	if len(deltas) != 2 {
		t.Fatalf("compared %d scenarios, want 2 (shared only): %+v", len(deltas), deltas)
	}
	if regressions != 1 {
		t.Fatalf("found %d regressions, want 1", regressions)
	}
	if len(missing) != 1 || missing[0] != "gone-scenario" {
		t.Fatalf("missing = %v, want the baseline-only scenario reported", missing)
	}
	if deltas[0].name != "d=20/shards=1" || deltas[0].regressed {
		t.Fatalf("improvement misclassified: %+v", deltas[0])
	}
	if deltas[1].name != "d=50/shards=1" || !deltas[1].regressed {
		t.Fatalf("15%% drop not flagged at threshold 10%%: %+v", deltas[1])
	}
	if deltas[1].pct > -14 || deltas[1].pct < -16 {
		t.Fatalf("delta percent = %v, want ≈ -15", deltas[1].pct)
	}
}

// TestDiffThresholdBoundary: a drop exactly at the threshold is not a
// regression — the gate fires strictly beyond it.
func TestDiffThresholdBoundary(t *testing.T) {
	newReport := `{
  "git_sha": "bbbb", "num_cpu": 4,
  "benchmarks": [
    {"name": "d=20/shards=1", "points_per_sec": 18000},
    {"name": "d=50/shards=1", "points_per_sec": 8999}
  ]
}`
	oldR, err := loadReport(writeReport(t, "old.json", oldReport))
	if err != nil {
		t.Fatal(err)
	}
	newR, err := loadReport(writeReport(t, "new.json", newReport))
	if err != nil {
		t.Fatal(err)
	}
	_, regressions, _ := diff(oldR, newR, 0.10, 0.05)
	if regressions != 1 {
		t.Fatalf("found %d regressions, want 1 (only the 10.01%% drop)", regressions)
	}
}

// TestDiffCheckpoint: encode/decode time growing beyond the threshold
// regresses, shrinking or wobbling does not, a pre-checkpoint baseline
// is not compared, and a vanished candidate row fails the gate.
func TestDiffCheckpoint(t *testing.T) {
	base := &ckptRow{SnapshotBytes: 1 << 20, EncodeNsPerOp: 1e6, DecodeNsPerOp: 2e6}
	if n, _ := diffCheckpoint(nil, base, 0.10); n != 0 {
		t.Fatalf("pre-checkpoint baseline regressed: %d", n)
	}
	if n, _ := diffCheckpoint(base, nil, 0.10); n != 1 {
		t.Fatalf("missing candidate row not flagged: %d", n)
	}
	ok := &ckptRow{SnapshotBytes: 2 << 20, EncodeNsPerOp: 1.05e6, DecodeNsPerOp: 1.5e6}
	if n, _ := diffCheckpoint(base, ok, 0.10); n != 0 {
		t.Fatalf("wobble+improvement flagged as regression: %d", n)
	}
	slow := &ckptRow{SnapshotBytes: 1 << 20, EncodeNsPerOp: 1.2e6, DecodeNsPerOp: 2.5e6}
	if n, _ := diffCheckpoint(base, slow, 0.10); n != 2 {
		t.Fatalf("both slowed legs should regress, got %d", n)
	}
}

// TestDiffQualityRegression: an AUC or precision@K fall beyond the
// quality-drop gate regresses even when throughput improved, is marked
// as a QUALITY regression (the subset -block-quality keeps blocking
// under -warn), and the gate width is the flag's to set.
func TestDiffQualityRegression(t *testing.T) {
	oldQ := `{
  "git_sha": "aaaa", "num_cpu": 4,
  "benchmarks": [
    {"name": "d=20/shards=1", "points_per_sec": 20000, "auc": 0.95, "precision_at_k": 0.90},
    {"name": "d=50/shards=1", "points_per_sec": 10000, "auc": 0.90, "precision_at_k": 0.80}
  ]
}`
	newQ := `{
  "git_sha": "bbbb", "num_cpu": 4,
  "benchmarks": [
    {"name": "d=20/shards=1", "points_per_sec": 30000, "auc": 0.80, "precision_at_k": 0.90},
    {"name": "d=50/shards=1", "points_per_sec": 11000, "auc": 0.88, "precision_at_k": 0.78}
  ]
}`
	oldR, err := loadReport(writeReport(t, "old.json", oldQ))
	if err != nil {
		t.Fatal(err)
	}
	newR, err := loadReport(writeReport(t, "new.json", newQ))
	if err != nil {
		t.Fatal(err)
	}
	deltas, regressions, _ := diff(oldR, newR, 0.10, 0.05)
	if regressions != 1 {
		t.Fatalf("found %d regressions, want 1 (the AUC fall)", regressions)
	}
	if !deltas[0].regressed || !deltas[0].qualityRegressed {
		t.Fatalf("AUC fall with faster throughput not marked as quality regression: %+v", deltas[0])
	}
	if deltas[1].regressed {
		t.Fatalf("0.02 wobble flagged at quality-drop 0.05: %+v", deltas[1])
	}
	// A wider gate admits the fall.
	_, regressions, _ = diff(oldR, newR, 0.10, 0.20)
	if regressions != 0 {
		t.Fatalf("quality-drop 0.20 still flagged %d regressions", regressions)
	}
}

// TestCheckAutoThreshold: out-of-band auto legs are quality
// regressions, the control leg (risk 0) is never gated, a candidate
// without the section fails as missing only when the baseline had one.
func TestCheckAutoThreshold(t *testing.T) {
	good := &autoSection{Legs: []autoLeg{
		{Name: "auto/q=1e-3", Risk: 1e-3, InBandSteady: true, InBandPostDrift: true},
		{Name: "fixed", Risk: 0},
	}}
	if n, _, miss := checkAutoThreshold(nil, good); n != 0 || miss {
		t.Fatalf("in-band legs gated: %d regressions, missing=%v", n, miss)
	}
	bad := &autoSection{Legs: []autoLeg{
		{Name: "auto/q=1e-3", Risk: 1e-3, InBandSteady: true, InBandPostDrift: false},
		{Name: "auto/q=1e-4", Risk: 1e-4, InBandSteady: false, InBandPostDrift: false},
		{Name: "fixed", Risk: 0},
	}}
	if n, _, _ := checkAutoThreshold(good, bad); n != 2 {
		t.Fatalf("out-of-band legs: %d regressions, want 2", n)
	}
	if n, _, miss := checkAutoThreshold(good, nil); n != 0 || !miss {
		t.Fatalf("vanished section: %d regressions, missing=%v, want missing", n, miss)
	}
	if n, _, miss := checkAutoThreshold(nil, nil); n != 0 || miss {
		t.Fatalf("pre-auto baseline and candidate: %d regressions, missing=%v", n, miss)
	}
}

// TestGateCountsOverOneSet: the summary's regressions and compared
// counts range over the same scenarios — grid rows, checkpoint legs and
// gated auto-threshold legs — so regressed checkpoint and auto legs can
// never push the count past the number of scenarios compared.
func TestGateCountsOverOneSet(t *testing.T) {
	oldR := &benchReport{
		Benchmarks: []benchRow{
			{Name: "d=20/shards=1", PointsPerSec: 20000},
			{Name: "d=50/shards=1", PointsPerSec: 10000},
		},
		Checkpoint:    &ckptRow{EncodeNsPerOp: 1e6, DecodeNsPerOp: 2e6},
		AutoThreshold: &autoSection{},
	}
	newR := &benchReport{
		Benchmarks: []benchRow{
			{Name: "d=20/shards=1", PointsPerSec: 20000},
			{Name: "d=50/shards=1", PointsPerSec: 5000},
		},
		Checkpoint: &ckptRow{EncodeNsPerOp: 2e6, DecodeNsPerOp: 4e6},
		AutoThreshold: &autoSection{Legs: []autoLeg{
			{Name: "auto/q=1e-3", Risk: 1e-3},
			{Name: "auto/q=1e-4", Risk: 1e-4, InBandSteady: true, InBandPostDrift: true},
			{Name: "fixed", Risk: 0},
		}},
	}
	g := gate(oldR, newR, 0.10, 0.05)
	// One grid row, both checkpoint legs and one auto leg regressed, out
	// of two grid rows, two checkpoint legs and two gated auto legs.
	if g.regressions != 4 || g.compared != 6 {
		t.Fatalf("gate tallied %d of %d regressed, want 4 of 6", g.regressions, g.compared)
	}
	if g.qualityRegressions != 1 {
		t.Fatalf("quality regressions = %d, want 1 (the out-of-band auto leg)", g.qualityRegressions)
	}
	if len(g.missing) != 0 {
		t.Fatalf("missing = %v, want none", g.missing)
	}
}

// TestLoadReportRejectsEmpty: an artifact without benchmarks is a
// usage error, not a silent all-green diff.
func TestLoadReportRejectsEmpty(t *testing.T) {
	if _, err := loadReport(writeReport(t, "empty.json", `{"git_sha":"x"}`)); err == nil {
		t.Fatal("empty report loaded without error")
	}
	if _, err := loadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded without error")
	}
}
