// Command benchdiff compares two BENCH_core.json artifacts — the
// tracked performance baseline against a fresh run — and prints the
// per-scenario points/sec delta plus the duplication statistics behind
// the coalesced batch path. It exits non-zero when any scenario shared
// by both reports regresses by more than the threshold, so `make
// bench-compare` (and CI, warn-only there: shared runners are noisy and
// often single-vCPU, which the printed num_cpu makes visible) can gate
// perf work on the artifact instead of on eyeballs.
//
// Quality metrics — ranking AUC / precision@K and the auto-threshold
// calibration band — are machine-independent, so -block-quality makes
// their regressions exit non-zero even under -warn: a noisy runner
// excuses throughput wobble, never a worse ranking or a detector that
// stopped honoring its requested flag rate.
//
// Usage: benchdiff [-threshold 0.10] [-quality-drop 0.05] [-warn] [-block-quality] OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// benchRow is the slice of a spotbench throughput scenario benchdiff
// cares about.
type benchRow struct {
	Name                  string  `json:"name"`
	PointsPerSec          float64 `json:"points_per_sec"`
	DistinctCellsPerBatch float64 `json:"distinct_cells_per_batch"`
	CellDupRatio          float64 `json:"cell_dup_ratio"`
	AUC                   float64 `json:"auc"`
	PrecisionAtK          float64 `json:"precision_at_k"`
}

// ckptRow is the slice of the checkpoint section benchdiff tracks: the
// full-state snapshot size and the encode/decode cost of the
// crash-safe checkpoint path.
type ckptRow struct {
	SnapshotBytes int64   `json:"snapshot_bytes"`
	EncodeNsPerOp float64 `json:"encode_ns_per_op"`
	DecodeNsPerOp float64 `json:"decode_ns_per_op"`
}

// autoLeg is the slice of one auto-threshold scenario leg benchdiff
// gates on: the in-band booleans are computed by spotbench against the
// leg's own requested risk, so the gate needs no baseline to compare
// against — a calibrated detector that stopped holding its rate is
// broken in absolute terms.
type autoLeg struct {
	Name            string  `json:"name"`
	Risk            float64 `json:"risk"`
	InBandSteady    bool    `json:"in_band_steady"`
	InBandPostDrift bool    `json:"in_band_post_drift"`
}

// autoSection is the auto_threshold block of the artifact.
type autoSection struct {
	Legs []autoLeg `json:"legs"`
}

// benchReport is the slice of the BENCH_core.json schema benchdiff
// reads; unknown fields are ignored so old and new artifact versions
// stay comparable.
type benchReport struct {
	GitSHA        string       `json:"git_sha"`
	NumCPU        int          `json:"num_cpu"`
	Benchmarks    []benchRow   `json:"benchmarks"`
	Checkpoint    *ckptRow     `json:"checkpoint"`
	AutoThreshold *autoSection `json:"auto_threshold"`
}

// delta is one compared scenario; distinct/dup carry the candidate's
// duplication statistics when its artifact records them, oldAUC/newAUC
// and oldPrec/newPrec the ranking-quality pair when the baseline has
// one (pre-scoring artifacts and uniform rows record zeros and are not
// compared). qualityRegressed marks the machine-independent subset of
// regressed — a ranking-quality fall rather than a throughput drop —
// which -block-quality keeps blocking even under -warn.
type delta struct {
	name             string
	oldPts           float64
	newPts           float64
	pct              float64 // (new-old)/old, in percent
	distinct         float64
	dup              float64
	oldAUC           float64
	newAUC           float64
	oldPrec          float64
	newPrec          float64
	regressed        bool
	qualityRegressed bool
}

// loadReport reads and decodes one artifact.
func loadReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks section", path)
	}
	return &r, nil
}

// diff compares the scenarios shared by both reports (matched by name,
// baseline order) and flags every one whose points/sec fell by more
// than threshold or whose AUC / precision@K fell by more than
// qualityDrop absolute (quality metrics live on a bounded [0,1] scale,
// so their gate is an absolute drop, not the relative one used for
// throughput). A newly added grid point is not a regression, and a
// baseline scenario absent from the candidate is not compared — but it
// is returned in missing, so the gate's output says so instead of
// silently shrinking (a renamed scenario, or a harness bug that stops
// emitting its row, must not pass unseen).
func diff(oldR, newR *benchReport, threshold, qualityDrop float64) (out []delta, regressions int, missing []string) {
	byName := make(map[string]benchRow, len(newR.Benchmarks))
	for _, b := range newR.Benchmarks {
		byName[b.Name] = b
	}
	for _, ob := range oldR.Benchmarks {
		if ob.PointsPerSec <= 0 {
			continue
		}
		nb, ok := byName[ob.Name]
		if !ok {
			missing = append(missing, ob.Name)
			continue
		}
		d := delta{
			name:     ob.Name,
			oldPts:   ob.PointsPerSec,
			newPts:   nb.PointsPerSec,
			pct:      100 * (nb.PointsPerSec - ob.PointsPerSec) / ob.PointsPerSec,
			distinct: nb.DistinctCellsPerBatch,
			dup:      nb.CellDupRatio,
			oldAUC:   ob.AUC,
			newAUC:   nb.AUC,
			oldPrec:  ob.PrecisionAtK,
			newPrec:  nb.PrecisionAtK,
		}
		if nb.PointsPerSec < ob.PointsPerSec*(1-threshold) {
			d.regressed = true
		}
		if ob.AUC > 0 && nb.AUC < ob.AUC-qualityDrop {
			d.regressed, d.qualityRegressed = true, true
		}
		if ob.PrecisionAtK > 0 && nb.PrecisionAtK < ob.PrecisionAtK-qualityDrop {
			d.regressed, d.qualityRegressed = true, true
		}
		if d.regressed {
			regressions++
		}
		out = append(out, d)
	}
	return out, regressions, missing
}

// diffCheckpoint compares the checkpoint rows when both artifacts
// carry one: encode/decode time growing past the threshold counts as a
// regression (time moves inversely to the points/sec gate); the
// snapshot size delta is printed for the record but informational —
// format growth is a deliberate, reviewed change, not a perf slip.
// A baseline with no checkpoint row (pre-checkpoint artifact) is not
// compared. compared counts the legs weighed, so the summary line can
// report regressions out of the same set; a vanished candidate row is
// one compared leg that regressed.
func diffCheckpoint(old, cand *ckptRow, threshold float64) (regressions, compared int) {
	if old == nil {
		return 0, 0
	}
	if cand == nil {
		fmt.Printf("  %-34s present in baseline only  << MISSING\n", "checkpoint")
		return 1, 1
	}
	for _, leg := range []struct {
		name  string
		oldNs float64
		newNs float64
	}{
		{"checkpoint/encode", old.EncodeNsPerOp, cand.EncodeNsPerOp},
		{"checkpoint/decode", old.DecodeNsPerOp, cand.DecodeNsPerOp},
	} {
		if leg.oldNs <= 0 {
			continue
		}
		compared++
		pct := 100 * (leg.newNs - leg.oldNs) / leg.oldNs
		mark := ""
		if leg.newNs > leg.oldNs*(1+threshold) {
			mark = "  << REGRESSION"
			regressions++
		}
		fmt.Printf("  %-34s %10.0f -> %10.0f ns/op        %+6.1f%%%s\n",
			leg.name, leg.oldNs, leg.newNs, pct, mark)
	}
	if old.SnapshotBytes > 0 {
		fmt.Printf("  %-34s %10d -> %10d bytes        %+6.1f%%\n",
			"checkpoint/bytes", old.SnapshotBytes, cand.SnapshotBytes,
			100*float64(cand.SnapshotBytes-old.SnapshotBytes)/float64(old.SnapshotBytes))
	}
	return regressions, compared
}

// checkAutoThreshold gates the candidate's auto-threshold legs: every
// leg with a requested risk must sit inside [q/3, 3q] on both sides of
// the drift. The booleans are self-contained (spotbench computes them
// against the leg's own q), so a missing baseline section changes
// nothing — but a baseline WITH the section and a candidate without it
// is a vanished scenario and fails like one. compared counts the gated
// legs.
func checkAutoThreshold(old, cand *autoSection) (qualityRegressions, compared int, missing bool) {
	if cand == nil {
		return 0, 0, old != nil
	}
	for _, leg := range cand.Legs {
		if leg.Risk <= 0 {
			continue
		}
		compared++
		mark := ""
		if !leg.InBandSteady || !leg.InBandPostDrift {
			mark = "  << QUALITY REGRESSION"
			qualityRegressions++
		}
		fmt.Printf("  auto-threshold/%-19s in band steady=%v post-drift=%v (q=%g)%s\n",
			leg.Name, leg.InBandSteady, leg.InBandPostDrift, leg.Risk, mark)
	}
	return qualityRegressions, compared, false
}

// tally is the gate's count over every compared scenario — grid rows,
// checkpoint legs and auto-threshold legs alike — so the summary's
// "N of M regressed" ranges N and M over the same set.
type tally struct {
	deltas             []delta // the compared grid rows
	compared           int
	regressions        int
	qualityRegressions int
	missing            []string
}

// gate runs every comparison the artifacts support and tallies them.
// The checkpoint and auto-threshold comparisons print their rows as
// they go; the grid rows are returned for the caller to print.
func gate(oldR, newR *benchReport, threshold, qualityDrop float64) tally {
	var t tally
	t.deltas, t.regressions, t.missing = diff(oldR, newR, threshold, qualityDrop)
	t.compared = len(t.deltas)
	for _, d := range t.deltas {
		if d.qualityRegressed {
			t.qualityRegressions++
		}
	}
	ckptRegressed, ckptCompared := diffCheckpoint(oldR.Checkpoint, newR.Checkpoint, threshold)
	autoQuality, autoCompared, autoMissing := checkAutoThreshold(oldR.AutoThreshold, newR.AutoThreshold)
	t.regressions += ckptRegressed + autoQuality
	t.qualityRegressions += autoQuality
	t.compared += ckptCompared + autoCompared
	if autoMissing {
		t.missing = append(t.missing, "auto_threshold")
	}
	return t
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "relative points/sec drop that counts as a regression")
	qualityDrop := flag.Float64("quality-drop", 0.05, "absolute AUC / precision@K drop that counts as a quality regression")
	warn := flag.Bool("warn", false, "report regressions but exit 0 (noisy or single-vCPU runners)")
	blockQuality := flag.Bool("block-quality", false, "exit non-zero on quality regressions even under -warn (quality is machine-independent)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.10] [-quality-drop 0.05] [-warn] [-block-quality] OLD.json NEW.json")
		os.Exit(2)
	}
	oldR, err := loadReport(flag.Arg(0))
	if err == nil {
		var newR *benchReport
		newR, err = loadReport(flag.Arg(1))
		if err == nil {
			run(oldR, newR, *threshold, *qualityDrop, *warn, *blockQuality)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(2)
}

// run prints the comparison and exits per the regression verdict.
func run(oldR, newR *benchReport, threshold, qualityDrop float64, warn, blockQuality bool) {
	short := func(sha string) string {
		if len(sha) > 12 {
			return sha[:12]
		}
		return sha
	}
	fmt.Printf("baseline  %s (num_cpu=%d)\ncandidate %s (num_cpu=%d)\n",
		short(oldR.GitSHA), oldR.NumCPU, short(newR.GitSHA), newR.NumCPU)
	if oldR.NumCPU == 1 || newR.NumCPU == 1 {
		fmt.Println("note: a report was measured on 1 vCPU — shard-scaling scenarios are noise, per-point cost is the signal")
	}
	if oldR.NumCPU != newR.NumCPU {
		fmt.Println("note: CPU budgets differ between reports; absolute deltas are not like-for-like")
	}
	t := gate(oldR, newR, threshold, qualityDrop)
	if len(t.deltas) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: the reports share no scenarios")
		os.Exit(2)
	}
	for _, d := range t.deltas {
		dup := ""
		if d.dup > 0 {
			dup = fmt.Sprintf("  (%.0f distinct/batch ×%.1f dup)", d.distinct, d.dup)
		}
		quality := ""
		if d.oldAUC > 0 || d.newAUC > 0 {
			quality = fmt.Sprintf("  auc %.3f->%.3f p@k %.3f->%.3f",
				d.oldAUC, d.newAUC, d.oldPrec, d.newPrec)
		}
		mark := ""
		if d.regressed {
			mark = "  << REGRESSION"
		}
		fmt.Printf("  %-34s %10.0f -> %10.0f points/sec  %+6.1f%%%s%s%s\n",
			d.name, d.oldPts, d.newPts, d.pct, dup, quality, mark)
	}
	for _, name := range t.missing {
		fmt.Printf("  %-34s present in baseline only  << MISSING\n", name)
	}
	if t.regressions == 0 && len(t.missing) == 0 {
		fmt.Printf("ok: no scenario regressed more than %.0f%%\n", threshold*100)
		return
	}
	// A vanished scenario fails the gate like a regression: a renamed
	// grid point or a harness bug that stops emitting a row must not
	// slip through ungated.
	if t.regressions > 0 {
		fmt.Printf("%d of %d scenarios regressed more than %.0f%%\n", t.regressions, t.compared, threshold*100)
	}
	if len(t.missing) > 0 {
		fmt.Printf("%d baseline scenarios missing from the candidate\n", len(t.missing))
	}
	if warn {
		if blockQuality && t.qualityRegressions > 0 {
			fmt.Printf("%d quality regressions are blocking (-block-quality): exiting 1\n", t.qualityRegressions)
			os.Exit(1)
		}
		fmt.Println("warn-only mode: exiting 0")
		return
	}
	os.Exit(1)
}
