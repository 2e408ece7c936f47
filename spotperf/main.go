// Command spotperf is the SPOT repository benchmark. Each workload
// builds its input from --seed, measures for --seconds, checks that the
// detector's outputs are correct, and prints one JSON object as the
// last line of standard output: the end-to-end metrics with --trace 0,
// the per-layer metrics of a traced run with --trace 1. See README.md
// for the workloads, the metrics and which layer moves which metric.
//
// Run it through run.sh, which builds this harness and cmd/spotd from
// the checkout and passes -spotd and -work:
//
//	bash spotperf/run.sh --workload ingest_d100 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of SPOT sees; every workload reports
// all of them with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_pps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"success_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, one or more per layer; every
// workload reports all of them with --trace 1, 0 where the layer does
// not run on that workload (README.md lists which apply where).
var perLayer = []metricDef{
	{"stream.ingest_ns_per_point", "ns"},
	{"stream.epoch_batch_extra_ms", "ms"},
	{"stream.sweep_ms", "ms"},
	{"stream.flag_rate", "ratio"},
	{"stream.snapshot_ms", "ms"},
	{"stream.snapshot_bytes", "bytes"},
	{"stream.restore_ms", "ms"},
	{"stream.daemon_snapshot_ms", "ms"},
	{"core.projected_cells", "count"},
	{"core.base_cells", "count"},
	{"core.heap_bytes_per_cell", "bytes"},
	{"core.evicted_per_sweep", "count"},
	{"core.coalesce_dup_ratio", "ratio"},
	{"core.coalesced_share", "ratio"},
	{"sst.subspaces", "count"},
	{"sst.promoted", "count"},
	{"sst.demoted", "count"},
	{"evt.calibrations_per_sweep", "count"},
	{"evt.eff_trials", "ratio"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.recover_ms", "ms"},
	{"snapshot.checkpoints", "count"},
	{"server.open_loop_ms_p50", "ms"},
	{"server.open_loop_ms_p90", "ms"},
	{"server.open_loop_ms_p99", "ms"},
	{"server.rtt_ms_p50", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.queue_len_mean", "count"},
	{"server.queue_len_max", "count"},
	{"server.shed", "count"},
	{"server.deadline_misses", "count"},
	{"server.send_lag_ms_p99", "ms"},
	{"replica.generations", "count"},
	{"replica.bytes_per_point", "bytes"},
	{"replica.ship_failures", "count"},
	{"replica.lag_ticks_max", "count"},
	{"replica.standby_tax", "ratio"},
	{"error_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"ingest_d100":        ingestD100.run,
	"ingest_d20_uniform": ingestD20Uniform.run,
	"serve_replicated":   runServe,
}

// watchdogAfter bounds a run: past it the harness stops its daemons and
// exits non-zero rather than overrun its time limit.
const watchdogAfter = 170 * time.Second

// run is one benchmark invocation's state: its settings, the operation
// and check tallies, and the metrics and details it produces.
type run struct {
	prov    provenance
	seconds time.Duration
	tr      *tracer // nil unless traced
	spotd   string  // spotd binary
	work    string  // scratch directory for daemon data and logs

	attempted, failed int64
	checks            []check
	e2e, layer        map[string]float64
	details           map[string]any

	mu    sync.Mutex
	procs map[*daemon]bool // live daemons, for the watchdog
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// op tallies one attempted operation.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
	}
}

// check records a correctness check; a failed check counts as a failed
// operation.
func (r *run) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
	r.checks = append(r.checks, c)
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "spotperf: check %s FAILED: %s\n", name, c.Detail)
	}
}

// traced reports whether this is the per-layer run.
func (r *run) traced() bool { return r.tr != nil }

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "spotperf:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "", "workload to run: ingest_d100, ingest_d20_uniform or serve_replicated")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
		spotd    = flag.String("spotd", "", "spotd binary (serve_replicated)")
		work     = flag.String("work", ".bench_build/work", "scratch directory for daemon data, logs, spans and result details")
		root     = flag.String("root", ".", "checkout root, for provenance")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{
		prov:    newProvenance(*root, *workload, *seed, *seconds, *trace == 1),
		seconds: time.Duration(*seconds) * time.Second,
		spotd:   *spotd,
		work:    dir,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		details: map[string]any{},
		procs:   map[*daemon]bool{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	watchdog := time.AfterFunc(watchdogAfter, func() {
		fmt.Fprintln(os.Stderr, "spotperf: watchdog fired, stopping daemons")
		r.killAll()
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer r.killAll()

	if err := fn(r); err != nil {
		return err
	}
	return r.report(*work)
}

// report writes the run's details and spans next to the work
// directory and prints the provenance line and the result line.
func (r *run) report(work string) error {
	defs, vals := endToEnd, r.e2e
	if r.traced() {
		defs, vals = perLayer, r.layer
		r.layer["error_ratio"] = float64(r.failed) / float64(r.attempted)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", r.prov.Workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metric{v, d.unit}
	}
	correct := r.failed == 0
	for _, c := range r.checks {
		correct = correct && c.OK
	}
	if r.attempted < 1 {
		return errors.New("no operation attempted")
	}

	base := filepath.Join(work, fmt.Sprintf("%s-seed%d-trace%d", r.prov.Workload, r.prov.Seed, b2i(r.traced())))
	details := map[string]any{
		"provenance": r.prov,
		"checks":     r.checks,
		"end_to_end": r.e2e,
		"per_layer":  r.layer,
		"details":    r.details,
	}
	if r.traced() {
		details["spans"] = summarize(r.tr.spans)
		if err := writeSpans(base+".spans.jsonl", r.tr.spans); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(details, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	env, err := json.Marshal(r.prov)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", env)
	fmt.Printf("details %s.json\n", base)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeSpans writes one JSON span per line, in start order.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
