package main

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spot/internal/bench"
	"spot/internal/server"
	"spot/internal/snapshot"
	"spot/internal/stream"
)

// Settings of the serve_replicated workload.
const (
	serveDims   = 20
	servePoints = 64  // points per phase-1 request
	serveRing   = 512 // phase-1 requests in the ring: 32768 ticks
	// bulkPoints is the phase-2 request size: large enough that the
	// saturated daemon is bound by ingest work rather than by the
	// per-request wake-ups of its goroutines, whose cost swings with
	// the host's scheduling.
	bulkPoints  = 512
	serveConns  = 2 // load-generator connections
	servePeriod = 10 * time.Millisecond
	// serveLaunches is how many times a run launches the primary;
	// setup_s is the median.
	serveLaunches = 5
	// minBulkReplies keeps phase 2 going until p90 has ten samples
	// beyond it, however slow the machine.
	minBulkReplies = 100
	tenantName     = "bench"
	tenantSpec     = "bench:dims=20,shards=2,scoring,topk=16"
	shipInterval   = time.Second // spotd's default -replicate-interval
	// maxSendLag is the generator lateness (p99) past which phase 1
	// measured the load generator rather than the daemon. Two
	// connections absorb a request sent up to a period late; one sent
	// several periods late means the generator fell behind its
	// schedule.
	maxSendLag = 3 * servePeriod
	// minServeRecall is the floor on phase 1's planted-outlier recall.
	minServeRecall = 0.8
	// sampleEvery is the traced run's status-sampling cadence.
	sampleEvery = 100 * time.Millisecond
)

// serveConfig is the detector configuration spotd builds from
// tenantSpec. The benchmark writes the recovery checkpoint with it; a
// mismatch would make the daemon refuse the checkpoint and start
// fresh, which the recovered-tick check reports.
func serveConfig() (stream.Config, error) {
	cfg := stream.DefaultConfig(serveDims)
	cfg.Shards = 2
	cfg.Scoring = true
	cfg.TopK = 16
	return cfg, nil
}

// fixedCenters places gcfg.Clusters centers the way bench.Generator
// does for seed 1. The seed of a serve run then varies every point and
// outlier but not the cluster geometry: at d=20, whether a center sits
// near a cell boundary moves the daemon's throughput by a quarter from
// one geometry to the next, which would drown any code change.
func fixedCenters(gcfg bench.GenConfig) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	centers := make([][]float64, gcfg.Clusters)
	for c := range centers {
		centers[c] = make([]float64, gcfg.Dims)
		for i := range centers[c] {
			centers[c][i] = 0.2 + 0.6*rng.Float64()
		}
	}
	return centers
}

// reqRec is one request's record. Request idx sends ring batch idx.
type reqRec struct {
	idx             int
	n               int // points sent
	due, sent, done time.Time
	lag             time.Duration // generator lateness: woke at due+lag
	t0              uint64
	err             error
	conf            confusion
	flagged         int
}

// loadGen sends requests over its connections. With a tracer, every
// other block of traceBlock requests records its spans under parent.
type loadGen struct {
	clients []*server.Client
	rg      *ring
	tr      *tracer
	parent  int64
}

func (g *loadGen) traced(idx int) bool { return g.tr != nil && (idx/traceBlock)%2 == 0 }

// send issues request rec.idx on c and checks the reply's shape.
func (g *loadGen) send(c *server.Client, rec *reqRec) {
	flat, labels := g.rg.at(rec.idx)
	rec.n = g.rg.batch
	rec.sent = time.Now()
	res, err := c.Ingest(tenantName, flat, rec.n, server.IngestOptions{Scored: true})
	rec.done = time.Now()
	if g.traced(rec.idx) {
		id := g.tr.add(0, g.parent, "serve.request", int64(rec.idx), rec.due, rec.done)
		g.tr.add(0, id, "server.Client.Ingest", int64(rec.idx), rec.sent, rec.done)
	}
	switch {
	case err != nil:
	case len(res.Verdicts) != rec.n || len(res.Scores) != rec.n:
		err = fmt.Errorf("reply carries %d verdicts and %d scores, want %d each", len(res.Verdicts), len(res.Scores), rec.n)
	case !scoresMatch(res.Verdicts, res.Scores):
		err = fmt.Errorf("reply scores disagree with its verdicts")
	default:
		rec.t0 = res.T0
		rec.conf.add(res.Verdicts, labels)
		for _, f := range res.Verdicts {
			if f {
				rec.flagged++
			}
		}
	}
	rec.err = err
}

// openLoop runs phase 1: requests due every servePeriod for dur,
// whatever the daemon's pace. Each request's latency runs from when it
// was due.
func (g *loadGen) openLoop(dur time.Duration) []reqRec {
	recs := make([]reqRec, int(dur/servePeriod))
	// Sized to every send, so a slow daemon never blocks the schedule.
	jobs := make(chan int, len(recs))
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *server.Client) {
			defer wg.Done()
			for i := range jobs {
				g.send(c, &recs[i])
			}
		}(c)
	}
	start := time.Now().Add(servePeriod)
	for i := range recs {
		due := start.Add(time.Duration(i) * servePeriod)
		time.Sleep(time.Until(due))
		recs[i] = reqRec{idx: i, due: due, lag: time.Since(due)}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return recs
}

// closedLoop runs phase 2: each connection sends its next request as
// soon as the previous reply arrives, until dur has passed and at
// least minReplies requests were sent.
func (g *loadGen) closedLoop(dur time.Duration, minReplies int) []reqRec {
	var next atomic.Int64
	per := make([][]reqRec, len(g.clients))
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for k, c := range g.clients {
		wg.Add(1)
		go func(k int, c *server.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) || next.Load() < int64(minReplies) {
				rec := reqRec{idx: int(next.Add(1) - 1), due: time.Now()}
				g.send(c, &rec)
				per[k] = append(per[k], rec)
				if rec.err != nil {
					return // a transport fault poisons the client
				}
			}
		}(k, c)
	}
	wg.Wait()
	return slices.Concat(per...)
}

// dialAll opens serveConns load connections to addr.
func dialAll(addr string) ([]*server.Client, error) {
	var clients []*server.Client
	for i := 0; i < serveConns; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll(clients)
			return nil, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeAll(clients []*server.Client) {
	for _, c := range clients {
		c.Close()
	}
}

// sampler polls the primary's queue length and tick and the standby's
// replicated tick while the phases run (traced run only).
type sampler struct {
	queue   []float64
	lagMax  uint64
	stop    chan struct{}
	stopped chan struct{}
}

func startSampler(priAddr, sbyAddr string) (*sampler, error) {
	pri, err := dial(priAddr)
	if err != nil {
		return nil, err
	}
	sby, err := dial(sbyAddr)
	if err != nil {
		pri.Close()
		return nil, err
	}
	s := &sampler{stop: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(s.stopped)
		defer pri.Close()
		defer sby.Close()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			p, err := pri.TenantStats(tenantName)
			if err != nil {
				continue
			}
			s.queue = append(s.queue, float64(p.QueueLen))
			if b, err := sby.TenantStats(tenantName); err == nil && p.Tick > b.ReplTick {
				s.lagMax = max(s.lagMax, p.Tick-b.ReplTick)
			}
		}
	}()
	return s, nil
}

// halt stops the sampler and waits for it.
func (s *sampler) halt() {
	close(s.stop)
	<-s.stopped
}

// latencies returns each successful request's latency in milliseconds,
// counted from when it was due (fromDue) or from when it was sent.
func latencies(recs []reqRec, fromDue bool) []float64 {
	var out []float64
	for _, rec := range recs {
		if rec.err != nil {
			continue
		}
		from := rec.sent
		if fromDue {
			from = rec.due
		}
		out = append(out, ms(rec.done.Sub(from)))
	}
	return out
}

func runServe(r *run) error {
	cfg, _ := serveConfig()
	gcfg := bench.DefaultGenConfig(serveDims)
	gcfg.Centers = fixedCenters(gcfg)
	gcfg.Seed = r.prov.Seed
	rg := newRing(gcfg, serveRing, servePoints)
	bulk := &ring{dims: rg.dims, batch: bulkPoints, flat: rg.flat, labels: rg.labels}

	// Warm a detector on one pass of the ring and checkpoint it where
	// the primary recovers from.
	det, err := stream.New(cfg)
	if err != nil {
		return err
	}
	defer det.Close()
	out := make([]bool, bulkPoints)
	scores := make([]float64, bulkPoints)
	for i := 0; i < bulk.len(); i++ {
		flat, _ := bulk.at(i)
		_, err := det.ProcessBatchScoredErr(flat, out, scores)
		r.op(err)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	warmTick := det.Tick()
	dataA := filepath.Join(r.work, "data-a")
	saveMS, err := saveCheckpoint(r, det, filepath.Join(dataA, tenantName), 1+2*b2i(r.traced()))
	if err != nil {
		return err
	}
	var inprocP50 float64
	if r.traced() {
		// The solo daemon of the standby-tax leg recovers the same state.
		if _, err := saveCheckpoint(r, det, filepath.Join(r.work, "data-b", tenantName), 1); err != nil {
			return err
		}
		r.layer["snapshot.save_ms"] = median(saveMS)
		if err := recoverProbe(r, filepath.Join(dataA, tenantName), warmTick); err != nil {
			return err
		}
		if err := probeSnapshot(r, det, serveConfig); err != nil {
			return err
		}
		if inprocP50, err = inProcessLeg(r, det, rg, cfg.EpochTicks); err != nil {
			return err
		}
	}
	subspaces := det.Template().FixedCount()
	det.Close()

	// Launch the standby, then the primary several times: set-up is
	// launch until the primary answers with its recovered tick. The
	// last primary stays up for the phases.
	sby, err := r.startDaemon("standby", "-standby", "-tenant", tenantSpec)
	if err != nil {
		return err
	}
	defer r.stop(sby)
	sbyBefore, err := waitTenant(sby.addr, tenantName, 10*time.Second)
	if err != nil {
		return err
	}
	priArgs := []string{"-data", dataA, "-tenant", tenantSpec, "-replicate-to", sby.addr}
	var pri *daemon
	var setupS []float64
	for i := 0; i < serveLaunches; i++ {
		if pri != nil {
			if err := r.stop(pri); err != nil {
				return fmt.Errorf("drain primary after set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		if pri, err = r.startDaemon("primary", priArgs...); err != nil {
			return err
		}
		ts, err := waitTenant(pri.addr, tenantName, 10*time.Second)
		if err != nil {
			return err
		}
		end := time.Now()
		setupS = append(setupS, end.Sub(start).Seconds())
		r.tr.add(0, 0, "spotd.launch", int64(i), start, end)
		r.check(fmt.Sprintf("recovered_tick_%d", i), ts.RecoveredTick == warmTick, "primary recovered tick %d, checkpoint holds %d", ts.RecoveredTick, warmTick)
	}
	defer func() {
		if pri != nil {
			r.stop(pri)
		}
	}()

	// Timing begins once the standby holds the primary's first
	// generation.
	firstGen := false
	for deadline := time.Now().Add(3 * shipInterval); !firstGen && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		ts, err := waitTenant(sby.addr, tenantName, time.Second)
		firstGen = err == nil && ts.ReplAccepted > sbyBefore.ReplAccepted && ts.ReplTick == warmTick
	}
	r.check("standby_first_generation", firstGen, "standby accepted the recovered state within %s", 3*shipInterval)

	ctl, err := dial(pri.addr)
	if err != nil {
		return err
	}
	defer ctl.Close()
	st0, err := ctl.ServerStats()
	if err != nil {
		return err
	}
	clients, err := dialAll(pri.addr)
	if err != nil {
		return err
	}
	defer closeAll(clients)
	var smp *sampler
	if r.traced() {
		if smp, err = startSampler(pri.addr, sby.addr); err != nil {
			return err
		}
	}

	// Phase 1: an open loop of small requests. Phase 2: a closed loop
	// of bulk requests.
	p1 := &loadGen{clients: clients, rg: rg, tr: r.tr, parent: r.tr.id()}
	p1Start := time.Now()
	recs1 := p1.openLoop(r.seconds)
	p1End := time.Now()
	r.tr.add(p1.parent, 0, "phase1.open_loop", -1, p1Start, p1End)
	p2 := &loadGen{clients: clients, rg: bulk, tr: r.tr, parent: r.tr.id()}
	recs2 := p2.closedLoop(r.seconds, minBulkReplies)
	r.tr.add(p2.parent, 0, "phase2.closed_loop", -1, p1End, time.Now())
	if smp != nil {
		smp.halt()
	}

	// A final ship must bring the standby to the primary's tick.
	st1, err := ctl.ServerStats()
	if err != nil {
		return err
	}
	priTick := st1.Tenants[tenantName].Tick
	var sbyTick uint64
	// The next ship pass comes due within one interval; allow the
	// cut, the push and the standby's restore another.
	catchUp := 2 * shipInterval
	for deadline := time.Now().Add(catchUp); sbyTick != priTick && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if ts, err := waitTenant(sby.addr, tenantName, time.Second); err == nil {
			sbyTick = ts.ReplTick
		}
	}
	st2, err := ctl.ServerStats()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(fmt.Sprint(pri.cmd.Process.Pid))
	if err != nil {
		return err
	}
	if err := r.stop(pri); err != nil {
		return fmt.Errorf("drain primary: %w", err)
	}
	pri = nil
	if err := r.stop(sby); err != nil {
		return fmt.Errorf("drain standby: %w", err)
	}

	// Tally the requests and run the correctness checks.
	var conf1 confusion
	var lag []float64
	for _, rec := range recs1 {
		lag = append(lag, ms(rec.lag))
		conf1.tp += rec.conf.tp
		conf1.fp += rec.conf.fp
		conf1.fn += rec.conf.fn
	}
	var applied []reqRec
	flagged, points := 0, 0
	for _, rec := range slices.Concat(recs1, recs2) {
		r.op(rec.err)
		if rec.err == nil {
			applied = append(applied, rec)
			flagged += rec.flagged
			points += rec.n
		}
	}
	// Every applied batch starts where the previous one ended.
	slices.SortFunc(applied, func(a, b reqRec) int { return cmp.Compare(a.t0, b.t0) })
	next, contiguous := warmTick, true
	for _, rec := range applied {
		contiguous = contiguous && rec.t0 == next
		next = rec.t0 + uint64(rec.n)
	}
	lagP99, _ := percentile(lag, 0.99)
	r.check("t0_contiguous", contiguous, "%d replies, T0 running from %d with no gap or repeat", len(applied), warmTick)
	r.check("recall_floor", conf1.recall() >= minServeRecall, "phase-1 recall %.3f, floor %.2f (tp=%d fn=%d)", conf1.recall(), minServeRecall, conf1.tp, conf1.fn)
	r.check("generator_on_schedule", lagP99 <= ms(maxSendLag), "send lag p99 %.3f ms, limit %.1f ms", lagP99, ms(maxSendLag))
	r.check("standby_caught_up", sbyTick == priTick, "standby at tick %d, primary at %d, %s after the last reply", sbyTick, priTick, catchUp)

	lat1, lat2 := latencies(recs1, true), latencies(recs2, false)
	p50, _ := percentile(lat2, 0.5)
	p90, ok := percentile(lat2, 0.9)
	if !ok {
		return fmt.Errorf("phase 2's %d replies cannot support p90", len(lat2))
	}
	throughput := closedThroughput(recs2)
	r.e2e["setup_s"] = median(setupS)
	r.e2e["throughput_pps"] = throughput
	r.e2e["latency_p50_ms"] = p50
	r.e2e["latency_p90_ms"] = p90
	r.e2e["success_ratio"] = 1 - float64(r.failed)/float64(r.attempted)
	r.e2e["peak_rss_mb"] = rss
	r.details["setup_s"] = setupS
	r.details["phase1"] = map[string]any{
		"requests": len(recs1), "send_lag_ms_p99": lagP99,
		"recall": conf1.recall(), "precision": conf1.precision(),
		"latency_ms_due_to_reply": quantiles(lat1),
	}
	r.details["phase2"] = map[string]any{
		"requests": len(recs2), "latency_ms_send_to_reply": quantiles(lat2),
	}
	if !r.traced() {
		return nil
	}

	// Per-layer metrics of the traced run.
	ts1, ts2 := st0.Tenants[tenantName], st1.Tenants[tenantName]
	layerFromStats(r, ts1.Stream, ts2.Stream, points, subspaces)
	if n := ts2.Stream.Checkpoints; n > 0 {
		r.layer["stream.daemon_snapshot_ms"] = float64(ts2.Stream.CheckpointNanos) / float64(n) / 1e6
	}
	r.layer["stream.flag_rate"] = float64(flagged) / float64(points)
	r.layer["snapshot.checkpoints"] = float64(ts2.Checkpoint.LatestSeq - ts1.Checkpoint.LatestSeq)
	r.layer["server.open_loop_ms_p50"], _ = percentile(lat1, 0.5)
	r.layer["server.open_loop_ms_p90"], _ = percentile(lat1, 0.9)
	r.layer["server.open_loop_ms_p99"], _ = percentile(lat1, 0.99)
	rttP50, _ := percentile(latencies(recs1, false), 0.5)
	r.layer["server.rtt_ms_p50"] = rttP50
	r.layer["server.overhead_ms"] = rttP50 - inprocP50
	r.layer["server.queue_len_mean"], r.layer["server.queue_len_max"] = meanMax(smp.queue)
	r.layer["server.shed"] = float64(ts2.Shed - ts1.Shed)
	r.layer["server.deadline_misses"] = float64(ts2.DeadlineMisses - ts1.DeadlineMisses)
	r.layer["server.send_lag_ms_p99"] = lagP99
	gens, bytesShipped, fails := shipped(st2.Replication)
	gens0, bytes0, fails0 := shipped(st0.Replication)
	r.layer["replica.generations"] = float64(gens - gens0)
	r.layer["replica.bytes_per_point"] = float64(bytesShipped-bytes0) / float64(points)
	r.layer["replica.ship_failures"] = float64(fails - fails0)
	r.layer["replica.lag_ticks_max"] = float64(smp.lagMax)
	var tracedRecs, untracedRecs []reqRec
	for _, rec := range recs2 {
		if p2.traced(rec.idx) {
			tracedRecs = append(tracedRecs, rec)
		} else {
			untracedRecs = append(untracedRecs, rec)
		}
	}
	r.layer["trace.overhead_ratio"] = median(latencies(tracedRecs, false))/median(latencies(untracedRecs, false)) - 1

	// The same closed loop against a daemon without a standby.
	solo, err := r.startDaemon("solo", "-data", filepath.Join(r.work, "data-b"), "-tenant", tenantSpec)
	if err != nil {
		return err
	}
	defer r.stop(solo)
	if _, err := waitTenant(solo.addr, tenantName, 10*time.Second); err != nil {
		return err
	}
	soloClients, err := dialAll(solo.addr)
	if err != nil {
		return err
	}
	soloStart := time.Now()
	recsSolo := (&loadGen{clients: soloClients, rg: bulk}).closedLoop(r.seconds, minBulkReplies)
	r.tr.add(0, 0, "solo.closed_loop", -1, soloStart, time.Now())
	closeAll(soloClients)
	for _, rec := range recsSolo {
		r.op(rec.err)
	}
	if err := r.stop(solo); err != nil {
		return fmt.Errorf("drain solo daemon: %w", err)
	}
	soloThroughput := closedThroughput(recsSolo)
	r.layer["replica.standby_tax"] = 1 - throughput/soloThroughput
	r.details["solo_throughput_pps"] = soloThroughput
	r.layer["trace.spans"] = float64(len(r.tr.spans))
	return nil
}

// closedThroughput is the points a closed loop's successful requests
// carried per second, from its first send to its last reply.
func closedThroughput(recs []reqRec) float64 {
	var first, last time.Time
	points := 0
	for i, rec := range recs {
		if i == 0 || rec.due.Before(first) {
			first = rec.due
		}
		if rec.done.After(last) {
			last = rec.done
		}
		if rec.err == nil {
			points += rec.n
		}
	}
	if points == 0 {
		return 0
	}
	return float64(points) / last.Sub(first).Seconds()
}

// shipped sums the shipper's lifetime counters over its targets.
func shipped(st server.ReplicationStatus) (gens, bytes, fails uint64) {
	for _, t := range st.Targets {
		gens += t.GensShipped
		bytes += t.BytesShipped
		fails += t.ShipFailures
	}
	return gens, bytes, fails
}

func meanMax(v []float64) (mean, maxV float64) {
	for _, x := range v {
		mean += x
		maxV = max(maxV, x)
	}
	if len(v) > 0 {
		mean /= float64(len(v))
	}
	return mean, maxV
}

// saveCheckpoint saves det into a keeper at dir times times and returns
// each save's duration in milliseconds.
func saveCheckpoint(r *run, det *stream.Detector, dir string, times int) ([]float64, error) {
	k, err := snapshot.NewKeeper(dir, 3)
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < times; i++ {
		start := time.Now()
		_, _, err := k.Save(det.Snapshot)
		end := time.Now()
		r.op(err)
		if err != nil {
			return nil, fmt.Errorf("save checkpoint: %w", err)
		}
		out = append(out, ms(end.Sub(start)))
		r.tr.add(0, 0, "snapshot.Keeper.Save", -1, start, end)
	}
	return out, nil
}

// recoverProbe times Keeper.Load plus stream.Restore of the recovery
// checkpoint, the work a starting primary does.
func recoverProbe(r *run, dir string, wantTick uint64) error {
	k, err := snapshot.NewKeeper(dir, 3)
	if err != nil {
		return err
	}
	var took []float64
	for i := 0; i < setups; i++ {
		cfg, _ := serveConfig()
		var restored *stream.Detector
		load := r.tr.id()
		start := time.Now()
		_, err := k.Load(func(rd io.Reader) error {
			t := time.Now()
			d, err := stream.Restore(rd, cfg)
			r.tr.add(0, load, "stream.Restore", -1, t, time.Now())
			restored = d
			return err
		})
		end := time.Now()
		r.op(err)
		if err != nil {
			return fmt.Errorf("recover checkpoint: %w", err)
		}
		r.tr.add(load, 0, "snapshot.Keeper.Load", -1, start, end)
		r.check("recover_tick", restored.Tick() == wantTick, "recovered tick %d, saved %d", restored.Tick(), wantTick)
		restored.Close()
		took = append(took, ms(end.Sub(start)))
	}
	r.layer["snapshot.recover_ms"] = median(took)
	return nil
}

// inProcessLeg drives the warmed detector with the daemon's 64-point
// requests directly — no wire, no queue — for the in-process side of
// server.overhead_ms and for the stream metrics of this config.
func inProcessLeg(r *run, det *stream.Detector, rg *ring, epoch uint64) (p50 float64, err error) {
	out := make([]bool, servePoints)
	scores := make([]float64, servePoints)
	var lat []float64
	var crossing []bool
	var busy time.Duration
	leg := r.tr.id()
	legStart := time.Now()
	for i := 0; i < rg.len(); i++ {
		flat, _ := rg.at(i)
		t0 := det.Tick()
		start := time.Now()
		_, err := det.ProcessBatchScoredErr(flat, out, scores)
		end := time.Now()
		r.op(err)
		if err != nil {
			return 0, fmt.Errorf("in-process leg: %w", err)
		}
		r.tr.add(0, leg, "stream.ProcessBatchScored", int64(i), start, end)
		busy += end.Sub(start)
		lat = append(lat, ms(end.Sub(start)))
		crossing = append(crossing, crossesEpoch(t0, servePoints, epoch))
	}
	r.tr.add(leg, 0, "inprocess.leg", -1, legStart, time.Now())
	extra, _ := epochExtra(lat, crossing)
	s := det.Stats()
	r.layer["stream.ingest_ns_per_point"] = float64(busy.Nanoseconds()) / float64(len(lat)*servePoints)
	r.layer["stream.epoch_batch_extra_ms"] = extra
	r.layer["core.heap_bytes_per_cell"] = heapPerCell(rg.bytes(), s.ProjectedCells+s.BaseCells)
	r.details["inprocess_latency_ms_p50"] = median(lat)
	return median(lat), nil
}
