package replica

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"spot/internal/server"
	"spot/internal/stream"
)

// testStream builds a small detector config with warmup off.
func testStream(dims int) stream.Config {
	cfg := stream.DefaultConfig(dims)
	cfg.Scoring = true
	cfg.TopK = 4
	cfg.Warmup = 0
	return cfg
}

// genPoints produces a deterministic flat stream with planted outliers.
func genPoints(seed int64, n, dims int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float64, n*dims)
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			v := 0.3 + 0.1*rng.Float64()
			if i%37 == 19 {
				v = rng.Float64()
			}
			flat[i*dims+d] = v
		}
	}
	return flat
}

// startServer serves a server on loopback with shutdown at cleanup.
func startServer(t *testing.T, opts server.Options, tenants []server.TenantConfig) (*server.Server, string) {
	t.Helper()
	s, err := server.New(opts, tenants)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		<-serveDone
	})
	return s, ln.Addr().String()
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestShipperReplicatesToStandby pins the happy path end to end: a
// primary's stream lands on the standby within the ship cadence, the
// standby's state is the primary's exact detector state (same tick,
// immediately durable), and the shipper's health counters surface
// through the primary's stats endpoint.
func TestShipperReplicatesToStandby(t *testing.T) {
	const dims, batch, batches = 3, 25, 4
	cfg := testStream(dims)
	pri, priAddr := startServer(t, server.Options{ID: "pri"},
		[]server.TenantConfig{{Name: "r", Stream: cfg}})
	sb, sbAddr := startServer(t, server.Options{ID: "sb", Role: server.RoleStandby},
		[]server.TenantConfig{{Name: "r", Stream: cfg, Dir: t.TempDir()}})

	sh, err := NewShipper(ShipperConfig{
		Server:   pri,
		Targets:  []string{sbAddr},
		Interval: 10 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()
	if !strings.HasPrefix(sh.Incarnation(), "pri/") {
		t.Fatalf("incarnation %q does not extend the server ID", sh.Incarnation())
	}

	c, err := server.Dial(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	flat := genPoints(21, batch*batches, dims)
	for i := 0; i < batches; i++ {
		if _, err := c.Ingest("r", flat[i*batch*dims:(i+1)*batch*dims], batch, server.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	want := uint64(batch * batches)
	waitFor(t, 5*time.Second, "standby to catch up", func() bool {
		ts, _ := sb.Tenant("r")
		return ts.Tick == want
	})
	ts, _ := sb.Tenant("r")
	if ts.ReplPrimary != sh.Incarnation() {
		t.Fatalf("standby tracks incarnation %q, want %q", ts.ReplPrimary, sh.Incarnation())
	}
	if ts.Checkpoint.Generations == 0 || !ts.Checkpoint.Verified {
		t.Fatalf("replicated state not durable on standby: %+v", ts.Checkpoint)
	}

	// The shipper's health reaches the primary's stats endpoint.
	waitFor(t, 5*time.Second, "replication status to drain", func() bool {
		st := sh.Status()
		return st.Active && len(st.Targets) == 1 && st.Targets[0].GensShipped > 0 && st.Targets[0].Behind == 0
	})
	priSt, ok := pri.Tenant("r")
	_ = priSt
	if !ok {
		t.Fatal("primary lost its tenant")
	}
	c2, err := server.Dial(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, err := c2.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Replication.Active || len(st.Replication.Targets) != 1 || st.Replication.Targets[0].BytesShipped == 0 {
		t.Fatalf("stats endpoint missing replication health: %+v", st.Replication)
	}
}

// TestShipperFaultInjectionRecovers pins the corruption path: with
// every second push corrupted on the wire, the standby refuses the bad
// generations (counted as corrupt receives and ship failures) yet
// still converges to the primary's tick, because the next cadence
// re-ships clean.
func TestShipperFaultInjectionRecovers(t *testing.T) {
	const dims, batch = 3, 25
	cfg := testStream(dims)
	pri, priAddr := startServer(t, server.Options{ID: "pri"},
		[]server.TenantConfig{{Name: "r", Stream: cfg}})
	sb, sbAddr := startServer(t, server.Options{ID: "sb", Role: server.RoleStandby},
		[]server.TenantConfig{{Name: "r", Stream: cfg}})

	sh, err := NewShipper(ShipperConfig{
		Server:      pri,
		Targets:     []string{sbAddr},
		Interval:    10 * time.Millisecond,
		FaultEveryN: 2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()

	c, err := server.Dial(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	flat := genPoints(22, batch*6, dims)
	for i := 0; i < 6; i++ {
		if _, err := c.Ingest("r", flat[i*batch*dims:(i+1)*batch*dims], batch, server.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(15 * time.Millisecond) // let cadences interleave with pushes
	}

	waitFor(t, 5*time.Second, "standby to converge past corruption", func() bool {
		ts, _ := sb.Tenant("r")
		return ts.Tick == uint64(batch*6)
	})
	ts, _ := sb.Tenant("r")
	if ts.ReplCorrupt == 0 {
		t.Fatal("no corrupt push ever reached the standby — fault injection inert")
	}
	if st := sh.Status(); st.Targets[0].ShipFailures == 0 {
		t.Fatal("shipper recorded no failures despite injected corruption")
	}
}

// TestShipperRefusesPrimaryTarget pins the split-brain guard: a target
// that believes it is primary is never shipped into; the fault is
// recorded and the target's ack state stays empty.
func TestShipperRefusesPrimaryTarget(t *testing.T) {
	const dims, batch = 2, 20
	cfg := testStream(dims)
	pri, priAddr := startServer(t, server.Options{ID: "pri"},
		[]server.TenantConfig{{Name: "r", Stream: cfg}})
	other, otherAddr := startServer(t, server.Options{ID: "other"}, // primary, mis-wired as target
		[]server.TenantConfig{{Name: "r", Stream: cfg}})

	sh, err := NewShipper(ShipperConfig{
		Server:   pri,
		Targets:  []string{otherAddr},
		Interval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()

	c, err := server.Dial(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	flat := genPoints(23, batch, dims)
	if _, err := c.Ingest("r", flat, batch, server.IngestOptions{}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "guard to record the mis-wiring", func() bool {
		st := sh.Status()
		return len(st.Targets) == 1 && st.Targets[0].ShipFailures > 0
	})
	st := sh.Status()
	if st.Targets[0].GensShipped != 0 {
		t.Fatalf("shipped %d generations into a primary", st.Targets[0].GensShipped)
	}
	if !strings.Contains(st.Targets[0].LastError, "primary") {
		t.Fatalf("guard error does not name the role: %q", st.Targets[0].LastError)
	}
	ts, _ := other.Tenant("r")
	if ts.ReplAccepted != 0 || ts.Tick != 0 {
		t.Fatalf("mis-wired primary absorbed replication: %+v", ts)
	}
}

// TestShipperDormantUntilPromoted pins the role gate on the shipping
// side: a shipper beside a standby ships nothing, then starts shipping
// the moment its server is promoted.
func TestShipperDormantUntilPromoted(t *testing.T) {
	const dims, batch = 2, 20
	cfg := testStream(dims)
	mid, _ := startServer(t, server.Options{ID: "mid", Role: server.RoleStandby},
		[]server.TenantConfig{{Name: "r", Stream: cfg}})
	sb, sbAddr := startServer(t, server.Options{ID: "sb", Role: server.RoleStandby},
		[]server.TenantConfig{{Name: "r", Stream: cfg}})

	sh, err := NewShipper(ShipperConfig{
		Server:   mid,
		Targets:  []string{sbAddr},
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()

	time.Sleep(50 * time.Millisecond)
	if st := sh.Status(); st.Active || st.Targets[0].GensShipped != 0 {
		t.Fatalf("standby's shipper is not dormant: %+v", st)
	}

	mid.Promote()
	// Drive the now-primary forward so there is something to ship.
	// (Ingest through the wire so the tick advances at a batch boundary.)
	cMid, err := server.Dial(mustAddr(t, mid))
	if err != nil {
		t.Fatal(err)
	}
	defer cMid.Close()
	flat := genPoints(24, batch, dims)
	if _, err := cMid.Ingest("r", flat, batch, server.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "promoted server to start shipping", func() bool {
		ts, _ := sb.Tenant("r")
		return ts.Tick == uint64(batch)
	})
}

// mustAddr returns a serving server's dial address.
func mustAddr(t *testing.T, s *server.Server) string {
	t.Helper()
	a := s.Addr()
	if a == nil {
		t.Fatal("server has no listener")
	}
	return a.String()
}

// TestFailoverFollowsPromotion pins the client half of failover: a
// client given the replica set in arbitrary order finds the primary by
// typed refusal, and when the primary drains away and the standby is
// promoted, the same client follows — with every verdict along the way
// bit-identical to an uninterrupted oracle.
func TestFailoverFollowsPromotion(t *testing.T) {
	const dims, batch, batches = 3, 25, 8
	cfg := testStream(dims)
	flat := genPoints(25, batch*batches, dims)

	oracle, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	want := make([]bool, batch*batches)
	if _, err := oracle.ProcessBatch(flat, want, nil); err != nil {
		t.Fatal(err)
	}

	priA, addrA := startServer(t, server.Options{ID: "a"},
		[]server.TenantConfig{{Name: "r", Stream: cfg}})
	sbB, addrB := startServer(t, server.Options{ID: "b", Role: server.RoleStandby},
		[]server.TenantConfig{{Name: "r", Stream: cfg}})

	sh, err := NewShipper(ShipperConfig{Server: priA, Targets: []string{addrB}, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stopShipper := func() { sh.Stop() }
	defer func() { stopShipper() }()

	// Standby listed first: the client must discover the primary.
	fc, err := NewClient(Config{Addrs: []string{addrB, addrA}, BaseBackoff: 5 * time.Millisecond, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	check := func(i int) {
		t.Helper()
		res, err := fc.Ingest("r", flat[i*batch*dims:(i+1)*batch*dims], batch, server.IngestOptions{})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if res.T0 != uint64(i*batch) {
			t.Fatalf("batch %d: T0 %d, want %d", i, res.T0, i*batch)
		}
		for j, v := range res.Verdicts {
			if v != want[i*batch+j] {
				t.Fatalf("batch %d point %d diverged from oracle", i, j)
			}
		}
	}

	for i := 0; i < batches/2; i++ {
		check(i)
	}
	if info, err := fc.PingInfo(); err != nil || info.ID != "a" {
		t.Fatalf("client did not settle on the primary: %+v, %v", info, err)
	}

	// Let replication drain completely, then fail over: stop the
	// shipper, drain A, promote B.
	waitFor(t, 5*time.Second, "standby to catch up before failover", func() bool {
		ts, _ := sbB.Tenant("r")
		return ts.Tick == uint64(batches/2*batch)
	})
	stopShipper()
	stopShipper = func() {}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	priA.Shutdown(ctx)
	cb, err := server.Dial(addrB)
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.Promote(); err != nil {
		t.Fatal(err)
	}
	cb.Close()

	// The tick must have survived the failover exactly (lag was zero).
	if tick, err := fc.Resync("r"); err != nil || tick != uint64(batches/2*batch) {
		t.Fatalf("post-failover resync: tick %d, %v, want %d", tick, err, batches/2*batch)
	}
	for i := batches / 2; i < batches; i++ {
		check(i)
	}
	if info, err := fc.PingInfo(); err != nil || info.ID != "b" {
		t.Fatalf("client did not follow the promotion: %+v, %v", info, err)
	}
}

// TestFailoverAmbiguousIngestNotRetried pins the retry-safety line: an
// ingest whose connection times out with the reply outstanding must
// surface ErrPossiblyApplied without a blind resend, while idempotent
// reads retry through the same fault.
func TestFailoverAmbiguousIngestNotRetried(t *testing.T) {
	// A hung server: accepts, swallows bytes, never replies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(c)
		}
	}()

	fc, err := NewClient(Config{
		Addrs:       []string{ln.Addr().String()},
		Client:      server.ClientOptions{ReadTimeout: 50 * time.Millisecond},
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	flat := genPoints(26, 10, 2)
	start := time.Now()
	_, err = fc.Ingest("r", flat, 10, server.IngestOptions{})
	if !errors.Is(err, ErrPossiblyApplied) {
		t.Fatalf("ambiguous ingest: got %v, want ErrPossiblyApplied", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("ambiguous ingest took %v — it must fail on the first timeout, not retry", elapsed)
	}

	// The idempotent read path retries through the same fault and
	// exhausts its attempts with the underlying timeout, not the
	// ambiguity sentinel.
	_, err = fc.Resync("r")
	if errors.Is(err, ErrPossiblyApplied) {
		t.Fatalf("idempotent read surfaced ErrPossiblyApplied: %v", err)
	}
	if !errors.Is(err, server.ErrTimeout) {
		t.Fatalf("resync against hung server: got %v, want exhausted ErrTimeout", err)
	}
}

// TestFailoverRetriesShedThenSucceeds pins the backoff path at the
// classification level and against a live server: a shed refusal is
// retryable on the same candidate, and classification separates every
// typed error into its contract class.
func TestFailoverRetriesShedThenSucceeds(t *testing.T) {
	cases := []struct {
		err  error
		want outcome
	}{
		{nil, done},
		{server.ErrBadRequest, done},
		{server.ErrUnknownTenant, done},
		{server.ErrConflict, done},
		{server.ErrInternal, done},
		{server.ErrShed, retrySame},
		{server.ErrDeadline, retrySame},
		{server.ErrNotPrimary, rotate},
		{server.ErrDraining, rotate},
		{server.ErrTimeout, ambiguous},
		{errors.New("connection reset by peer"), ambiguous},
	}
	for _, tc := range cases {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
