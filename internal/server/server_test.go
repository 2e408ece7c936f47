package server

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spot/internal/stream"
)

// testStream builds a small scoring detector config with warmup off so
// verdicts appear quickly.
func testStream(dims int) stream.Config {
	cfg := stream.DefaultConfig(dims)
	cfg.Scoring = true
	cfg.TopK = 4
	cfg.Warmup = 0
	return cfg
}

// genPoints produces a deterministic flat stream of n points with a
// few planted outliers so verdicts are non-trivial.
func genPoints(seed int64, n, dims int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float64, n*dims)
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			v := 0.3 + 0.1*rng.Float64()
			if i%37 == 19 {
				v = rng.Float64() // planted outlier: uniform over [0,1)
			}
			flat[i*dims+d] = v
		}
	}
	return flat
}

// startServer builds and serves a server on a loopback listener,
// returning the dial address. The server is shut down at test cleanup.
func startServer(t *testing.T, opts Options, tenants []TenantConfig) (*Server, string) {
	t.Helper()
	s, err := New(opts, tenants)
	if err != nil {
		t.Fatal(err)
	}
	return serveExisting(t, s)
}

// serveExisting serves an already-built server on a loopback listener
// with cleanup, for tests that install hooks before start.
func serveExisting(t *testing.T, s *Server) (*Server, string) {
	t.Helper()
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

// dial connects a client, closed at test cleanup.
func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestIngestMatchesOracle is the core serving contract: verdicts and
// scores returned over the wire are bit-identical to a directly-driven
// detector consuming the same stream.
func TestIngestMatchesOracle(t *testing.T) {
	const dims, batch, batches = 4, 25, 8
	cfg := testStream(dims)
	_, addr := startServer(t, Options{}, []TenantConfig{{Name: "a", Stream: cfg}})
	c := dial(t, addr)

	oracle, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	flat := genPoints(1, batch*batches, dims)
	for i := 0; i < batches; i++ {
		chunk := flat[i*batch*dims : (i+1)*batch*dims]
		res, err := c.Ingest("a", chunk, batch, IngestOptions{Scored: true})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if res.T0 != uint64(i*batch) {
			t.Fatalf("batch %d: T0 %d, want %d", i, res.T0, i*batch)
		}
		wantV := make([]bool, batch)
		wantS := make([]float64, batch)
		if _, err := oracle.ProcessBatch(chunk, wantV, wantS); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < batch; j++ {
			if res.Verdicts[j] != wantV[j] {
				t.Fatalf("batch %d point %d: verdict %v, oracle %v", i, j, res.Verdicts[j], wantV[j])
			}
			if res.Scores[j] != wantS[j] {
				t.Fatalf("batch %d point %d: score %v, oracle %v", i, j, res.Scores[j], wantS[j])
			}
		}
	}

	st, err := c.TenantStats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != batch*batches || st.Accepted != batches {
		t.Fatalf("tenant stats: tick %d accepted %d, want %d/%d", st.Tick, st.Accepted, batch*batches, batches)
	}
}

// TestUnscoredIngest covers the verdict-only wire path (no score
// section in the reply).
func TestUnscoredIngest(t *testing.T) {
	cfg := testStream(3)
	cfg.Scoring = false
	cfg.TopK = 0
	_, addr := startServer(t, Options{}, []TenantConfig{{Name: "p", Stream: cfg}})
	c := dial(t, addr)

	flat := genPoints(2, 50, 3)
	res, err := c.Ingest("p", flat, 50, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores != nil {
		t.Fatalf("unscored ingest returned scores")
	}
	if len(res.Verdicts) != 50 {
		t.Fatalf("got %d verdicts, want 50", len(res.Verdicts))
	}
}

// TestTypedRefusals pins the wire error taxonomy for caller bugs:
// unknown tenants, malformed batches, input-contract violations and
// scoring requests against unscored tenants.
func TestTypedRefusals(t *testing.T) {
	cfg := testStream(4)
	cfg.Scoring = false
	cfg.TopK = 0
	_, addr := startServer(t, Options{}, []TenantConfig{{Name: "a", Stream: cfg}})
	c := dial(t, addr)

	if _, err := c.Ingest("ghost", genPoints(3, 2, 4), 2, IngestOptions{}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: got %v", err)
	}
	if _, err := c.TenantStats("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant stats: got %v", err)
	}
	// Wrong shape: 3 values cannot be 2 points of 4 dims.
	if _, err := c.Ingest("a", []float64{1, 2, 3}, 2, IngestOptions{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad shape: got %v", err)
	}
	// Right shape for 1 point of 3 dims, but the tenant is 4-dim.
	if _, err := c.Ingest("a", []float64{1, 2, 3}, 1, IngestOptions{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("dims mismatch: got %v", err)
	}
	// NaN violates the detector's input contract; the typed stream
	// error maps to BadRequest and nothing is applied.
	bad := []float64{0.1, 0.2, 0.3, 0.4}
	bad[2] = nanValue()
	if _, err := c.Ingest("a", bad, 1, IngestOptions{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("non-finite point: got %v", err)
	}
	// Scoring against an unscored tenant.
	good := []float64{0.1, 0.2, 0.3, 0.4}
	if _, err := c.Ingest("a", good, 1, IngestOptions{Scored: true}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("scored ingest on unscored tenant: got %v", err)
	}
	st, err := c.TenantStats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != 0 {
		t.Fatalf("refused requests advanced the stream to tick %d", st.Tick)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after refusals: %v", err)
	}
}

// nanValue hides the NaN from constant folding.
func nanValue() float64 {
	zero := 0.0
	return zero / zero
}

// TestMalformedFrame feeds the server a frame with an invalid declared
// length: the server replies with the typed refusal, counts the fault,
// and drops only that connection.
func TestMalformedFrame(t *testing.T) {
	s, addr := startServer(t, Options{}, []TenantConfig{{Name: "a", Stream: testStream(2)}})

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Declared payload length 0 is below the type-byte minimum.
	if _, err := raw.Write([]byte{0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgError {
		t.Fatalf("got reply type %#x, want error frame", typ)
	}
	if err := decodeError(payload); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("malformed frame: got %v", err)
	}
	if got := s.badFrames.Load(); got != 1 {
		t.Fatalf("badFrames = %d, want 1", got)
	}
	// The rest of the server is unharmed.
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BadFrames != 1 || st.Draining {
		t.Fatalf("server status after malformed frame: %+v", st)
	}
}

// TestTruncatedFrameCounted sends a frame header that declares a
// payload, then hangs up before the first payload byte: that is a
// truncated frame, not a clean disconnect, so the server counts it in
// BadFrames exactly once and keeps serving.
func TestTruncatedFrameCounted(t *testing.T) {
	_, addr := startServer(t, Options{}, []TenantConfig{{Name: "a", Stream: testStream(2)}})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Declared length 5: the type byte plus four payload bytes that
	// never arrive.
	if _, err := raw.Write([]byte{5, 0, 0, 0, msgIngest}); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	c := dial(t, addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.BadFrames == 1 {
			break
		}
		if st.BadFrames > 1 || time.Now().After(deadline) {
			t.Fatalf("BadFrames = %d after one truncated frame, want 1", st.BadFrames)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedDecayTenants checks that tenants sharing a Lambda (and so
// one decay table) still produce verdicts identical to isolated
// oracles — sharing is an allocation optimisation, never a coupling.
func TestSharedDecayTenants(t *testing.T) {
	cfgA, cfgB := testStream(3), testStream(3)
	_, addr := startServer(t, Options{}, []TenantConfig{
		{Name: "a", Stream: cfgA},
		{Name: "b", Stream: cfgB},
	})
	c := dial(t, addr)

	flatA := genPoints(10, 120, 3)
	flatB := genPoints(11, 120, 3)
	oa, err := stream.New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer oa.Close()
	ob, err := stream.New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer ob.Close()

	for i := 0; i < 4; i++ {
		chunkA := flatA[i*30*3 : (i+1)*30*3]
		chunkB := flatB[i*30*3 : (i+1)*30*3]
		resA, err := c.Ingest("a", chunkA, 30, IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resB, err := c.Ingest("b", chunkB, 30, IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantA, wantB := make([]bool, 30), make([]bool, 30)
		if _, err := oa.ProcessBatch(chunkA, wantA, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ob.ProcessBatch(chunkB, wantB, nil); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 30; j++ {
			if resA.Verdicts[j] != wantA[j] || resB.Verdicts[j] != wantB[j] {
				t.Fatalf("batch %d point %d: tenant verdicts diverged from isolated oracles", i, j)
			}
		}
	}
}

// TestDrainAndRecover is the in-process half of the crash-recovery
// contract: a graceful Shutdown answers every admitted batch, takes a
// final checkpoint, and a new server over the same directory resumes
// at the drained tick with bit-identical verdicts on the suffix.
func TestDrainAndRecover(t *testing.T) {
	const dims, batch = 3, 40
	cfg := testStream(dims)
	dir := filepath.Join(t.TempDir(), "ckpt")
	flat := genPoints(7, 4*batch, dims)

	oracle, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	want := make([]bool, 4*batch)
	if _, err := oracle.ProcessBatch(flat, want, nil); err != nil {
		t.Fatal(err)
	}

	s1, err := New(Options{}, []TenantConfig{{Name: "a", Stream: cfg, Dir: dir, Keep: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- s1.Serve(ln) }()
	c1, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := c1.Ingest("a", flat[i*batch*dims:(i+1)*batch*dims], batch, IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range res.Verdicts {
			if v != want[i*batch+j] {
				t.Fatalf("pre-drain batch %d point %d diverged", i, j)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done1; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	// Requests after the drain are refused, typed.
	if _, err := c1.Ingest("a", flat[:batch*dims], batch, IngestOptions{}); err == nil {
		t.Fatal("ingest after drain succeeded")
	}
	c1.Close()

	// A new server over the same directory resumes at the drained tick.
	s2, addr := startServer(t, Options{}, []TenantConfig{{Name: "a", Stream: cfg, Dir: dir, Keep: 2}})
	ts, ok := s2.Tenant("a")
	if !ok {
		t.Fatal("tenant missing after recovery")
	}
	if ts.RecoveredTick != 2*batch {
		t.Fatalf("recovered at tick %d, want %d", ts.RecoveredTick, 2*batch)
	}
	if ts.RecoveredPath == "" || !ts.Checkpoint.Verified {
		t.Fatalf("recovery metadata incomplete: %+v", ts)
	}
	c2 := dial(t, addr)
	for i := 2; i < 4; i++ {
		res, err := c2.Ingest("a", flat[i*batch*dims:(i+1)*batch*dims], batch, IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.T0 != uint64(i*batch) {
			t.Fatalf("post-recovery batch %d: T0 %d, want %d", i, res.T0, i*batch)
		}
		for j, v := range res.Verdicts {
			if v != want[i*batch+j] {
				t.Fatalf("post-recovery batch %d point %d diverged from uninterrupted oracle", i, j)
			}
		}
	}
}

// TestShutdownIdempotent pins that a second Shutdown returns
// immediately without error.
func TestShutdownIdempotent(t *testing.T) {
	s, _ := startServer(t, Options{}, []TenantConfig{{Name: "a", Stream: testStream(2)}})
	ctx := context.Background()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestNewValidation covers constructor refusals: no tenants, duplicate
// names, oversized names, invalid stream configs.
func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}, nil); err == nil {
		t.Fatal("no tenants accepted")
	}
	cfg := testStream(2)
	if _, err := New(Options{}, []TenantConfig{
		{Name: "dup", Stream: cfg}, {Name: "dup", Stream: cfg},
	}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate tenants: got %v", err)
	}
	if _, err := New(Options{}, []TenantConfig{{Name: "", Stream: cfg}}); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	bad := cfg
	bad.Dims = 0
	if _, err := New(Options{}, []TenantConfig{{Name: "a", Stream: bad}}); err == nil {
		t.Fatal("invalid stream config accepted")
	}
}
