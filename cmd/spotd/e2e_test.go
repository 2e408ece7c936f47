package main

import (
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"spot/internal/server"
	"spot/internal/stream"
)

// buildOnce compiles the spotd binary one time for every e2e test in
// the run.
var buildOnce = struct {
	sync.Once
	path string
	err  error
}{}

// spotdBinary returns the path of a freshly built spotd binary.
func spotdBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "spotd-e2e-*")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "spotd")
		cmd := exec.Command("go", "build", "-o", bin, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildOnce.err = errors.New(string(out))
			return
		}
		buildOnce.path = bin
	})
	if buildOnce.err != nil {
		t.Fatalf("building spotd: %v", buildOnce.err)
	}
	return buildOnce.path
}

// daemon is one running spotd process under test.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemon launches spotd with an ephemeral port and waits for the
// address file — the same discovery contract a supervisor would use.
func startDaemon(t *testing.T, dataDir string, extra ...string) *daemon {
	t.Helper()
	bin := spotdBinary(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-listen", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-data", dataDir,
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	var addr string
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			addr = string(raw)
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("spotd never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}
	d := &daemon{cmd: cmd, addr: addr}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	return d
}

// tenantFlag is the one tenant every e2e test serves: small, unscored,
// no warmup so verdicts appear immediately.
const (
	e2eDims    = 3
	e2eBatch   = 32
	e2eBatches = 12
	e2eTenant  = "-tenant"
	e2eSpec    = "e2e:dims=3,warmup=0"
)

// e2eConfig mirrors e2eSpec for the in-process oracle.
func e2eConfig() stream.Config {
	cfg := stream.DefaultConfig(e2eDims)
	cfg.Warmup = 0
	return cfg
}

// e2ePoints generates the deterministic stream shared by daemon and
// oracle.
func e2ePoints() []float64 {
	rng := rand.New(rand.NewSource(99))
	flat := make([]float64, e2eBatch*e2eBatches*e2eDims)
	for i := range flat {
		flat[i] = 0.25 + 0.5*rng.Float64()
		if i%101 == 47 {
			flat[i] = rng.Float64()
		}
	}
	return flat
}

// oracleVerdicts runs the whole stream through one uninterrupted
// detector.
func oracleVerdicts(t *testing.T, flat []float64) []bool {
	t.Helper()
	det, err := stream.New(e2eConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	want := make([]bool, e2eBatch*e2eBatches)
	if _, err := det.ProcessBatch(flat, want, nil); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestE2ECrashRecovery is the kill -9 drill: stream into a live spotd,
// SIGKILL it mid-stream, restart over the same data directory, replay
// the suffix from the recovered tick, and require zero verdict
// divergence against an uninterrupted oracle.
func TestE2ECrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon")
	}
	dataDir := t.TempDir()
	flat := e2ePoints()
	want := oracleVerdicts(t, flat)

	// Checkpoint every batch so the crash loses at most the in-flight
	// tail.
	d1 := startDaemon(t, dataDir, e2eTenant, e2eSpec, "-checkpoint-points", "32")
	c1, err := server.Dial(d1.addr)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch := func(c *server.Client, i int) {
		t.Helper()
		res, err := c.Ingest("e2e", flat[i*e2eBatch*e2eDims:(i+1)*e2eBatch*e2eDims], e2eBatch, server.IngestOptions{})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if res.T0 != uint64(i*e2eBatch) {
			t.Fatalf("batch %d: T0 %d, want %d", i, res.T0, i*e2eBatch)
		}
		for j, v := range res.Verdicts {
			if v != want[i*e2eBatch+j] {
				t.Fatalf("batch %d point %d diverged from oracle", i, j)
			}
		}
	}
	const crashAfter = 7
	for i := 0; i < crashAfter; i++ {
		checkBatch(c1, i)
	}

	// SIGKILL: no drain, no final checkpoint, connections torn.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.cmd.Wait()
	c1.Close()

	// Restart over the same directory: spotd must come back at a batch
	// boundary no later than the crash point.
	d2 := startDaemon(t, dataDir, e2eTenant, e2eSpec, "-checkpoint-points", "32")
	c2, err := server.Dial(d2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ts, err := c2.TenantStats("e2e")
	if err != nil {
		t.Fatal(err)
	}
	if ts.RecoveredPath == "" {
		t.Fatal("restarted daemon did not recover from a checkpoint")
	}
	if ts.RecoveredTick%e2eBatch != 0 || ts.RecoveredTick == 0 || ts.RecoveredTick > crashAfter*e2eBatch {
		t.Fatalf("recovered tick %d: want a non-zero batch boundary <= %d", ts.RecoveredTick, crashAfter*e2eBatch)
	}

	// Replay the lost suffix and continue the stream to the end: every
	// verdict must match the uninterrupted oracle bit for bit.
	for i := int(ts.RecoveredTick) / e2eBatch; i < e2eBatches; i++ {
		checkBatch(c2, i)
	}
}

// TestE2ESigtermDrain is the graceful half: SIGTERM must drain, take a
// final checkpoint covering every acknowledged point, and exit 0; the
// next start resumes exactly at the drained tick.
func TestE2ESigtermDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon")
	}
	dataDir := t.TempDir()
	flat := e2ePoints()
	want := oracleVerdicts(t, flat)

	// No cadence: durability comes purely from the drain checkpoint.
	d1 := startDaemon(t, dataDir, e2eTenant, e2eSpec, "-checkpoint-points", "0", "-checkpoint-interval", "0")
	c1, err := server.Dial(d1.addr)
	if err != nil {
		t.Fatal(err)
	}
	const sent = 5
	for i := 0; i < sent; i++ {
		res, err := c1.Ingest("e2e", flat[i*e2eBatch*e2eDims:(i+1)*e2eBatch*e2eDims], e2eBatch, server.IngestOptions{})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for j, v := range res.Verdicts {
			if v != want[i*e2eBatch+j] {
				t.Fatalf("batch %d point %d diverged from oracle", i, j)
			}
		}
	}

	if err := d1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d1.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM drain exited non-zero: %v", err)
	}
	c1.Close()

	d2 := startDaemon(t, dataDir, e2eTenant, e2eSpec)
	c2, err := server.Dial(d2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ts, err := c2.TenantStats("e2e")
	if err != nil {
		t.Fatal(err)
	}
	if ts.RecoveredTick != sent*e2eBatch {
		t.Fatalf("recovered tick %d: the drain checkpoint must cover all %d acknowledged points", ts.RecoveredTick, sent*e2eBatch)
	}
	// The stream continues seamlessly from the drained boundary.
	for i := sent; i < e2eBatches; i++ {
		res, err := c2.Ingest("e2e", flat[i*e2eBatch*e2eDims:(i+1)*e2eBatch*e2eDims], e2eBatch, server.IngestOptions{})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for j, v := range res.Verdicts {
			if v != want[i*e2eBatch+j] {
				t.Fatalf("post-drain batch %d point %d diverged from oracle", i, j)
			}
		}
	}
}
