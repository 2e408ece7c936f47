package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"spot/internal/server"
)

// daemon is one spotd process started by the benchmark.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// startDaemon launches spotd on an ephemeral loopback port and returns
// once it has published its address. Output goes to <work>/<name>.log.
func (r *run) startDaemon(name string, args ...string) (*daemon, error) {
	if r.spotd == "" {
		return nil, fmt.Errorf("no spotd binary given (-spotd)")
	}
	addrFile := filepath.Join(r.work, name+".addr")
	os.Remove(addrFile)
	logPath := filepath.Join(r.work, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	args = append([]string{"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-id", name}, args...)
	cmd := exec.Command(r.spotd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the harness itself die, take the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start spotd %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	r.mu.Lock()
	r.procs[d] = true
	r.mu.Unlock()
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.done)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-d.done:
			r.forget(d)
			return nil, fmt.Errorf("spotd %s exited before serving (%v); see %s", name, d.err, logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			r.stop(d)
			return nil, fmt.Errorf("spotd %s did not publish its address within 30s", name)
		}
	}
}

// stop drains a daemon with SIGTERM, killing it if the drain hangs,
// and waits for it to exit.
func (r *run) stop(d *daemon) error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	r.forget(d)
	return d.err
}

func (r *run) forget(d *daemon) {
	r.mu.Lock()
	delete(r.procs, d)
	r.mu.Unlock()
}

// killAll kills every daemon still running and waits for each.
func (r *run) killAll() {
	r.mu.Lock()
	live := make([]*daemon, 0, len(r.procs))
	for d := range r.procs {
		live = append(live, d)
	}
	r.procs = map[*daemon]bool{}
	r.mu.Unlock()
	for _, d := range live {
		d.cmd.Process.Kill()
		<-d.done
	}
}

// dial connects a client with deadlines short enough that a hung
// daemon fails the run well inside its time limit.
func dial(addr string) (*server.Client, error) {
	return server.DialOptions(addr, server.ClientOptions{
		DialTimeout:  5 * time.Second,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 10 * time.Second,
	})
}

// waitTenant polls until the daemon answers ping and reports the
// tenant's status, and returns that status.
func waitTenant(addr, tenant string, within time.Duration) (server.TenantStatus, error) {
	deadline := time.Now().Add(within)
	for {
		c, err := dial(addr)
		if err == nil {
			ts, err := func() (server.TenantStatus, error) {
				defer c.Close()
				if err := c.Ping(); err != nil {
					return server.TenantStatus{}, err
				}
				return c.TenantStats(tenant)
			}()
			if err == nil {
				return ts, nil
			}
		}
		if time.Now().After(deadline) {
			return server.TenantStatus{}, fmt.Errorf("tenant %s at %s not ready within %s: %v", tenant, addr, within, err)
		}
		time.Sleep(time.Millisecond)
	}
}
