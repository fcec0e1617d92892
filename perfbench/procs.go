package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"highway/internal/hlclient"
	"highway/internal/wire"
)

// proc is one server process of the system under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has exited
	err  error         // exit status, valid after done
}

// start launches bin/<args[0]> with the rest of args, logging its output
// to a file in the scratch directory. The process is stopped by r.close
// at the latest; it is also killed if the benchmark dies first.
func (r *bench) start(name string, args ...string) (*proc, error) {
	logPath := r.path(name + ".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(r.cfg.bin, args[0]), args[1:]...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	r.mu.Lock()
	r.procs = append(r.procs, p)
	r.mu.Unlock()
	return p, nil
}

// stop asks the process to shut down gracefully and waits for it to
// exit, killing it if it has not within the grace period.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled by the wait below
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// stopProc stops p and drops it from the run's process list.
func (r *bench) stopProc(p *proc) {
	p.stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, q := range r.procs {
		if q == p {
			r.procs = append(r.procs[:i], r.procs[i+1:]...)
			break
		}
	}
}

// exited reports an error naming the process and the tail of its log
// when it has exited.
func (p *proc) exited() error {
	select {
	case <-p.done:
		return fmt.Errorf("%s exited (%v): %s", p.name, p.err, tail(p.log))
	default:
		return nil
	}
}

func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	s := strings.TrimSpace(string(b))
	if len(s) > 600 {
		s = "…" + s[len(s)-600:]
	}
	return s
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// hlbuild builds the index of the graph file with hlbuild's
// defaults (k = 20 degree landmarks), next to the graph file.
func (r *bench) hlbuild(graphPath string) error {
	out, err := exec.Command(filepath.Join(r.cfg.bin, "hlbuild"), "-graph", graphPath).CombinedOutput()
	if err != nil {
		return fmt.Errorf("hlbuild: %v: %s", err, out)
	}
	return nil
}

// freeAddrs returns k distinct loopback addresses whose ports were free
// a moment ago. The ports are drawn below the kernel's ephemeral range
// (32768 and up by default), so neither the benchmark's own outgoing
// connections nor another listener on port 0 can take one before the
// server binds it; all k stay bound until every one is chosen, so they
// are distinct.
func freeAddrs(k int) ([]string, error) {
	const lo, hi = 20000, 32000
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	out := make([]string, 0, k)
	for tries := 0; len(out) < k; tries++ {
		if tries == 1000 {
			return nil, fmt.Errorf("no free loopback port in [%d,%d)", lo, hi)
		}
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", lo+rng.Intn(hi-lo)))
		if err != nil {
			continue // taken; draw another
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// clientConfig is the binary client every benchmark connection uses:
// one connection, no retries and no circuit breaker, so every failed or
// shed request reaches the gate instead of being retried away.
var clientConfig = hlclient.Config{PoolSize: 1, MaxRetries: -1, BreakerThreshold: -1}

func dial(ctx context.Context, addr string) (*hlclient.Client, error) {
	return hlclient.Dial(ctx, addr, clientConfig)
}

// awaitAnswer polls the binary listener at addr until it answers the
// query (s,t) without error, and returns a client connected to it. It
// fails when one of the watched processes exits or the deadline passes.
func awaitAnswer(ctx context.Context, addr string, s, t int32, watch ...*proc) (*hlclient.Client, error) {
	deadline := time.Now().Add(120 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		for _, p := range watch {
			if err := p.exited(); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		actx, cancel := context.WithTimeout(ctx, time.Second)
		cl, err := dial(actx, addr)
		if err == nil {
			_, err = cl.Distance(actx, s, t)
			if err == nil {
				cancel()
				return cl, nil
			}
			cl.Close()
		}
		cancel()
		last = err
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("no answer from %s: %v", addr, last)
}

// isShed reports whether err is a request refused by the server's
// admission control rather than a failure.
func isShed(err error) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) && re.Code == wire.CodeOverloaded || errors.Is(err, errHTTPShed)
}

var errHTTPShed = errors.New("http 429: shed by admission control")
