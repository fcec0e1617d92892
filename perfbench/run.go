package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// bench is the state of one invocation: its configuration, scratch
// directory, the server processes it started, the correctness gate and
// every metric measured so far.
type bench struct {
	cfg     config
	stderr  io.Writer
	dir     string // generated inputs and server files; removed by close
	started time.Time
	env     envRecord
	gate    *gate
	metrics map[string]measured

	mu    sync.Mutex
	procs []*proc

	// tamper, when set, replaces the oracle's answer before the gate
	// compares it: the benchmark's own test uses it to prove that one
	// wrong answer fails the run.
	tamper func(want int32) int32
}

// envRecord is stored with every result: what ran, on what, with which
// inputs.
type envRecord struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Trace      bool        `json:"trace"`
	Commit     string      `json:"commit"`
	Dirty      string      `json:"dirty"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPUModel   string      `json:"cpu_model"`
	Graph      graphParams `json:"graph"`
	Traffic    string      `json:"traffic"`
}

type graphParams struct {
	Generator string `json:"generator"`
	N         int    `json:"n"`
	Attach    int    `json:"attach"`
	Edges     int64  `json:"m"`
	Landmarks int    `json:"landmarks"`
	Strategy  string `json:"landmark_strategy"`
}

func newRun(cfg config, stderr io.Writer) (*bench, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "work-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	r := &bench{cfg: cfg, stderr: stderr, dir: dir, started: time.Now(),
		gate: &gate{stderr: stderr}, metrics: map[string]measured{}}
	commit, dirty := gitState()
	r.env = envRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Commit: commit, Dirty: dirty,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(),
	}
	return r, nil
}

// execute runs the configured workload. Server processes are stopped by
// close, on every path.
func (r *bench) execute(ctx context.Context) error {
	wl := workloads[r.cfg.workload]
	p := wl.params(r.cfg.tiny)
	r.env.Graph = graphParams{Generator: "gen.BarabasiAlbert", N: p.n, Attach: attach,
		Landmarks: landmarks, Strategy: "degree"}
	r.env.Traffic = p.describe()
	return wl.run(ctx, r, p)
}

// close stops every process the run started, waits for each to exit,
// and removes the scratch directory.
func (r *bench) close() {
	r.mu.Lock()
	procs := r.procs
	r.procs = nil
	r.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	if err := os.RemoveAll(r.dir); err != nil {
		fmt.Fprintln(r.stderr, "perfbench: removing scratch directory:", err)
	}
}

func (r *bench) path(name string) string { return filepath.Join(r.dir, name) }

// set records one metric.
func (r *bench) set(name, unit string, v float64, samples int) {
	r.metrics[name] = measured{Value: v, Unit: unit, Samples: samples}
}

// setMedian records the median of a duration sample in unit (s, ms or us).
func (r *bench) setMedian(name, unit string, xs []time.Duration) {
	if len(xs) == 0 {
		return
	}
	r.set(name, unit, scale(quantile(xs, 0.5), unit), len(xs))
}

// setLatency records the p50 and the tail percentiles a sample supports
// under prefix: p90 needs 100 samples, p99 needs 1000, so at least ten
// stand beyond each reported percentile.
func (r *bench) setLatency(prefix, unit string, xs []time.Duration) {
	if len(xs) == 0 {
		return
	}
	r.set(prefix+"_p50_"+unit, unit, scale(quantile(xs, 0.5), unit), len(xs))
	if len(xs) >= 100 {
		r.set(prefix+"_p90_"+unit, unit, scale(quantile(xs, 0.9), unit), len(xs))
	}
	if len(xs) >= 1000 {
		r.set(prefix+"_p99_"+unit, unit, scale(quantile(xs, 0.99), unit), len(xs))
	}
}

func scale(d time.Duration, unit string) float64 {
	switch unit {
	case "s":
		return d.Seconds()
	case "ms":
		return float64(d) / 1e6
	case "us":
		return float64(d) / 1e3
	}
	panic("perfbench: unknown time unit " + unit)
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []time.Duration, q float64) time.Duration {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// gate is the correctness gate: every operation the benchmark issues is
// attempted; failures, sheds and wrong answers or acks all count as
// failed, and any of them fails the run.
type gate struct {
	stderr    io.Writer
	attempted atomic.Int64
	failed    atomic.Int64 // transport or server errors
	shed      atomic.Int64 // requests refused by admission control
	wrong     atomic.Int64 // answers or acks that disagree with the oracle
	mu        sync.Mutex
	logged    int
}

const maxLogged = 10

func (g *gate) logf(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.logged < maxLogged {
		fmt.Fprintf(g.stderr, "perfbench: gate: "+format+"\n", args...)
	}
	g.logged++
}

// fail records a failed operation that was not otherwise attempted
// (for example a missing metric).
func (g *gate) fail(format string, args ...any) {
	g.attempted.Add(1)
	g.failed.Add(1)
	g.logf(format, args...)
}

// op accounts one attempted operation and its outcome.
func (g *gate) op(err error) {
	g.attempted.Add(1)
	if err == nil {
		return
	}
	if isShed(err) {
		g.shed.Add(1)
	} else {
		g.failed.Add(1)
	}
	g.logf("%v", err)
}

// check accounts one answer checked against the oracle.
func (g *gate) check(what string, got, want int64) {
	g.attempted.Add(1)
	if got != want {
		g.wrong.Add(1)
		g.logf("%s: got %d, want %d", what, got, want)
	}
}

func (g *gate) failedTotal() int64 { return g.failed.Load() + g.shed.Load() + g.wrong.Load() }

func (g *gate) ratio() float64 {
	a := g.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(g.failedTotal()) / float64(a)
}

func (g *gate) ok() bool { return g.failedTotal() == 0 && g.attempted.Load() > 0 }

// gitState reports the commit of the working tree and whether it has
// uncommitted changes; "unknown" unless the working directory is the
// root of a git checkout (git may not search the directories above it).
func gitState() (commit, dirty string) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", "unknown"
	}
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		return cmd.Output()
	}
	out, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", "unknown"
	}
	commit = strings.TrimSpace(string(out))
	st, err := git("status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return commit, "unknown"
	}
	if len(strings.TrimSpace(string(st))) > 0 {
		return commit, "true"
	}
	return commit, "false"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
