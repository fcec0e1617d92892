// Command perfbench is the serving stack's benchmark. It generates a
// seeded Barabási–Albert graph, starts the shipped hlbuild and hlserve
// binaries as the system under test, drives one workload against them
// from this single load process, checks the answers against a
// label-free BFS oracle, and prints the end-to-end metrics. With
// -trace 1 it then replays the workload's inputs through each layer's
// public Go functions and prints the per-layer metrics instead.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload churn --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Every line before it is the human-readable report: the environment
// record and every metric of the workload, gated or not, with its unit
// and sample count. The exit code is non-zero when the correctness gate
// tripped or the run could not complete. README.md in this directory
// explains the workloads and the baseline.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding hlbuild and hlserve
	out      string // directory for inputs, logs, results and spans
	tiny     bool   // shrink every graph and rate (the smoke test)
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&c.seed, "seed", 1, "input seed: the same seed generates the same graph and requests")
	fs.Float64Var(&c.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = replay the inputs layer by layer and print the per-layer metrics")
	fs.StringVar(&c.bin, "bin", "", "directory holding the hlbuild and hlserve binaries (required)")
	fs.StringVar(&c.out, "out", ".bench_build", "directory for generated inputs, logs, results and spans")
	fs.BoolVar(&c.tiny, "tiny", false, "shrink graphs and rates to a smoke-test scale")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, ok := workloads[c.workload]; !ok {
		return c, fmt.Errorf("unknown -workload %q (want %s)", c.workload, workloadNames())
	}
	if c.bin == "" {
		return c, fmt.Errorf("-bin is required")
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1")
	}
	c.trace = trace == 1
	return c, nil
}

// run executes one invocation and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, b := range []string{"hlbuild", "hlserve"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			fmt.Fprintln(stderr, "perfbench: system under test not built:", err)
			return 2
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r, err := newRun(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return r.finishRun(r.execute(ctx), stdout)
}

// finishRun stops the run's processes and, unless the run failed,
// prints the report and the result line; it returns the exit code.
func (r *bench) finishRun(err error, stdout io.Writer) int {
	stderr := r.stderr
	r.close()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := r.result()
	r.set("fail_ratio", "ratio", r.gate.ratio(), 0)
	r.report(stdout)
	if err := r.writeResults(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res)
}

// exitCode maps a finished run to the process exit code: any failed,
// shed or wrong operation trips the correctness gate.
func exitCode(res result) int {
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measured is one metric as the report prints it: value, unit, and the
// number of samples behind it (0 for single measurements and counts).
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// endToEnd and perLayer are the metrics BENCHMARK.json lists, in its
// order: the result line carries exactly these (endToEnd without
// -trace, perLayer with it). Each is measured on every workload; the
// report adds the workload-specific metrics of the layers a workload
// alone exercises.
var (
	endToEnd = []string{"setup_s", "rss_mb", "index_mb"}
	perLayer = []string{
		"graph.load_ms", "core.load_ms", "landmark.select_ms", "core.build_ms",
		"core.build_edges_scanned", "dynhl.from_core_ms", "serve.snapshot_encode_ms",
		"serve.load_live_ms", "core.new_searcher_us",
		"hlclient.distance_us", "serve.distance_us", "wire.overhead_us",
		"core.upper_bound_us", "core.label_entries_per_pair", "bfs.bibfs_us",
		"core.bound_exact_ratio", "bfs.improved_ratio",
		"http.batch_ms", "serve.batch_ms", "method.chunked_batch_ms", "core.batch_ms",
		"http.codec_ms", "http.bytes_per_pair", "serve.wal_append_ms",
		"runtime.alloc_bytes_per_read", "runtime.gc_pause_ms", "loadgen.trace_overhead_ratio",
	}
)

func (r *bench) result() result {
	names := endToEnd
	if r.cfg.trace {
		names = perLayer
	}
	res := result{
		Correct:   r.gate.ok(),
		Attempted: r.gate.attempted.Load(),
		Failed:    r.gate.failedTotal(),
		Metrics:   make(map[string]metric, len(names)),
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	for _, name := range names {
		m, ok := r.metrics[name]
		if !ok {
			r.gate.fail("metric %s was not measured", name)
			res.Correct = false
			continue
		}
		res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return res
}

// report prints the human-readable part of the output: the environment
// record, every metric measured, and the gate's accounting.
func (r *bench) report(w io.Writer) {
	env, _ := json.Marshal(r.env)
	fmt.Fprintf(w, "env %s\n", env)
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		if m.Samples > 0 {
			fmt.Fprintf(w, "metric %-32s %14.4f %-8s samples=%d\n", name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "metric %-32s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	g := r.gate
	fmt.Fprintf(w, "gate attempted=%d failed=%d shed=%d wrong=%d fail_ratio=%.6f\n",
		g.attempted.Load(), g.failed.Load(), g.shed.Load(), g.wrong.Load(), g.ratio())
}

// writeResults stores the environment, every metric and the result line
// under the output directory, one file per run.
func (r *bench) writeResults(res result) error {
	dir := filepath.Join(r.cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Env     envRecord           `json:"env"`
		Metrics map[string]measured `json:"metrics"`
		Result  result              `json:"result"`
	}{r.env, r.metrics, res}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.runName()+".json"), b, 0o644)
}

func (r *bench) runName() string {
	return fmt.Sprintf("%s-seed%d-trace%d-%s", r.cfg.workload, r.cfg.seed, boolInt(r.cfg.trace), r.started.Format("20060102T150405"))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// duration is the measured time per run.
func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }
