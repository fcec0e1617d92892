package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// buildSUT builds the system under test into a temporary directory.
func buildSUT(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "highway/cmd/hlbuild", "highway/cmd/hlserve").CombinedOutput()
	if err != nil {
		t.Fatalf("building hlbuild and hlserve: %v\n%s", err, out)
	}
	return bin
}

// reportedMetrics lists, per workload, the end-to-end metrics the report
// must print in addition to the gated ones.
var reportedMetrics = map[string][]string{
	"point-reads":    {"fail_ratio", "read_p50_us", "read_p90_us", "read_p99_us", "read_pairs_s"},
	"source-batches": {"fail_ratio", "read_p50_us", "read_p90_us", "read_p99_us", "read_pairs_s"},
	"churn": {"fail_ratio", "read_p50_us", "read_p90_us", "read_p99_us",
		"write_p50_ms", "write_p90_ms", "writes_per_s", "recovery_s"},
	"routed-churn": {"fail_ratio", "read_p50_us", "read_p90_us", "read_p99_us",
		"write_p50_ms", "write_p90_ms", "repl_lag_p50_ms", "repl_lag_p90_ms"},
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks the output contract: the result line carries exactly the
// gated metrics with their units, the report prints every end-to-end
// metric of the workload with a unit, and the run passes the gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin := buildSUT(t)
	out := t.TempDir()
	for _, wl := range slices.Sorted(func(yield func(string) bool) {
		for name := range workloads {
			if !yield(name) {
				return
			}
		}
	}) {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "3", "--trace", trace,
					"-tiny", "-bin", bin, "-out", out}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				res, report := parseOutput(t, stdout.String())
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result %+v, want correct with failed=0", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, name := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit == "" {
						t.Errorf("result metric %s missing or without unit: %+v", name, m)
					}
				}
				if trace == "0" {
					for _, name := range append(slices.Clone(endToEnd), reportedMetrics[wl]...) {
						if report[name] == "" {
							t.Errorf("report does not print %s with a unit", name)
						}
					}
				}
			})
		}
	}
}

// parseOutput splits a run's standard output into the result line and
// the report's metric units by name.
func parseOutput(t *testing.T, stdout string) (result, map[string]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout)
	}
	units := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(stdout))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 4 && f[0] == "metric" {
			units[f[1]] = f[3]
		}
	}
	return res, units
}

// TestGateTripsOnOneWrongAnswer runs a workload whose oracle disagrees
// with the server on exactly one sample answer: the run must report it
// as failed and exit non-zero.
func TestGateTripsOnOneWrongAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin := buildSUT(t)
	var stdout, stderr bytes.Buffer
	cfg, err := parseFlags([]string{"--workload", "point-reads", "--seed", "3", "--seconds", "1", "-tiny",
		"-bin", bin, "-out", t.TempDir()}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRun(cfg, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	r.tamper = func(want int32) int32 {
		if tampered {
			return want
		}
		tampered = true
		return want + 1
	}
	code := r.finishRun(r.execute(context.Background()), &stdout)
	res, _ := parseOutput(t, stdout.String())
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Fatalf("exit %d, result %+v: want a non-zero exit and exactly one failure", code, res)
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's metric lists to the
// ones the result line carries.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(doc.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, want %v", got, endToEnd)
	}
	if got := names(doc.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, want %v", got, perLayer)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
}
