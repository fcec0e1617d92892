package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"highway"
)

// writeIndexedGraph saves a small graph and its index side by side and
// returns the graph path.
func writeIndexedGraph(t *testing.T) string {
	t.Helper()
	g := highway.BarabasiAlbert(300, 3, 5)
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.hwg")
	if err := highway.SaveGraph(g, gp); err != nil {
		t.Fatal(err)
	}
	lms, err := highway.SelectLandmarks(g, 8, highway.ByDegree, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := highway.BuildIndex(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(gp + ".idx"); err != nil {
		t.Fatal(err)
	}
	return gp
}

func TestHelpListsCommands(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"help"}, nil, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"serve", "batch", "load", "genpairs"} {
		if !strings.Contains(out.String(), cmd) {
			t.Fatalf("help output lacks %q:\n%s", cmd, out.String())
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"frobnicate"}, nil, &out, io.Discard); err == nil {
		t.Fatal("want error for unknown command")
	}
	if err := run(nil, nil, &out, io.Discard); err == nil {
		t.Fatal("want error for missing command")
	}
}

func TestGenpairsAndLoad(t *testing.T) {
	gp := writeIndexedGraph(t)

	var pairs bytes.Buffer
	if err := run([]string{"genpairs", "-graph", gp, "-n", "100", "-seed", "1"}, nil, &pairs, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(pairs.String()), "\n")
	if len(lines) != 100 {
		t.Fatalf("genpairs emitted %d lines, want 100", len(lines))
	}
	if len(strings.Fields(lines[0])) != 2 {
		t.Fatalf("bad pair line %q", lines[0])
	}

	var out bytes.Buffer
	if err := run([]string{"load", "-graph", gp, "-n", "500", "-seed", "1", "-workers", "2"}, nil, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "500 pairs") {
		t.Fatalf("load output %q lacks pair count", out.String())
	}
}

// TestLoadProtocols drives the harness through every wire protocol
// against a self-hosted loopback listener: the one-command
// protocol-overhead comparison must work end to end.
func TestLoadProtocols(t *testing.T) {
	gp := writeIndexedGraph(t)
	for _, proto := range []string{"inproc", "http", "binary"} {
		var out bytes.Buffer
		args := []string{"load", "-graph", gp, "-n", "200", "-workers", "2", "-batch", "4", "-proto", proto, "-warmup", "2"}
		if err := run(args, nil, &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		got := out.String()
		if !strings.Contains(got, "200 pairs") || !strings.Contains(got, "p99") || !strings.Contains(got, proto) {
			t.Fatalf("%s load output %q lacks pairs/percentiles/protocol", proto, got)
		}
	}
}

// TestLoadSweepJSON pins the -parallel sweep and the BENCH_SERVE.json
// report shape.
func TestLoadSweepJSON(t *testing.T) {
	gp := writeIndexedGraph(t)
	jp := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	args := []string{"load", "-graph", gp, "-n", "100", "-parallel", "1,2", "-json", jp}
	if err := run(args, nil, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	var rp struct {
		Command string `json:"command"`
		Runs    []struct {
			Protocol string  `json:"protocol"`
			Workers  int     `json:"workers"`
			QPS      float64 `json:"qps"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(b, &rp); err != nil {
		t.Fatal(err)
	}
	if len(rp.Runs) != 2 || rp.Runs[0].Workers != 1 || rp.Runs[1].Workers != 2 {
		t.Fatalf("report runs %+v", rp.Runs)
	}
	for _, r := range rp.Runs {
		if r.Protocol != "inproc" || r.QPS <= 0 {
			t.Fatalf("bad run %+v", r)
		}
	}
	if !strings.Contains(rp.Command, "-parallel 1,2") {
		t.Fatalf("report command %q does not reproduce the invocation", rp.Command)
	}
}

// TestLoadFlagValidation pins that bad flag combinations fail at parse
// time, before any index is loaded (the graph path here does not even
// exist).
func TestLoadFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"load", "-graph", "nope.hwg", "-proto", "grpc"}, "-proto"},
		{[]string{"load", "-graph", "nope.hwg", "-batch", "0"}, "-batch"},
		{[]string{"load", "-graph", "nope.hwg", "-parallel", "1,zero"}, "-parallel"},
	} {
		err := run(tc.args, nil, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("args %v: err = %v, want mention of %q", tc.args, err, tc.want)
		}
	}
}

func TestBatchFromStdin(t *testing.T) {
	gp := writeIndexedGraph(t)

	var out, errOut bytes.Buffer
	in := strings.NewReader("0 1\n5 9\n")
	if err := run([]string{"batch", "-graph", gp, "-workers", "2"}, in, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "2 pairs") {
		t.Fatalf("stats line %q lacks pair count", errOut.String())
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(got) != 2 {
		t.Fatalf("batch wrote %d lines, want 2: %q", len(got), out.String())
	}

	// Distances must match the library answer on the same pairs.
	g, err := highway.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := highway.LoadIndex(gp+".idx", g)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []highway.Pair{{S: 0, T: 1}, {S: 5, T: 9}} {
		want := strconv.Itoa(int(ix.Distance(p.S, p.T)))
		if got[i] != want {
			t.Fatalf("line %d = %q, want %s", i, got[i], want)
		}
	}
}

func TestMissingGraphFlag(t *testing.T) {
	var out bytes.Buffer
	for _, cmd := range []string{"load", "genpairs", "serve"} {
		if err := run([]string{cmd}, nil, &out, io.Discard); err == nil {
			t.Fatalf("%s without -graph: want error", cmd)
		}
	}
}

func TestServeBadWALPath(t *testing.T) {
	gp := writeIndexedGraph(t)
	var out bytes.Buffer
	err := run([]string{"serve", "-graph", gp, "-wal", filepath.Join(gp, "impossible", "edges.wal")}, nil, &out, io.Discard)
	if err == nil {
		t.Fatal("want error for unopenable WAL path")
	}
}

// writeMethodIndex builds a non-hl index next to the graph, for the
// generic serving paths.
func writeMethodIndex(t *testing.T, methodName string) (graphPath, indexPath string) {
	t.Helper()
	g := highway.BarabasiAlbert(300, 3, 5)
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.hwg")
	if err := highway.SaveGraph(g, gp); err != nil {
		t.Fatal(err)
	}
	ix, err := highway.Build(context.Background(), g, methodName, highway.WithLandmarkCount(8))
	if err != nil {
		t.Fatal(err)
	}
	ip := gp + ".idx"
	if err := ix.Save(ip); err != nil {
		t.Fatal(err)
	}
	return gp, ip
}

// TestBatchAnyMethod runs the offline batch pipeline over a PLL index:
// the shared loader must detect the method tag and the generic server
// must answer through the interface.
func TestBatchAnyMethod(t *testing.T) {
	gp, _ := writeMethodIndex(t, "pll")
	var out, errOut bytes.Buffer
	in := strings.NewReader("0 1\n5 9\n")
	if err := run([]string{"batch", "-graph", gp, "-workers", "2"}, in, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(got) != 2 {
		t.Fatalf("batch wrote %d lines, want 2: %q", len(got), out.String())
	}
	g, err := highway.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := highway.Build(context.Background(), g, "pll")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range [][2]int32{{0, 1}, {5, 9}} {
		if want := fmt.Sprint(ix.Distance(p[0], p[1])); got[i] != want {
			t.Fatalf("pair %v: batch says %s, index says %s", p, got[i], want)
		}
	}
}

// TestServeMethodMismatch pins the -method cross-check: pointing serve
// at a pll file while asking for hl must fail loudly before listening.
func TestServeMethodMismatch(t *testing.T) {
	gp, ip := writeMethodIndex(t, "pll")
	err := run([]string{"serve", "-graph", gp, "-index", ip, "-method", "hl", "-addr", "127.0.0.1:0"},
		nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"pll"`) {
		t.Fatalf("err = %v, want a method-mismatch error naming pll", err)
	}
	// A WAL needs the hl pipeline.
	err = run([]string{"serve", "-graph", gp, "-index", ip, "-wal", filepath.Join(t.TempDir(), "edges.wal"), "-addr", "127.0.0.1:0"},
		nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "hl index") {
		t.Fatalf("err = %v, want the -wal/-method conflict", err)
	}
	// A churn load needs hl too.
	err = run([]string{"load", "-graph", gp, "-index", ip, "-n", "10", "-churn", "0.5"},
		nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "hl index") {
		t.Fatalf("err = %v, want the -churn restriction", err)
	}
}
