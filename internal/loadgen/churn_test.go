package loadgen

import (
	"context"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/landmark"
	"highway/internal/serve"
)

func liveTestServer(t *testing.T) (*serve.Server, int) {
	t.Helper()
	g := gen.BarabasiAlbert(400, 3, 7)
	lms, err := landmark.Select(g, landmark.Options{K: 8, Strategy: landmark.Degree})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewLive(ix, serve.LiveConfig{
		Config: serve.Config{ShutdownGrace: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, g.NumVertices()
}

// checkChurnResult extends checkResult with the churn-side invariants:
// mutations of both kinds happened and were timed.
func checkChurnResult(t *testing.T, r Result, opt Options) {
	t.Helper()
	checkResult(t, r, opt)
	if r.InsertOps == 0 || r.DeleteOps == 0 {
		t.Fatalf("churn run issued %d inserts, %d deletes — want both > 0", r.InsertOps, r.DeleteOps)
	}
	if r.MutationLatency == nil || r.MutationLatency.P50 <= 0 {
		t.Fatalf("churn run reported no mutation latency: %+v", r.MutationLatency)
	}
}

// TestChurnInProc is the zero-errors churn smoke under -race: mixed
// insert/delete mutations interleaved with the measured reads against
// live snapshot swaps, through the in-process path.
func TestChurnInProc(t *testing.T) {
	srv, n := liveTestServer(t)
	opt := Options{
		Workers: 3, Requests: 300, Warmup: 20, Batch: 4, N: n, Seed: 1,
		MemSample: time.Millisecond, Churn: 0.3, DeleteRatio: 0.4, Skew: 1.3,
	}
	r, err := Run(opt, InProcFactory(srv))
	if err != nil {
		t.Fatal(err)
	}
	r.Protocol = "inproc"
	checkChurnResult(t, r, opt)
	if st := srv.LiveStats(); st.AcceptedDeletes == 0 || st.EdgesDeleted == 0 {
		t.Fatalf("server saw no effective deletions: %+v", st)
	}
}

// TestChurnHTTP drives the same mix through POST/DELETE /edges.
func TestChurnHTTP(t *testing.T) {
	srv, n := liveTestServer(t)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	opt := Options{
		Workers: 2, Requests: 80, Warmup: 8, Batch: 4, N: n, Seed: 2,
		MemSample: time.Millisecond, Churn: 0.4, DeleteRatio: 0.4,
	}
	r, err := Run(opt, HTTPFactory(hs.URL))
	if err != nil {
		t.Fatal(err)
	}
	r.Protocol = "http"
	checkChurnResult(t, r, opt)
}

// TestChurnBinary drives the same mix through Insert/Delete frames.
func TestChurnBinary(t *testing.T) {
	srv, n := liveTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeBinary(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	opt := Options{
		Workers: 2, Requests: 80, Warmup: 8, Batch: 4, N: n, Seed: 3,
		MemSample: time.Millisecond, Churn: 0.4, DeleteRatio: 0.4,
	}
	r, err := Run(opt, BinaryFactory(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	r.Protocol = "binary"
	checkChurnResult(t, r, opt)
}

// TestChurnRequiresMutator: a churn run against a read-only target must
// fail up front with a diagnosis, not deep in a worker.
func TestChurnRequiresMutator(t *testing.T) {
	srv, n := testServer(t) // read-only serve.New server
	ro := InProcFactory(srv)
	roNoMutate := func(w int) (Target, error) {
		tg, err := ro(w)
		if err != nil {
			return nil, err
		}
		return struct{ Target }{tg}, nil // strips the Mutator method
	}
	_, err := Run(Options{Requests: 10, N: n, Churn: 0.5, MemSample: -1}, roNoMutate)
	if err == nil || !strings.Contains(err.Error(), "cannot mutate") {
		t.Fatalf("churn against a mutation-less target: err = %v", err)
	}
}
