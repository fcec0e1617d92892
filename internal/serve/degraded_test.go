package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"highway/internal/failpoint"
	"highway/internal/workload"
)

// waitFor polls cond until it holds or the deadline passes.
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

// TestDegradedReadOnlyUnderFsyncFailure is the degraded-mode acceptance
// test (run under -race in CI): while the WAL's fsync persistently
// fails, the server keeps serving concurrent reads with zero errors,
// rejects every write with the degraded taxonomy starting from the very
// batch that hit the failure, flips /readyz (but not /healthz) to 503 —
// and re-enables writes on its own once the fault clears.
func TestDegradedReadOnlyUnderFsyncFailure(t *testing.T) {
	defer failpoint.Reset()
	g, _, ix := liveBase(t, 300, 6)
	_, _, walPath := saveBase(t, g, ix)
	wal, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLive(ix, LiveConfig{
		WAL:                   wal,
		CheckpointThreshold:   -1, // isolate degradation from checkpoints
		DegradedProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Healthy writes first: these must survive everything below.
	if _, err := s.InsertEdges([][2]int32{{0, 200}, {1, 201}}); err != nil {
		t.Fatal(err)
	}

	// Readers hammer the server across the whole degraded episode.
	pairs := workload.RandomPairs(g, 64, 7)
	var stop atomic.Bool
	var readErrs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := pairs[i%len(pairs)]
				if _, err := s.Distance(p.S, p.T); err != nil {
					readErrs.Add(1)
				}
			}
		}()
	}

	// Break the disk.
	if err := failpoint.Set(FPWALSync, "error(device gone)"); err != nil {
		t.Fatal(err)
	}
	// The very batch that hits the failure already carries the degraded
	// taxonomy — "within one batch", not eventually.
	if _, err := s.InsertEdges([][2]int32{{2, 202}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("first write under fsync failure: want ErrDegraded, got %v", err)
	}
	if !s.Degraded() {
		t.Fatal("server not degraded after WAL failure")
	}
	// Subsequent writes are shed before touching the WAL.
	if _, err := s.InsertEdges([][2]int32{{3, 203}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second write: want ErrDegraded, got %v", err)
	}

	// HTTP taxonomy: POST /edges → 503 + Retry-After, /readyz → 503,
	// /healthz stays 200 (the process is fine, only durability is gone).
	code, _, eb := postEdges(t, ts.URL, `{"edge":[4,204]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST /edges: code %d (%s), want 503", code, eb.Error)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /readyz: code %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded /healthz: code %d, want 200", resp.StatusCode)
	}

	st := s.LiveStats()
	if !st.Degraded || st.DegradedReason == "" || st.WritesRejected < 3 {
		t.Fatalf("degraded stats: %+v", st)
	}
	if st.WAL == nil || st.WAL.SyncErrors == 0 {
		t.Fatalf("wal stats missing sync errors: %+v", st.WAL)
	}

	// Let the readers run a while against the degraded server.
	time.Sleep(50 * time.Millisecond)

	// Fix the disk: the recovery probe must re-arm writes by itself.
	failpoint.Clear(FPWALSync)
	waitFor(t, 5*time.Second, "recovery", func() bool { return !s.Degraded() })
	if _, err := s.InsertEdges([][2]int32{{5, 205}}); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered /readyz: code %d, want 200", resp.StatusCode)
	}
	st = s.LiveStats()
	if st.Degraded || st.Recoveries != 1 {
		t.Fatalf("recovered stats: %+v", st)
	}

	stop.Store(true)
	wg.Wait()
	if n := readErrs.Load(); n != 0 {
		t.Fatalf("%d read errors during degraded episode, want 0", n)
	}

	// The log holds exactly the acknowledged batches: the two healthy
	// ones and the post-recovery one, none of the rejected ones.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	want := [][2]int32{{0, 200}, {1, 201}, {5, 205}}
	if len(w2.Recovered()) != len(want) {
		t.Fatalf("replayed %v, want %v", w2.Recovered(), want)
	}
	for i, e := range want {
		if w2.Recovered()[i] != opOf(e) {
			t.Fatalf("replayed %v, want %v", w2.Recovered(), want)
		}
	}
}

// TestCheckpointPersistFailureRetries pins the checkpoint failure
// policy: a failed snapshot persist leaves the WAL uncompacted and the
// served state untouched, the next attempt waits until the log has
// grown by another threshold (no retry storm, no timer), and that
// attempt succeeds once the fault clears.
func TestCheckpointPersistFailureRetries(t *testing.T) {
	defer failpoint.Reset()
	g, _, ix := liveBase(t, 300, 6)
	graphPath, indexPath, walPath := saveBase(t, g, ix)
	s, err := LoadLive(graphPath, indexPath, walPath, LiveConfig{CheckpointThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := failpoint.Set(FPSnapshotWrite, "1*error(disk full)"); err != nil {
		t.Fatal(err)
	}
	insert := func(lo, hi int32) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if _, err := s.InsertEdges([][2]int32{{i, 150 + i}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pairs := workload.RandomPairs(g, 100, 4)
	distances := func() []int32 {
		out := make([]int32, len(pairs))
		for i, p := range pairs {
			d, err := s.Distance(p.S, p.T)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = d
		}
		return out
	}

	insert(0, 4) // reaches the threshold: the checkpoint fails
	epoch, before := s.Epoch(), distances()
	waitFor(t, 10*time.Second, "the failed checkpoint", func() bool { return s.LiveStats().CheckpointErrors == 1 })
	if st := s.LiveStats(); st.WALLen != 4 || st.Checkpoints != 0 {
		t.Fatalf("after a failed persist: %+v, want the 4-record log kept and no checkpoint", st)
	}
	if _, err := os.Stat(walPath + ".snap"); !os.IsNotExist(err) {
		t.Fatalf("failed persist left a snapshot behind: %v", err)
	}
	if got := distances(); s.Epoch() != epoch || !slices.Equal(got, before) {
		t.Fatal("a failed checkpoint changed what readers see")
	}

	insert(4, 7) // 7 < 4+4: no retry yet
	if !checkpointIdle(s) || s.LiveStats().CheckpointErrors != 1 || s.LiveStats().Checkpoints != 0 {
		t.Fatalf("checkpoint retried before the log grew another threshold: %+v", s.LiveStats())
	}
	insert(7, 8) // 8: retry, and the fault has cleared
	waitFor(t, 10*time.Second, "the retried checkpoint", func() bool { return s.LiveStats().Checkpoints == 1 })
	if st := s.LiveStats(); st.WALLen != 0 || st.CheckpointErrors != 1 {
		t.Fatalf("after the retry: %+v, want a compacted log", st)
	}
	if _, err := os.Stat(walPath + ".snap"); err != nil {
		t.Fatalf("retried checkpoint persisted no snapshot: %v", err)
	}
}

// TestReadyzOnReadOnlyServer pins that /readyz exists (200) on servers
// without a writer side at all.
func TestReadyzOnReadOnlyServer(t *testing.T) {
	_, _, ix := liveBase(t, 200, 4)
	s := New(ix, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code %d, want 200", ep, resp.StatusCode)
		}
	}
}
