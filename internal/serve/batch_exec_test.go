package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"highway/internal/method"
)

// countingIndex is a stub DistanceIndex whose searchers count Distance
// calls and can fire a callback at a chosen call number — the
// instrument behind the cancellation-bound tests: it makes "how many
// pairs ran after cancel" an exact observable instead of a timing
// guess.
type countingIndex struct {
	n        int
	calls    atomic.Int64
	cancelAt int64
	cancel   func()
	// delayAfter slows every query after the cancel point down, giving
	// an asynchronously-delivered cancellation (an HTTP client
	// disconnect crossing the transport) time to land while the batch
	// is still in flight.
	delayAfter time.Duration
}

type countingSearcher struct{ ix *countingIndex }

func (sr *countingSearcher) Distance(s, t int32) int32 {
	c := sr.ix.calls.Add(1)
	if sr.ix.cancelAt > 0 && c >= sr.ix.cancelAt {
		if c == sr.ix.cancelAt {
			sr.ix.cancel()
		}
		if sr.ix.delayAfter > 0 {
			time.Sleep(sr.ix.delayAfter)
		}
	}
	return 1
}
func (sr *countingSearcher) UpperBound(s, t int32) int32 { return 1 }

func (ix *countingIndex) Distance(s, t int32) int32    { return 1 }
func (ix *countingIndex) UpperBound(s, t int32) int32  { return 1 }
func (ix *countingIndex) NewSearcher() method.Searcher { return &countingSearcher{ix: ix} }
func (ix *countingIndex) Stats() method.Stats          { return method.Stats{NumVertices: ix.n} }
func (ix *countingIndex) Save(path string) error       { return nil }

// TestDistanceBatchContextCancel pins the cancellation bound: a context
// cancelled mid-batch stops the batch within ~method.CancelCheckEvery
// pairs (the in-flight chunk finishes, nothing after it starts) and
// surfaces ctx.Err() with the completed prefix.
func TestDistanceBatchContextCancel(t *testing.T) {
	ix := &countingIndex{n: 16, cancelAt: 100}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ix.cancel = cancel
	s := NewIndex(ix, Config{})
	pairs := make([][2]int32, 50*method.CancelCheckEvery)
	out, err := s.DistanceBatchContext(ctx, pairs, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	calls := ix.calls.Load()
	if calls > 2*method.CancelCheckEvery {
		t.Fatalf("%d pairs ran after cancelling at pair %d; want within ~%d",
			calls, ix.cancelAt, method.CancelCheckEvery)
	}
	if len(out) != int(calls) {
		t.Fatalf("returned prefix %d answers, %d pairs ran", len(out), calls)
	}
	for i, d := range out {
		if d != 1 {
			t.Fatalf("out[%d] = %d, want 1 (answers before the cancel point must be valid)", i, d)
		}
	}
}

// TestDistanceBatchContextPreCancelled: an already-dead context runs
// zero pairs.
func TestDistanceBatchContextPreCancelled(t *testing.T) {
	ix := &countingIndex{n: 16}
	s := NewIndex(ix, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := s.DistanceBatchContext(ctx, make([][2]int32, 10_000), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ix.calls.Load(); got != 0 {
		t.Fatalf("%d pairs ran under a pre-cancelled context", got)
	}
	if len(out) != 0 {
		t.Fatalf("got %d answers under a pre-cancelled context", len(out))
	}
}

// TestDistanceBatchNoContextCompletes pins the wrapper's contract: the
// context-free DistanceBatch always runs to completion.
func TestDistanceBatchNoContextCompletes(t *testing.T) {
	ix := &countingIndex{n: 16}
	s := NewIndex(ix, Config{})
	pairs := make([][2]int32, 3*method.CancelCheckEvery+7)
	out, err := s.DistanceBatch(pairs, nil)
	if err != nil || len(out) != len(pairs) {
		t.Fatalf("DistanceBatch: %v, %d answers", err, len(out))
	}
	if got := ix.calls.Load(); got != int64(len(pairs)) {
		t.Fatalf("%d pairs ran, want %d", got, len(pairs))
	}
}

// TestBatchHandlerClientDisconnect verifies the HTTP plumbing: when the
// batch client goes away mid-request, r.Context() cancellation reaches
// the executor and the handler abandons the remaining pairs instead of
// computing a response nobody reads. The stub cancels the client's
// request context from inside the 64th query, so the test is
// deterministic about *when* the disconnect happens; the bound is loose
// (a few chunks) because the transport delivers the disconnect
// asynchronously.
func TestBatchHandlerClientDisconnect(t *testing.T) {
	ix := &countingIndex{n: 16, cancelAt: 64, delayAfter: 50 * time.Microsecond}
	s := NewIndex(ix, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	total := 40 * method.CancelCheckEvery
	var body bytes.Buffer
	body.WriteString(`{"pairs":[`)
	for i := 0; i < total; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(`[1,2]`)
	}
	body.WriteString(`]}`)

	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	ix.cancel = ccancel
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, ts.URL+"/distance/batch", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded; want client-side cancellation")
	}
	// The handler has returned once the server drains; Close waits for
	// in-flight handlers, so after this the call count is final.
	ts.Close()
	if calls := ix.calls.Load(); calls >= int64(total) {
		t.Fatalf("handler answered all %d pairs after the client disconnected", total)
	} else if calls > 16*method.CancelCheckEvery {
		t.Fatalf("%d pairs ran after a disconnect at pair 64; want within a few %d-pair chunks",
			calls, method.CancelCheckEvery)
	}
}

// TestBatchEndpointTrailingOverCap pins the error taxonomy fix: a body
// whose valid JSON object is followed by bytes past the MaxBytesReader
// cap must surface as 413 naming the byte cap — previously the
// trailing-data check masked it as a generic 400.
func TestBatchEndpointTrailingOverCap(t *testing.T) {
	s := New(disconnectedIndex(t), Config{MaxBatch: 4}) // cap = 4*64+1024 bytes
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"pairs":[[0,1]]}` + strings.Repeat(" ", 2048)
	var e errorBody
	code := postJSON(t, ts.URL+"/distance/batch", body, &e)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%q), want 413", code, e.Error)
	}
	if !strings.Contains(e.Error, "1280 bytes") {
		t.Fatalf("error %q does not name the byte cap", e.Error)
	}
}

// TestInsertEndpointTrailingOverCap is the same taxonomy pin for the
// update endpoint.
func TestInsertEndpointTrailingOverCap(t *testing.T) {
	_, _, ix := liveBase(t, 60, 4)
	s, err := NewLive(ix, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.cfg.MaxBatch = 4 // cap = 1280 bytes
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"edge":[0,1]}` + strings.Repeat(" ", 2048)
	var e errorBody
	code := postJSON(t, ts.URL+"/edges", body, &e)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%q), want 413", code, e.Error)
	}
	if !strings.Contains(e.Error, "1280 bytes") {
		t.Fatalf("error %q does not name the byte cap", e.Error)
	}
}

// TestBatchRaceWithInserts drives concurrent batch reads against edge
// inserts on a live server — under -race this pins that the vectorized
// batch path only ever touches immutable snapshot state while writers
// publish new snapshots. Distances may differ between batches as edges
// land (each batch reads one consistent snapshot), so the assertions
// are shape and plausibility, not exact values.
func TestBatchRaceWithInserts(t *testing.T) {
	g, _, ix := liveBase(t, 300, 8)
	s, err := NewLive(ix, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	n := int32(g.NumVertices())

	// Source-skewed pairs so the vectorized group path runs.
	var body bytes.Buffer
	body.WriteString(`{"pairs":[`)
	for i := 0; i < 600; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteByte('[')
		body.WriteString(strconv.Itoa(i % 4))
		body.WriteByte(',')
		body.WriteString(strconv.Itoa(i % int(n)))
		body.WriteByte(']')
	}
	body.WriteString(`]}`)
	batchBody := body.String()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				resp, err := http.Post(ts.URL+"/distance/batch", "application/json", strings.NewReader(batchBody))
				if err != nil {
					t.Error(err)
					return
				}
				var br batchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("batch: %d %v", resp.StatusCode, err)
					return
				}
				if len(br.Distances) != 600 {
					t.Errorf("batch answered %d pairs", len(br.Distances))
					return
				}
				for _, d := range br.Distances {
					if d < -1 || d > n {
						t.Errorf("implausible distance %d", d)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			a, b := i%int(n), (i*7+1)%int(n)
			body := `{"edge":[` + strconv.Itoa(a) + `,` + strconv.Itoa(b) + `]}`
			resp, err := http.Post(ts.URL+"/edges", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("insert: %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
}
