package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
)

// TestLiveConcurrentChurnHTTP drives POST /edges, DELETE /edges and
// POST /distance/batch concurrently against per-write snapshot swaps
// and background checkpoints — the schedule the race detector needs to see. Unlike the
// insert-only stress test there is no monotonic-distance invariant
// (deletions legitimately raise distances), so the invariants here are:
//
//   - reads never error: every batch query returns 200 with one
//     in-range answer per pair, through every swap and WAL append;
//   - every mutation is acked (this test injects no faults, so the
//     degraded taxonomy should never fire);
//   - the counters reconcile: accepted insert/delete op totals on
//     /stats equal what the writers were acked for.
func TestLiveConcurrentChurnHTTP(t *testing.T) {
	const (
		nVertices = 400
		rounds    = 40
		nReaders  = 3
	)
	g, _, ix := liveBase(t, nVertices, 8)
	graphPath, indexPath, _ := saveBase(t, g, ix)
	walPath := filepath.Join(t.TempDir(), "churn.wal")
	// Threshold low enough that the churn triggers checkpoints (snapshot
	// persists and WAL compactions) while the writers and readers are
	// live.
	srv, err := LoadLive(graphPath, indexPath, walPath, LiveConfig{CheckpointThreshold: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The deleter targets real base edges (captured up front, so no
	// coordination with the inserter is needed): those deletions dirty
	// landmarks and force actual repair work under the churn. Repeats
	// are acked no-ops by contract.
	var baseEdges [][2]int32
	for v := int32(0); v < nVertices; v++ {
		for _, u := range g.Neighbors(v) {
			if v < u {
				baseEdges = append(baseEdges, [2]int32{v, u})
			}
		}
	}

	do := func(method, body string) (int, []byte, error) {
		req, err := http.NewRequest(method, ts.URL+"/edges", bytes.NewReader([]byte(body)))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, err
	}
	edgesBody := func(edges [][2]int32) string {
		raw, _ := json.Marshal(map[string]any{"edges": edges})
		return string(raw)
	}

	errc := make(chan error, 2+nReaders)
	var wg sync.WaitGroup

	// Writer 1: inserts random pairs.
	wg.Add(1)
	var inserted int64
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(41))
		for r := 0; r < rounds; r++ {
			batch := randBatch(rng, nVertices, 3)
			code, raw, err := do(http.MethodPost, edgesBody(batch))
			if err != nil || code != http.StatusOK {
				errc <- fmt.Errorf("insert round %d: code %d err %v body %q", r, code, err, raw)
				return
			}
			inserted += int64(len(batch))
		}
	}()

	// Writer 2: deletes base edges.
	wg.Add(1)
	var deleted int64
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(43))
		for r := 0; r < rounds; r++ {
			batch := [][2]int32{
				baseEdges[rng.Intn(len(baseEdges))],
				baseEdges[rng.Intn(len(baseEdges))],
			}
			code, raw, err := do(http.MethodDelete, edgesBody(batch))
			if err != nil || code != http.StatusOK {
				errc <- fmt.Errorf("delete round %d: code %d err %v body %q", r, code, err, raw)
				return
			}
			deleted += int64(len(batch))
		}
	}()

	// Readers: POST /distance/batch must succeed with sane answers on
	// every snapshot the churn publishes.
	for i := 0; i < nReaders; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds*2; r++ {
				pairs := make([][2]int32, 64)
				for i := range pairs {
					pairs[i] = [2]int32{rng.Int31n(nVertices), rng.Int31n(nVertices)}
				}
				raw, _ := json.Marshal(map[string]any{"pairs": pairs})
				resp, err := http.Post(ts.URL+"/distance/batch", "application/json", bytes.NewReader(raw))
				if err != nil {
					errc <- fmt.Errorf("reader %d round %d: %v", seed, r, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("reader %d round %d: code %d err %v body %q", seed, r, resp.StatusCode, err, body)
					return
				}
				var br struct {
					Distances []int32 `json:"distances"`
				}
				if err := json.Unmarshal(body, &br); err != nil {
					errc <- fmt.Errorf("reader %d round %d: decoding %q: %v", seed, r, body, err)
					return
				}
				if len(br.Distances) != len(pairs) {
					errc <- fmt.Errorf("reader %d round %d: %d answers for %d pairs", seed, r, len(br.Distances), len(pairs))
					return
				}
				for j, d := range br.Distances {
					if d < -1 || int(d) >= nVertices {
						errc <- fmt.Errorf("reader %d round %d: pair %d: insane distance %d", seed, r, j, d)
						return
					}
				}
			}
		}(int64(100 + i))
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	st := srv.LiveStats()
	if st.AcceptedEdges != inserted || st.AcceptedDeletes != deleted {
		t.Fatalf("counters do not reconcile: accepted %d/%d inserts, %d/%d deletes",
			st.AcceptedEdges, inserted, st.AcceptedDeletes, deleted)
	}
	if st.EdgesDeleted == 0 {
		t.Fatal("no deletion took effect: the deleter never exercised the repair path")
	}
}
