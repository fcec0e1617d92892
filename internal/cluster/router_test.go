package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/landmark"
)

// TestRouterWaitsForBootstrap pins the router's readiness predicate: a
// follower that answers the wire but has not installed a snapshot yet
// is not a routable member — routed reads answer Unavailable/503
// instead of reaching its placeholder index — and it becomes one as
// soon as the primary's snapshot lands.
func TestRouterWaitsForBootstrap(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 5)
	lms, err := landmark.Select(g, landmark.Options{K: 6, Strategy: landmark.Degree})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	last := int32(g.NumVertices() - 1)
	fn := startFollower(t, "")
	defer fn.stop()
	rt, err := NewRouter(RouterConfig{Shards: [][]string{{fn.addr}}, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Wait until the router has probed the follower a few times (stats
	// or ping frames, whichever the probe sends), so both the first-dial
	// path and the periodic probe have had their say.
	probes := func() int64 {
		rec := httptest.NewRecorder()
		fn.f.Server().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var doc struct {
			Endpoints map[string]struct {
				Requests int64 `json:"requests"`
			} `json:"endpoints"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Endpoints["bin_stats"].Requests + doc.Endpoints["bin_ping"].Requests
	}
	waitUntil(t, "router probes", func() bool { return probes() >= 3 })

	if up := rt.Stats().MemberUp; up != 0 {
		t.Fatalf("member_up = %d while the follower awaits its snapshot, want 0", up)
	}
	if _, err := rt.Distance(context.Background(), 0, last); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("routed read before bootstrap: err = %v, want ErrUnavailable", err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/distance?s=0&t=%d", ts.URL, last))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("routed HTTP read before bootstrap: status %d, want 503", resp.StatusCode)
	}

	p := startPrimary(t, ix, filepath.Join(t.TempDir(), "edges.wal"), []string{fn.addr})
	defer p.stop()
	waitConverged(t, p, fn)
	waitUntil(t, "the bootstrapped follower to be routable", func() bool { return rt.Stats().MemberUp == 1 })
	for _, pr := range [][2]int32{{0, last}, {3, 17}, {42, 199}} {
		d, err := rt.Distance(context.Background(), pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		if want := ix.Distance(pr[0], pr[1]); d != want {
			t.Fatalf("routed d%v = %d, want %d", pr, d, want)
		}
	}
	resp, err = http.Get(fmt.Sprintf("%s/distance?s=0&t=%d", ts.URL, last))
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Distance int32 `json:"distance"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || dr.Distance != ix.Distance(0, last) {
		t.Fatalf("routed HTTP read after bootstrap: status %d, distance %d, err %v", resp.StatusCode, dr.Distance, err)
	}
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
