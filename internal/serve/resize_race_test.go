package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/graph"
	"highway/internal/wire"
)

// TestPublishResizeRace is the follower-bootstrap race under -race: a
// follower starts on a 1-vertex placeholder and Publish swaps in a full
// index, so the vertex range a read is validated against must be the
// one of the snapshot that answers it. Publish alternates a 1-vertex
// and an N-vertex index while readers ask for vertex N-1 over Go, HTTP
// and the binary protocol; every answer must be either out of range or
// the right distance, and nothing may panic.
func TestPublishResizeRace(t *testing.T) {
	big := testIndex(t)
	n := int32(big.Graph().NumVertices())
	small, err := core.BuildParallel(graph.MustFromEdges(1, nil), []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int32{{0, n - 1}, {n - 1, 1}}
	want := []int32{big.Distance(0, n-1), big.Distance(n-1, 1)}

	s := New(small, Config{ShutdownGrace: time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.ServeBinary(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("ServeBinary: %v", err)
		}
	}()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := uint64(1); !stop.Load(); e++ {
			if e%2 == 0 {
				s.Publish(small, e)
			} else {
				s.Publish(big, e)
			}
			runtime.Gosched()
		}
	}()

	// check accepts an answer slice or an out-of-range rejection.
	check := func(proto string, got []int32, rangeErr bool) error {
		if rangeErr {
			return nil
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("%s: d%v = %d, want %d", proto, pairs[i], got[i], want[i])
			}
		}
		return nil
	}
	readers := map[string]func() error{
		"go": func() error {
			d, err := s.Distance(pairs[0][0], pairs[0][1])
			if err != nil && !errors.Is(err, errOutOfRange) {
				return err
			}
			if err := check("go single", []int32{d}, err != nil); err != nil {
				return err
			}
			ds, err := s.DistanceBatch(pairs, nil)
			if err != nil && !errors.Is(err, errOutOfRange) {
				return err
			}
			return check("go batch", ds, err != nil)
		},
		"http": func() error {
			resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, pairs[0][0], pairs[0][1]))
			if err != nil {
				return err
			}
			var dr distanceResponse
			err = json.NewDecoder(resp.Body).Decode(&dr)
			resp.Body.Close()
			if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest) {
				return fmt.Errorf("http single: status %d, %v", resp.StatusCode, err)
			}
			if err := check("http single", []int32{dr.Distance}, resp.StatusCode != http.StatusOK); err != nil {
				return err
			}
			body := fmt.Sprintf(`{"pairs":[[%d,%d],[%d,%d]]}`, pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1])
			resp, err = http.Post(ts.URL+"/distance/batch", "application/json", strings.NewReader(body))
			if err != nil {
				return err
			}
			var br batchResponse
			err = json.NewDecoder(resp.Body).Decode(&br)
			resp.Body.Close()
			if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest) {
				return fmt.Errorf("http batch: status %d, %v", resp.StatusCode, err)
			}
			return check("http batch", br.Distances, resp.StatusCode != http.StatusOK)
		},
	}
	c, r, w := binConn(t, ln.Addr().String())
	defer c.Close()
	binRoundTrip := func(typ wire.Type, payload []byte) (wire.Type, []byte, error) {
		if err := w.WriteFrame(typ, payload); err != nil {
			return 0, nil, err
		}
		if err := w.Flush(); err != nil {
			return 0, nil, err
		}
		return r.ReadFrame()
	}
	binRange := func(typ wire.Type, p []byte) (bool, error) {
		if typ != wire.TError {
			return false, nil
		}
		code, msg, err := wire.DecodeError(p)
		if err == nil && code != wire.CodeRange {
			err = fmt.Errorf("binary: error %v: %s", code, msg)
		}
		return true, err
	}
	readers["binary"] = func() error {
		typ, p, err := binRoundTrip(wire.TDistance, wire.AppendPair(nil, pairs[0][0], pairs[0][1]))
		if err != nil {
			return err
		}
		rangeErr, err := binRange(typ, p)
		if err != nil {
			return err
		}
		var d int32
		if !rangeErr {
			if d, err = wire.DecodeDistance(p); err != nil {
				return err
			}
		}
		if err := check("binary single", []int32{d}, rangeErr); err != nil {
			return err
		}
		typ, p, err = binRoundTrip(wire.TBatch, wire.AppendPairs(nil, pairs))
		if err != nil {
			return err
		}
		if rangeErr, err = binRange(typ, p); err != nil {
			return err
		}
		var ds []int32
		if !rangeErr {
			if ds, err = wire.DecodeDistances(p, nil); err != nil {
				return err
			}
		}
		return check("binary batch", ds, rangeErr)
	}

	errs := make(chan error, len(readers))
	var rwg sync.WaitGroup
	for name, read := range readers {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < 400; i++ {
				if err := read(); err != nil {
					errs <- fmt.Errorf("%s reader, query %d: %w", name, i, err)
					return
				}
			}
		}()
	}
	rwg.Wait()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
