// Dynamic graphs: complex networks grow continuously ("large and
// ever-growing networks", paper Section 1). This example runs the
// repository's *live serving* subsystem end to end — the machinery that
// closes the gap to the FD baseline (Hayashi et al. 2016), which is
// dynamic on the insert side where the paper's labelling is static:
//
//  1. build a highway cover index over a social network and start a
//     live HTTP server with a write-ahead edge log;
//
//  2. stream new friendships into it over POST /edges while reading
//     distances over GET /distance — reads stay lock-free against an
//     atomically swapped snapshot;
//
//  3. cross the checkpoint threshold, so a background checkpoint
//     persists the served snapshot and compacts the WAL (visible in
//     /stats) — nothing is rebuilt, because every write already leaves
//     the labelling exact;
//
//  4. restart the server and show that the checkpoint plus WAL replay
//     reconstruct every acknowledged edge.
//
// Run with:
//
//	go run ./examples/dynamicgraph
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"highway"
)

func main() {
	g := highway.BarabasiAlbert(20_000, 4, 11)
	landmarks, err := highway.SelectLandmarks(g, 16, highway.ByDegree, 0)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := highway.BuildIndex(g, landmarks)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "dynamicgraph")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "edges.wal")
	graphPath := filepath.Join(dir, "g.hwg")
	indexPath := graphPath + ".idx"
	if err := highway.SaveGraph(g, graphPath); err != nil {
		log.Fatal(err)
	}
	if err := ix.Save(indexPath); err != nil {
		log.Fatal(err)
	}

	// Start a live server: durable updates, checkpoint once the WAL holds
	// 600 records (deliberately low so the example reaches it).
	startServer := func() (*highway.Server, string, context.CancelFunc) {
		wal, err := highway.OpenWAL(walPath)
		if err != nil {
			log.Fatal(err)
		}
		srv, err := highway.NewLiveServer(ix, highway.LiveConfig{WAL: wal, CheckpointThreshold: 600})
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := srv.Serve(ctx, ln); err != nil {
				log.Print(err)
			}
		}()
		url := "http://" + ln.Addr().String()
		return srv, url, func() { cancel(); <-done; srv.Close() }
	}

	srv, url, stop := startServer()

	getDistance := func(s, t int32) int32 {
		resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", url, s, t))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Distance int32 `json:"distance"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			log.Fatal(err)
		}
		return body.Distance
	}

	rng := rand.New(rand.NewSource(3))
	s, t := int32(rng.Intn(g.NumVertices())), int32(rng.Intn(g.NumVertices()))
	fmt.Printf("before updates: d(%d,%d) = %d\n", s, t, getDistance(s, t))

	// Stream 1,000 new friendships in batches of 50 over the wire. Each
	// acknowledged batch is fsynced to the WAL and visible to the very
	// next read.
	start := time.Now()
	accepted := 0
	for batch := 0; batch < 20; batch++ {
		edges := make([][]int32, 50)
		for i := range edges {
			edges[i] = []int32{int32(rng.Intn(g.NumVertices())), int32(rng.Intn(g.NumVertices()))}
		}
		body, _ := json.Marshal(map[string]any{"edges": edges})
		resp, err := http.Post(url+"/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var res highway.InsertResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		accepted += res.Accepted
	}
	fmt.Printf("streamed %d edge insertions over POST /edges in %s\n",
		accepted, time.Since(start).Round(time.Millisecond))
	fmt.Printf("after updates:  d(%d,%d) = %d (exact on the evolved graph)\n", s, t, getDistance(s, t))

	// Kill and restart. The 1,000 accepted edges crossed the 600-record
	// checkpoint threshold; stopping waits for that checkpoint, so its
	// counters (the same ones /stats shows) are final.
	dBefore := getDistance(s, t)
	stop()
	st := srv.LiveStats()
	fmt.Printf("checkpoints: %d (last took %.1fms); WAL compacted to %d records; snapshot epoch %d\n",
		st.Checkpoints, st.LastCheckpointMs, st.WALLen, st.Epoch)

	// The checkpoint's snapshot + WAL replay reconstruct every
	// acknowledged edge.
	srv2, err := highway.LoadLiveServer(graphPath, indexPath, walPath, highway.LiveConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	dAfter, err := srv2.Distance(s, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restart + WAL replay: d(%d,%d) = %d (was %d before the kill)\n", s, t, dAfter, dBefore)
	if dAfter != dBefore {
		log.Fatal("replay lost an acknowledged edge")
	}
}
