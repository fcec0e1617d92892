package main

import (
	"fmt"
	"math/rand"

	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/workload"
)

// Every workload's graph is gen.BarabasiAlbert(n, attach, seed); the
// servers index it with hlbuild's defaults, k = landmarks degree
// landmarks.
const (
	attach    = 5
	landmarks = 20
)

// generate builds the workload graph from the seed and writes it where
// hlbuild and hlserve read it. It returns the benchmark's own copy of
// the edge set and the graph file's path.
func (r *bench) generate(n int) (*mirror, string, error) {
	g := gen.BarabasiAlbert(n, attach, r.cfg.seed)
	r.env.Graph.Edges = g.NumEdges()
	path := r.path("graph.hwg")
	if err := g.SaveBinary(path); err != nil {
		return nil, "", fmt.Errorf("write graph: %w", err)
	}
	return newMirror(g), path, nil
}

// rng returns a generator for one named input stream of the run: the
// same seed and stream always give the same sequence, and different
// streams do not overlap.
func (r *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed*1_000_003 + stream))
}

// Stream ids of rng.
const (
	streamSample = iota + 1
	streamReads
	streamWrites
	streamBatches
	streamTrace
)

// mirror is the benchmark's own copy of the served graph: a plain
// adjacency list it mutates as writes are acknowledged. The oracle is a
// breadth-first search over it, independent of every labelling.
type mirror struct {
	adj [][]int32
}

func newMirror(g *graph.Graph) *mirror {
	n := g.NumVertices()
	m := &mirror{adj: make([][]int32, n)}
	for v := 0; v < n; v++ {
		m.adj[v] = append([]int32(nil), g.Neighbors(int32(v))...)
	}
	return m
}

func (m *mirror) n() int { return len(m.adj) }

func (m *mirror) has(a, b int32) bool {
	for _, x := range m.adj[a] {
		if x == b {
			return true
		}
	}
	return false
}

// apply applies one edge operation and reports whether it changed the
// graph: an insertion of an absent edge or a deletion of a present one.
// Self-loops never change it. This is the count a server's ack must
// report.
func (m *mirror) apply(op workload.EdgeOp) bool {
	a, b := op.A, op.B
	if a == b || m.has(a, b) != op.Del {
		return false
	}
	if op.Del {
		m.adj[a] = remove(m.adj[a], b)
		m.adj[b] = remove(m.adj[b], a)
	} else {
		m.adj[a] = append(m.adj[a], b)
		m.adj[b] = append(m.adj[b], a)
	}
	return true
}

func remove(xs []int32, x int32) []int32 {
	for i, y := range xs {
		if y == x {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}

// graph returns the mirrored edge set as a graph.
func (m *mirror) graph() (*graph.Graph, error) {
	b := graph.NewBuilder(m.n())
	for a, nb := range m.adj {
		for _, x := range nb {
			if int32(a) < x {
				b.AddEdge(int32(a), x)
			}
		}
	}
	return b.Build()
}

// bfs fills dist with the hop distance from src to every vertex, -1
// where unreachable.
func (m *mirror) bfs(src int32, dist []int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := []int32{src}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, u := range m.adj[v] {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				q = append(q, u)
			}
		}
	}
}

// sample is the gate's seeded read sample: pairs from a few sources,
// with the oracle's answer for each.
type sample struct {
	pairs [][2]int32
	want  []int32
}

// sample draws sources × perSource pairs from the seed and answers them
// on the mirror's current graph. The same seed gives the same pairs, so
// a later re-check (after writes or a restart) reuses the pairs and
// recomputes only the answers.
func (r *bench) sample(m *mirror, sources, perSource int) sample {
	rng := r.rng(streamSample)
	n := int32(m.n())
	s := sample{}
	for i := 0; i < sources; i++ {
		src := rng.Int31n(n)
		for j := 0; j < perSource; j++ {
			s.pairs = append(s.pairs, [2]int32{src, rng.Int31n(n)})
		}
	}
	s.want = m.answer(s.pairs)
	return s
}

// answer computes the oracle's answers for pairs grouped by source, one
// breadth-first search per distinct source.
func (m *mirror) answer(pairs [][2]int32) []int32 {
	want := make([]int32, len(pairs))
	dist := make([]int32, m.n())
	src := int32(-1)
	for i, p := range pairs {
		if p[0] != src {
			src = p[0]
			m.bfs(src, dist)
		}
		want[i] = dist[p[1]]
	}
	return want
}
