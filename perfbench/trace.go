package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"highway/internal/bfs"
	"highway/internal/core"
	"highway/internal/dynhl"
	"highway/internal/graph"
	"highway/internal/hlclient"
	"highway/internal/landmark"
	"highway/internal/method"
	"highway/internal/serve"
	"highway/internal/workload"
)

// The traced run. After the untraced workload, it replays the
// workload's inputs through successively deeper public entry points,
// one depth after the other, under one request id:
//
//	read:  hlclient.Client.Distance → serve.Server.Distance →
//	       core.Searcher.Distance → core.Searcher.UpperBound, bfs.BoundedBiBFS
//	batch: HTTP POST /distance/batch → serve.Server.DistanceBatch →
//	       method.DistanceBatchContext, core.Searcher.DistanceBatch
//	write: hlclient insert/delete → serve.Server.InsertEdges/DeleteEdges →
//	       serve.WAL.AppendOps, dynhl.Index.ApplyOps, dynhl.Index.Freeze,
//	       core.Index.NewSearcher
//
// Spans (name, start, end, parent, request id) stay in memory and are
// written to <out>/spans/ when the run ends. Because each depth runs on
// its own, a layer's self time is its span minus its children's spans
// of the same request, and the derived metrics (wire.overhead_us,
// http.codec_ms, cluster.router_hop_us) are those per-request
// differences. Every depth's answer is also checked against the
// others, so the replay doubles as a cross-layer correctness check.

type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// next returns a fresh request id.
func (t *tracer) next() int64 { t.req++; return t.req }

func (t *tracer) begin(name string, req int64, parent int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	sp := &t.spans[id]
	sp.End = int64(time.Since(t.t0))
	return time.Duration(sp.End - sp.Start)
}

// timed runs fn as a root span of its own request.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	id := t.begin(name, t.next(), -1)
	err := fn()
	return t.end(id), err
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced holds the in-process copies of the served state that the
// deeper depths of the replay run against.
type traced struct {
	r   *bench
	ctx context.Context
	tr  *tracer
	ix  *core.Index // the index the read depths query (current state)
	srv *serve.Server

	samples map[string][]time.Duration
	ms0     runtime.MemStats
}

func (r *bench) newTraced(ctx context.Context) *traced {
	t := &traced{r: r, ctx: ctx, tr: newTracer(), samples: map[string][]time.Duration{}}
	runtime.ReadMemStats(&t.ms0)
	return t
}

func (t *traced) add(name string, d time.Duration) { t.samples[name] = append(t.samples[name], d) }

// layers times the set-up layers on the workload's own files: graph
// and index load, landmark selection and construction, the dynamic
// conversion, snapshot encoding, and a live load from a copy of walSrc
// (the run's WAL; a fresh one when walSrc is empty).
func (t *traced) layers(graphPath, walSrc string) error {
	r := t.r
	tr := t.tr
	var g *graph.Graph
	d, err := tr.timed("graph.LoadBinary", func() (e error) { g, e = graph.LoadBinary(graphPath); return })
	if err != nil {
		return err
	}
	r.set("graph.load_ms", "ms", scale(d, "ms"), 0)
	d, err = tr.timed("core.Load", func() (e error) { t.ix, e = core.Load(graphPath+".idx", g); return })
	if err != nil {
		return err
	}
	r.set("core.load_ms", "ms", scale(d, "ms"), 0)
	var lms []int32
	d, err = tr.timed("landmark.Select", func() (e error) {
		lms, e = landmark.Select(g, landmark.Options{K: landmarks, Strategy: landmark.Degree})
		return
	})
	if err != nil {
		return err
	}
	r.set("landmark.select_ms", "ms", scale(d, "ms"), 0)
	var scanned int64
	d, err = tr.timed("core.BuildOpts", func() error {
		built, e := core.BuildOpts(t.ctx, g, lms, core.Options{})
		if e == nil {
			scanned = built.BuildStats().Traversal.EdgesScanned()
		}
		return e
	})
	if err != nil {
		return err
	}
	r.set("core.build_ms", "ms", scale(d, "ms"), 0)
	r.set("core.build_edges_scanned", "count", float64(scanned), 0)
	d, err = tr.timed("dynhl.FromCore", func() error { _, e := dynhl.FromCore(t.ix); return e })
	if err != nil {
		return err
	}
	r.set("dynhl.from_core_ms", "ms", scale(d, "ms"), 0)
	d, err = tr.timed("serve.EncodeSnapshot", func() error { return serve.EncodeSnapshot(io.Discard, g, t.ix) })
	if err != nil {
		return err
	}
	r.set("serve.snapshot_encode_ms", "ms", scale(d, "ms"), 0)
	wal := r.path("trace-load.wal")
	if walSrc != "" {
		if err := copyFile(walSrc, wal); err != nil {
			return err
		}
		if _, err := os.Stat(walSrc + ".snap"); err == nil {
			if err := copyFile(walSrc+".snap", wal+".snap"); err != nil {
				return err
			}
		}
	}
	d, err = tr.timed("serve.LoadLive", func() error {
		s, e := serve.LoadLive(graphPath, graphPath+".idx", wal, serve.LiveConfig{})
		if e != nil {
			return e
		}
		return s.Close()
	})
	if err != nil {
		return err
	}
	r.set("serve.load_live_ms", "ms", scale(d, "ms"), 0)
	return nil
}

// walAppends times single-op WAL appends with fsync for a workload
// without writes of its own: the control on which the WAL should show
// no change.
func (t *traced) walAppends(ops *workload.OpStream, k int) error {
	w, err := serve.OpenWAL(t.r.path("trace-append.wal"))
	if err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		op := ops.Next()
		d, err := t.tr.timed("serve.WAL.AppendOps", func() error {
			return w.AppendOps([]dynhl.Op{{A: op.A, B: op.B, Del: op.Del}})
		})
		if err != nil {
			w.Close()
			return err
		}
		t.add("serve.wal_append_ms", d)
	}
	return w.Close()
}

// readTargets are the depth-0 endpoints of a traced read: the
// workload's read path, and (routed-churn) the follower directly.
type readTargets struct {
	cl       *hlclient.Client
	follower *hlclient.Client // nil unless routed
}

// reads replays k uniform pairs through every read depth.
func (t *traced) reads(tg readTargets, k int) {
	r, tr, ix := t.r, t.tr, t.ix
	g := ix.Graph()
	sr := ix.Searcher()
	skip := make([]bool, g.NumVertices())
	for _, v := range ix.Landmarks() {
		skip[v] = true
	}
	sc := bfs.NewScratch(g.NumVertices())
	next := r.pairSource(streamTrace, g.NumVertices())
	// Warm every depth first: the first request on a fresh searcher
	// pool allocates its search scratch.
	for i := 0; i < 10; i++ {
		s, v := next()
		_, _ = tg.cl.Distance(t.ctx, s, v) // untimed warm-up; the timed loop checks errors
		_, _ = t.srv.Distance(s, v)
		_ = sr.Distance(s, v)
	}
	var entries, exact, calls, improved int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < k; i++ {
		s, v := next()
		req := tr.next()
		id0 := tr.begin("hlclient.Client.Distance", req, -1)
		d0, err := tg.cl.Distance(t.ctx, s, v)
		t0 := tr.end(id0)
		r.gate.op(err)
		if err != nil {
			continue
		}
		t.add("hlclient.distance_us", t0)
		if tg.follower != nil {
			idf := tr.begin("hlclient.Client.Distance(follower)", req, -1)
			df, err := tg.follower.Distance(t.ctx, s, v)
			tf := tr.end(idf)
			r.gate.op(err)
			r.gate.check("traced follower read", int64(df), int64(d0))
			t.add("cluster.router_hop_us", t0-tf)
		}
		id1 := tr.begin("serve.Server.Distance", req, id0)
		d1, err := t.srv.Distance(s, v)
		t1 := tr.end(id1)
		r.gate.op(err)
		t.add("serve.distance_us", t1)
		t.add("wire.overhead_us", t0-t1)
		id2 := tr.begin("core.Searcher.Distance", req, id1)
		d2 := sr.Distance(s, v)
		tr.end(id2)
		id3 := tr.begin("core.Searcher.UpperBound", req, id2)
		ub := sr.UpperBound(s, v)
		t.add("core.upper_bound_us", tr.end(id3))
		entries += ix.LabelSize(s) + ix.LabelSize(v)
		d3 := ub
		if s != v && !skip[s] && !skip[v] {
			bound := ub
			if ub == core.Infinity {
				bound = bfs.NoBound
			}
			id4 := tr.begin("bfs.BoundedBiBFS", req, id2)
			d3 = bfs.BoundedBiBFS(g, s, v, bound, skip, sc)
			t.add("bfs.bibfs_us", tr.end(id4))
			calls++
			if d3 >= 0 && (bound == bfs.NoBound || d3 < bound) {
				improved++
			}
		}
		if ub == d2 {
			exact++
		}
		r.gate.check(fmt.Sprintf("traced serve read %d,%d", s, v), int64(d1), int64(d0))
		r.gate.check(fmt.Sprintf("traced core read %d,%d", s, v), int64(d2), int64(d0))
		r.gate.check(fmt.Sprintf("traced bound+bibfs read %d,%d", s, v), int64(d3), int64(d0))
	}
	runtime.ReadMemStats(&ms1)
	if n := len(t.samples["hlclient.distance_us"]); n > 0 {
		r.set("core.label_entries_per_pair", "count", float64(entries)/float64(n), n)
		r.set("core.bound_exact_ratio", "ratio", float64(exact)/float64(n), n)
		r.set("runtime.alloc_bytes_per_read", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n), n)
	}
	if calls > 0 {
		r.set("bfs.improved_ratio", "ratio", float64(improved)/float64(calls), calls)
	} else {
		r.set("bfs.improved_ratio", "ratio", 0, 0)
	}
}

// batches replays batch requests through every batch depth.
func (t *traced) batches(url string, reqs []batchReq) {
	r, tr := t.r, t.tr
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	sr := t.ix.Searcher()
	var bytes, pairs int
	for _, b := range reqs {
		req := tr.next()
		id0 := tr.begin("http.POST /distance/batch", req, -1)
		got0, size, err := postBatch(hc, url, b.body, len(b.pairs))
		t0 := tr.end(id0)
		r.gate.op(err)
		if err != nil {
			continue
		}
		bytes += len(b.body) + size
		pairs += len(b.pairs)
		t.add("http.batch_ms", t0)
		id1 := tr.begin("serve.Server.DistanceBatch", req, id0)
		got1, err := t.srv.DistanceBatch(b.pairs, nil)
		t1 := tr.end(id1)
		r.gate.op(err)
		t.add("serve.batch_ms", t1)
		t.add("http.codec_ms", t0-t1)
		id2 := tr.begin("method.DistanceBatchContext", req, id1)
		got2, err := method.DistanceBatchContext(t.ctx, sr, b.pairs, nil)
		t.add("method.chunked_batch_ms", tr.end(id2))
		r.gate.op(err)
		id3 := tr.begin("core.Searcher.DistanceBatch", req, id1)
		got3 := sr.DistanceBatch(b.pairs, nil)
		t.add("core.batch_ms", tr.end(id3))
		r.gate.check("traced batch: serve answers differing from HTTP", int64(mismatches(got1, got0)), 0)
		r.gate.check("traced batch: chunked answers differing from HTTP", int64(mismatches(got2, got0)), 0)
		r.gate.check("traced batch: core answers differing from HTTP", int64(mismatches(got3, got0)), 0)
	}
	if pairs > 0 {
		r.set("http.bytes_per_pair", "B", float64(bytes)/float64(pairs), pairs)
	}
}

func mismatches(a, b []int32) int {
	if len(a) != len(b) {
		return len(b) + 1
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// live is the in-process replica of a live deployment the write depths
// run against: a live server with its own WAL, and a raw chain of the
// layers beneath it (WAL, dynamic labelling, frozen snapshot).
type live struct {
	srv *serve.Server
	wal *serve.WAL
	dyn *dynhl.Index
}

// newLive builds the in-process replica of the deployment's current
// state: a fresh build of the mirrored graph on the served landmarks,
// which the dynamic labelling's invariant makes identical to the
// served index.
func (t *traced) newLive(m *mirror) (*live, error) {
	g, err := m.graph()
	if err != nil {
		return nil, err
	}
	ix, err := core.BuildOpts(t.ctx, g, t.ix.Landmarks(), core.Options{})
	if err != nil {
		return nil, err
	}
	w, err := serve.OpenWAL(t.r.path("trace-live.wal"))
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewLive(ix, serve.LiveConfig{WAL: w})
	if err != nil {
		return nil, err // NewLive closed the WAL
	}
	raw, err := serve.OpenWAL(t.r.path("trace-raw.wal"))
	if err != nil {
		srv.Close()
		return nil, err
	}
	dyn, err := dynhl.FromCore(ix)
	if err != nil {
		srv.Close()
		raw.Close()
		return nil, err
	}
	t.ix, t.srv = ix, srv
	return &live{srv: srv, wal: raw, dyn: dyn}, nil
}

func (l *live) close() {
	l.srv.Close()
	l.wal.Close()
}

// writeTarget is a depth-0 endpoint of traced writes; metric names the
// sample (and the span) its round trips are recorded under.
type writeTarget struct {
	cl     *hlclient.Client
	metric string
}

// writes replays k operations of the workload's write stream through
// every write depth. Operations alternate over targets (routed-churn
// sends every other write straight to the primary); after each write,
// await (when set) waits for the follower to apply it.
func (t *traced) writes(l *live, m *mirror, ops *workload.OpStream, k int, targets []writeTarget,
	await func(epoch uint64) error) error {
	r, tr := t.r, t.tr
	var dirty, rebuilt, noop int
	before := l.dyn.Maint()
	for i := 0; i < k; i++ {
		op := ops.Next()
		req := tr.next()
		tg := targets[i%len(targets)]
		id0 := tr.begin(tg.metric, req, -1)
		a, err := write(t.ctx, tg.cl, op)
		t.add(tg.metric, tr.end(id0))
		r.gate.op(err)
		if err != nil {
			continue
		}
		r.checkAcks(m, []ack{a})
		if await != nil {
			if err := await(a.epoch); err != nil {
				return err
			}
		}
		e := [][2]int32{{op.A, op.B}}
		id1 := tr.begin("serve.Server.write", req, id0)
		var changed int
		if op.Del {
			res, e := l.srv.DeleteEdges(e)
			changed, err = res.Deleted, e
		} else {
			res, e := l.srv.InsertEdges(e)
			changed, err = res.Inserted, e
		}
		t.add("serve.write_ms", tr.end(id1))
		r.gate.op(err)
		r.gate.check("traced in-process write ack", int64(changed), int64(a.changed))
		dops := []dynhl.Op{{A: op.A, B: op.B, Del: op.Del}}
		id2 := tr.begin("serve.WAL.AppendOps", req, id1)
		err = l.wal.AppendOps(dops)
		t.add("serve.wal_append_ms", tr.end(id2))
		r.gate.op(err)
		id3 := tr.begin("dynhl.Index.ApplyOps", req, id1)
		res, err := l.dyn.ApplyOps(dops)
		t.add("dynhl.apply_ms", tr.end(id3))
		r.gate.op(err)
		id4 := tr.begin("dynhl.Index.Freeze", req, id1)
		_, fz, err := l.dyn.Freeze()
		t.add("dynhl.freeze_ms", tr.end(id4))
		r.gate.op(err)
		if err != nil {
			continue
		}
		id5 := tr.begin("core.Index.NewSearcher", req, id1)
		_ = fz.NewSearcher()
		t.add("core.new_searcher_us", tr.end(id5))
		t.ix = fz
		dirty += res.Dirty
		if res.Rebuilt {
			rebuilt++
		}
		if res.Inserted+res.Deleted == 0 {
			noop++
		}
	}
	after := l.dyn.Maint()
	r.set("dynhl.dirty_per_op", "count", float64(dirty)/float64(k), k)
	r.set("dynhl.full_rebuild_ratio", "ratio", float64(rebuilt)/float64(k), k)
	r.set("dynhl.landmarks_rebuilt", "count", float64(after.LandmarksRebuilt-before.LandmarksRebuilt), k)
	r.set("dynhl.noop_ratio", "ratio", float64(noop)/float64(k), k)
	return nil
}

// finish turns the collected samples into per-layer medians, records
// the tracing overhead against the untraced run and the GC pauses of
// the replay, and writes the spans.
func (t *traced) finish(depth0 string) error {
	r := t.r
	for name, xs := range t.samples {
		unit := "ms"
		if strings.HasSuffix(name, "_us") {
			unit = "us"
		}
		r.setMedian(name, unit, xs)
	}
	if rw, dw := r.metrics["cluster.routed_write_ms"], r.metrics["cluster.direct_write_ms"]; rw.Samples > 0 && dw.Samples > 0 {
		r.set("cluster.router_write_hop_ms", "ms", rw.Value-dw.Value, rw.Samples)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("runtime.gc_pause_ms", "ms", float64(ms.PauseTotalNs-t.ms0.PauseTotalNs)/1e6, int(ms.NumGC-t.ms0.NumGC))
	d0, base := r.metrics[depth0], r.metrics["read_p50_us"]
	if d0.Samples > 0 && base.Value > 0 {
		v := d0.Value
		if d0.Unit == "ms" {
			v *= 1000
		}
		r.set("loadgen.trace_overhead_ratio", "ratio", v/base.Value, d0.Samples)
	}
	return t.tr.write(filepath.Join(r.cfg.out, "spans", r.runName()+".jsonl"))
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// traceReadOnly is the traced replay of point-reads and source-batches.
func (r *bench) traceReadOnly(ctx context.Context, d *deployment, graphPath string, p params) error {
	t := r.newTraced(ctx)
	if err := t.layers(graphPath, ""); err != nil {
		return err
	}
	t.srv = serve.New(t.ix, serve.Config{})
	// Without writes there are no fresh snapshots: time searchers on
	// the loaded index instead.
	for i := 0; i < 10; i++ {
		d, _ := t.tr.timed("core.Index.NewSearcher", func() error { _ = t.ix.NewSearcher(); return nil })
		t.add("core.new_searcher_us", d)
	}
	if err := t.walAppends(r.churnOps(p.n), p.traceOps); err != nil {
		return err
	}
	t.reads(readTargets{cl: d.cl}, p.traceReads)
	url := "http://" + d.httpAddr + "/distance/batch"
	if r.cfg.workload == "source-batches" {
		t.batches(url, r.sourceBatchPool(p, p.traceBatch))
		return t.finish("http.batch_ms")
	}
	t.batches(url, r.mixedBatches(p))
	return t.finish("hlclient.distance_us")
}

// mixedBatches groups uniform random pairs into p.traceBatch batches of
// p.batch pairs: the batch path's control on point-read workloads.
func (r *bench) mixedBatches(p params) []batchReq {
	next := r.pairSource(streamBatches, p.n)
	out := make([]batchReq, p.traceBatch)
	for i := range out {
		pairs := make([][2]int32, p.batch)
		for j := range pairs {
			s, v := next()
			pairs[j] = [2]int32{s, v}
		}
		out[i] = batchReq{pairs: pairs, body: encodeBatch(pairs)}
	}
	return out
}

// traceLive is the traced replay of churn: writes continue the
// workload's stream on the deployment and the in-process replica, then
// reads and batches run on the final state.
func (r *bench) traceLive(ctx context.Context, d *deployment, graphPath string, m *mirror, p params, ops *workload.OpStream) error {
	t := r.newTraced(ctx)
	if err := t.layers(graphPath, walArg(d.procs[0])); err != nil {
		return err
	}
	l, err := t.newLive(m)
	if err != nil {
		return err
	}
	defer l.close()
	if err := t.writes(l, m, ops, p.traceOps, []writeTarget{{d.cl, "hlclient.write_ms"}}, nil); err != nil {
		return err
	}
	t.reads(readTargets{cl: d.cl}, p.traceReads)
	t.batches("http://"+d.httpAddr+"/distance/batch", r.mixedBatches(p))
	return t.finish("hlclient.distance_us")
}

// traceRouted is the traced replay of routed-churn: writes alternate
// between the router and the primary (their difference is the router's
// write hop), each awaited on the follower; reads go through the router
// and straight to the follower (the read hop), then deeper in process.
func (r *bench) traceRouted(ctx context.Context, d *deployment, graphPath string, m *mirror, p params, ops *workload.OpStream,
	fc, pc *hlclient.Client) error {
	t := r.newTraced(ctx)
	if err := t.layers(graphPath, walArg(d.procs[1])); err != nil {
		return err
	}
	l, err := t.newLive(m)
	if err != nil {
		return err
	}
	defer l.close()
	await := func(epoch uint64) error { return awaitEpoch(ctx, fc, epoch) }
	if err := t.writes(l, m, ops, p.traceOps,
		[]writeTarget{{d.cl, "cluster.routed_write_ms"}, {pc, "cluster.direct_write_ms"}}, await); err != nil {
		return err
	}
	t.reads(readTargets{cl: d.cl, follower: fc}, p.traceReads)
	t.batches("http://"+d.httpAddr+"/distance/batch", r.mixedBatches(p))
	return t.finish("hlclient.distance_us")
}

// walArg returns the -wal path a server process was started with.
func walArg(p *proc) string {
	args := p.cmd.Args
	for i := 0; i+1 < len(args); i++ {
		if args[i] == "-wal" {
			return args[i+1]
		}
	}
	return ""
}
