package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"highway/internal/hlclient"
	"highway/internal/workload"
)

// params sizes one workload. Rates are fixed per workload (not derived
// from the machine), so two runs on one machine offer identical load.
type params struct {
	n          int
	readRate   float64 // paced point reads per second
	writeRate  float64 // paced writes per second (routed-churn)
	batch      int     // pairs per batch request
	setupReps  int     // set-ups per run; setup_s is their median
	sampleSrc  int     // gate sample: sources ...
	samplePer  int     // ... and pairs per source
	traceReads int     // traced replay sizes
	traceBatch int
	traceOps   int
}

func (p params) describe() string {
	return fmt.Sprintf("n=%d read_rate=%g/s write_rate=%g/s batch=%d setup_reps=%d", p.n, p.readRate, p.writeRate, p.batch, p.setupReps)
}

type workloadDef struct {
	params func(tiny bool) params
	run    func(ctx context.Context, r *bench, p params) error
}

var workloads = map[string]workloadDef{
	"point-reads": {
		params: func(tiny bool) params {
			if tiny {
				return params{n: 3000, readRate: 2000, setupReps: 2, sampleSrc: 4, samplePer: 16, traceReads: 200, traceBatch: 2, batch: 256, traceOps: 4}
			}
			return params{n: 1_000_000, readRate: 6000, setupReps: 3, sampleSrc: 8, samplePer: 64, traceReads: 2000, traceBatch: 3, batch: 4096, traceOps: 10}
		},
		run: pointReads,
	},
	"source-batches": {
		params: func(tiny bool) params {
			if tiny {
				return params{n: 3000, batch: 256, setupReps: 2, sampleSrc: 2, traceReads: 200, traceBatch: 4, traceOps: 4}
			}
			return params{n: 100_000, batch: 4096, setupReps: 3, sampleSrc: 4, traceReads: 1000, traceBatch: 24, traceOps: 10}
		},
		run: sourceBatches,
	},
	"churn": {
		params: func(tiny bool) params {
			if tiny {
				return params{n: 2000, readRate: 500, setupReps: 2, sampleSrc: 4, samplePer: 16, traceReads: 200, traceBatch: 2, batch: 256, traceOps: 10}
			}
			return params{n: 20_000, readRate: 1000, setupReps: 3, sampleSrc: 8, samplePer: 64, traceReads: 1000, traceBatch: 8, batch: 4096, traceOps: 60}
		},
		run: churn,
	},
	"routed-churn": {
		params: func(tiny bool) params {
			if tiny {
				return params{n: 2000, readRate: 500, writeRate: 50, setupReps: 2, sampleSrc: 4, samplePer: 16, traceReads: 200, traceBatch: 2, batch: 256, traceOps: 10}
			}
			return params{n: 20_000, readRate: 1000, writeRate: 10, setupReps: 3, sampleSrc: 8, samplePer: 64, traceReads: 1000, traceBatch: 8, batch: 4096, traceOps: 40}
		},
		run: routedChurn,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// deployment is one set-up of the system under test: its processes, a
// connected client on the binary listener reads go to, and its
// addresses.
type deployment struct {
	procs    []*proc
	cl       *hlclient.Client // connected to readAddr
	readAddr string           // binary address reads are sent to
	httpAddr string           // HTTP address reads are sent to
	primary  string           // binary address of the live (primary) server; "" if read-only
	follower string           // binary address of the follower (routed-churn)
}

func (d *deployment) close(r *bench) {
	if d.cl != nil {
		d.cl.Close()
	}
	for _, p := range d.procs {
		r.stopProc(p)
	}
}

// setup deploys the system under test p.setupReps times, each from
// hlbuild on the generated graph file to the first answered query, and
// records the median as setup_s. All but the last deployment are torn
// down.
func (r *bench) setup(ctx context.Context, reps int, deploy func(rep int) (*deployment, error)) (*deployment, error) {
	var times []time.Duration
	var d *deployment
	for rep := 0; rep < reps; rep++ {
		if d != nil {
			d.close(r)
		}
		start := time.Now()
		var err error
		d, err = deploy(rep)
		if err != nil {
			if d != nil {
				d.close(r)
			}
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		times = append(times, time.Since(start))
		if err := ctx.Err(); err != nil {
			d.close(r)
			return nil, err
		}
	}
	r.setMedian("setup_s", "s", times)
	return d, nil
}

// deploySingle starts one hlserve serve with both listeners; extra
// holds the deployment flags (-readonly, or -wal <path>).
func (r *bench) deploySingle(ctx context.Context, graphPath string, probe [2]int32, extra ...string) (*deployment, error) {
	if err := r.hlbuild(graphPath); err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	args := append([]string{"hlserve", "serve", "-graph", graphPath, "-addr", addrs[0], "-binaddr", addrs[1]}, extra...)
	p, err := r.start("server", args...)
	if err != nil {
		return nil, err
	}
	d := &deployment{procs: []*proc{p}, readAddr: addrs[1], httpAddr: addrs[0]}
	d.cl, err = awaitAnswer(ctx, addrs[1], probe[0], probe[1], p)
	if err != nil {
		return d, err
	}
	return d, nil
}

// pairSource returns a uniform random pair generator over n vertices
// for one input stream.
func (r *bench) pairSource(stream int64, n int) func() (int32, int32) {
	rng := r.rng(stream)
	return func() (int32, int32) { return rng.Int31n(int32(n)), rng.Int31n(int32(n)) }
}

// dialWorkers returns one client per worker on addr (one connection
// each); the caller closes them.
func dialWorkers(ctx context.Context, addr string, k int) ([]*hlclient.Client, error) {
	cls := make([]*hlclient.Client, 0, k)
	for i := 0; i < k; i++ {
		cl, err := dial(ctx, addr)
		if err != nil {
			closeAll(cls)
			return nil, err
		}
		cls = append(cls, cl)
	}
	return cls, nil
}

func closeAll(cls []*hlclient.Client) {
	for _, cl := range cls {
		cl.Close()
	}
}

// workers is the load process's concurrency: at most nproc (= 2 on the
// reference host) threads and connections.
const workers = 2

// pointReads: uniform single-pair reads on the binary listener of a
// read-only server over a graph far larger than the caches; a paced
// phase at a fixed rate, then a closed loop on two connections.
func pointReads(ctx context.Context, r *bench, p params) error {
	m, gp, err := r.generate(p.n)
	if err != nil {
		return err
	}
	smp := r.sample(m, p.sampleSrc, p.samplePer)
	d, err := r.setup(ctx, p.setupReps, func(int) (*deployment, error) {
		return r.deploySingle(ctx, gp, smp.pairs[0], "-readonly")
	})
	if err != nil {
		return err
	}
	cls, err := dialWorkers(ctx, d.readAddr, workers)
	if err != nil {
		return err
	}
	defer closeAll(cls)
	read := func(stream int64) requestFn {
		gens := make([]func() (int32, int32), workers)
		for w := range gens {
			gens[w] = r.pairSource(stream+int64(w)<<8, p.n)
		}
		return func(w int, _ int64) error {
			s, t := gens[w]()
			_, err := cls[w].Distance(ctx, s, t)
			return err
		}
	}
	half := r.cfg.duration() / 2
	open := paced(ctx, r.gate, p.readRate, half, workers, read(streamReads))
	loop := closed(ctx, r.gate, half, workers, read(streamReads+1))
	r.setLatency("read", "us", open.lat)
	r.set("read_pairs_s", "pairs/s", float64(loop.ok)/loop.dur.Seconds(), len(loop.lat))
	r.setLate(open)
	r.checkSample(ctx, d.cl, smp, "point-reads sample")
	if err := r.finish(ctx, d, d.cl); err != nil {
		return err
	}
	if r.cfg.trace {
		return r.traceReadOnly(ctx, d, gp, p)
	}
	return nil
}

// sourceBatches: POST /distance/batch requests of p.batch pairs sharing
// one source, on the HTTP listener of a read-only server, from two
// closed-loop connections.
func sourceBatches(ctx context.Context, r *bench, p params) error {
	m, gp, err := r.generate(p.n)
	if err != nil {
		return err
	}
	pool := r.sourceBatchPool(p, 64)
	d, err := r.setup(ctx, p.setupReps, func(int) (*deployment, error) {
		return r.deploySingle(ctx, gp, pool[0].pairs[0], "-readonly")
	})
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	url := "http://" + d.httpAddr + "/distance/batch"
	loop := closed(ctx, r.gate, r.cfg.duration(), workers, func(_ int, i int64) error {
		_, _, err := postBatch(hc, url, pool[i%int64(len(pool))].body, p.batch)
		return err
	})
	r.setLatency("read", "us", loop.lat)
	r.set("read_pairs_s", "pairs/s", float64(loop.ok)*float64(p.batch)/loop.dur.Seconds(), len(loop.lat))
	// Gate: whole batches checked pair by pair against one BFS each.
	for _, b := range pool[:p.sampleSrc] {
		got, _, err := postBatch(hc, url, b.body, p.batch)
		r.gate.op(err)
		if err != nil {
			continue
		}
		want := m.answer(b.pairs)
		for i := range want {
			r.gate.check(fmt.Sprintf("batch pair %v", b.pairs[i]), int64(got[i]), int64(want[i]))
		}
	}
	if err := r.finish(ctx, d, d.cl); err != nil {
		return err
	}
	if r.cfg.trace {
		return r.traceReadOnly(ctx, d, gp, p)
	}
	return nil
}

// batchReq is one pre-encoded batch request.
type batchReq struct {
	pairs [][2]int32
	body  []byte
}

// sourceBatchPool generates k single-source batches of p.batch pairs and
// encodes their request bodies once, off the clock, so the load process
// spends its CPU on sending, not on encoding.
func (r *bench) sourceBatchPool(p params, k int) []batchReq {
	rng := r.rng(streamBatches)
	pool := make([]batchReq, k)
	for i := range pool {
		src := rng.Int31n(int32(p.n))
		pairs := make([][2]int32, p.batch)
		for j := range pairs {
			pairs[j] = [2]int32{src, rng.Int31n(int32(p.n))}
		}
		pool[i] = batchReq{pairs: pairs, body: encodeBatch(pairs)}
	}
	return pool
}

func encodeBatch(pairs [][2]int32) []byte {
	body, err := json.Marshal(struct {
		Pairs [][2]int32 `json:"pairs"`
	}{pairs})
	if err != nil {
		panic(err) // [][2]int32 always marshals
	}
	return body
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: workers,
			MaxConnsPerHost:     workers,
			DisableCompression:  true,
		},
	}
}

// postBatch sends one batch request and decodes its answers; it also
// returns the response body's size.
func postBatch(hc *http.Client, url string, body []byte, want int) ([]int32, int, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, 0, errHTTPShed
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("batch: http %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Distances []int32 `json:"distances"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, 0, fmt.Errorf("batch: %w", err)
	}
	if len(out.Distances) != want {
		return nil, 0, fmt.Errorf("batch: %d answers for %d pairs", len(out.Distances), want)
	}
	return out.Distances, len(raw), nil
}

// ack is one write's result as the server acknowledged it.
type ack struct {
	op      workload.EdgeOp
	changed int // inserted or deleted count
	epoch   uint64
}

// write sends one single-edge operation.
func write(ctx context.Context, cl *hlclient.Client, op workload.EdgeOp) (ack, error) {
	e := [][2]int32{{op.A, op.B}}
	if op.Del {
		res, err := cl.DeleteEdges(ctx, e)
		return ack{op: op, changed: res.Deleted, epoch: res.Epoch}, err
	}
	res, err := cl.InsertEdges(ctx, e)
	return ack{op: op, changed: res.Inserted, epoch: res.Epoch}, err
}

// checkAcks replays acknowledged writes on the mirror, off the clock,
// and checks each ack's count against it.
func (r *bench) checkAcks(m *mirror, acks []ack) {
	for _, a := range acks {
		want := 0
		if m.apply(a.op) {
			want = 1
		}
		r.gate.check(fmt.Sprintf("ack of %+v", a.op), int64(a.changed), int64(want))
	}
}

// churnOps is the workload's write stream: 70 % inserts of new random
// edges, 30 % deletes of live edges.
func (r *bench) churnOps(n int) *workload.OpStream {
	return workload.NewOpStream(n, 0.3, 0, r.cfg.seed*1_000_003+streamWrites)
}

// churn: one closed-loop writer of single-edge operations on a live
// server with a WAL, while paced point reads run on a second
// connection; then restarts from the WAL and re-checks.
func churn(ctx context.Context, r *bench, p params) error {
	m, gp, err := r.generate(p.n)
	if err != nil {
		return err
	}
	smp := r.sample(m, p.sampleSrc, p.samplePer)
	var extra []string
	d, err := r.setup(ctx, p.setupReps, func(rep int) (*deployment, error) {
		extra = []string{"-wal", r.path(fmt.Sprintf("edges%d.wal", rep))}
		return r.deploySingle(ctx, gp, smp.pairs[0], extra...)
	})
	if err != nil {
		return err
	}
	cls, err := dialWorkers(ctx, d.readAddr, 2)
	if err != nil {
		return err
	}
	defer closeAll(cls)
	ops := r.churnOps(p.n)
	var acks []ack
	var writes phase
	done := make(chan struct{})
	go func() {
		defer close(done)
		writes = closed(ctx, r.gate, r.cfg.duration(), 1, func(int, int64) error {
			a, err := write(ctx, cls[0], ops.Next())
			if err == nil {
				acks = append(acks, a)
			}
			return err
		})
	}()
	next := r.pairSource(streamReads, p.n)
	reads := paced(ctx, r.gate, p.readRate, r.cfg.duration(), 1, func(int, int64) error {
		s, t := next()
		_, err := cls[1].Distance(ctx, s, t)
		return err
	})
	<-done
	r.setLatency("read", "us", reads.lat)
	r.setLatency("write", "ms", writes.lat)
	r.set("writes_per_s", "1/s", float64(writes.ok)/writes.dur.Seconds(), len(writes.lat))
	r.setLate(reads)
	r.checkAcks(m, acks)
	smp.want = m.answer(smp.pairs)
	r.checkSample(ctx, d.cl, smp, "churn sample")
	if err := r.finish(ctx, d, d.cl); err != nil {
		return err
	}

	// Recovery: restart from snapshot plus WAL until the first answered
	// query, several times; then the durability check.
	srv := d.procs[0]
	args := append([]string(nil), srv.cmd.Args[1:]...)
	var rec []time.Duration
	for rep := 0; rep < p.setupReps; rep++ {
		d.close(r)
		start := time.Now()
		np, err := r.start("server", append([]string{"hlserve"}, args...)...)
		if err != nil {
			return err
		}
		d.procs = []*proc{np}
		d.cl, err = awaitAnswer(ctx, d.readAddr, smp.pairs[0][0], smp.pairs[0][1], np)
		if err != nil {
			return fmt.Errorf("restart from the WAL: %w", err)
		}
		rec = append(rec, time.Since(start))
	}
	r.setMedian("recovery_s", "s", rec)
	r.checkSample(ctx, d.cl, smp, "churn sample after WAL restart")
	if r.cfg.trace {
		return r.traceLive(ctx, d, gp, m, p, ops)
	}
	return nil
}

// routedChurn: a primary with a WAL shipping to one follower, and a
// router in front; routed point reads and routed single-edge writes,
// each paced at a fixed low rate.
func routedChurn(ctx context.Context, r *bench, p params) error {
	m, gp, err := r.generate(p.n)
	if err != nil {
		return err
	}
	smp := r.sample(m, p.sampleSrc, p.samplePer)
	d, err := r.setup(ctx, p.setupReps, func(rep int) (*deployment, error) {
		return r.deployCluster(ctx, gp, smp.pairs[0], r.path(fmt.Sprintf("edges%d.wal", rep)))
	})
	if err != nil {
		return err
	}
	cls, err := dialWorkers(ctx, d.readAddr, 2)
	if err != nil {
		return err
	}
	defer closeAll(cls)
	fc, err := dial(ctx, d.follower)
	if err != nil {
		return err
	}
	defer fc.Close()
	pc, err := dial(ctx, d.primary)
	if err != nil {
		return err
	}
	defer pc.Close()
	before, err := stats(ctx, pc)
	if err != nil {
		return err
	}

	ops := r.churnOps(p.n)
	var acks []ack
	var wlat, lag []time.Duration
	var writes phase
	done := make(chan struct{})
	go func() {
		defer close(done)
		writes = paced(ctx, r.gate, p.writeRate, r.cfg.duration(), 1, func(int, int64) error {
			sent := time.Now()
			a, err := write(ctx, cls[0], ops.Next())
			acked := time.Now()
			if err != nil {
				return err
			}
			wlat = append(wlat, acked.Sub(sent))
			acks = append(acks, a)
			if err := awaitEpoch(ctx, fc, a.epoch); err != nil {
				return err
			}
			lag = append(lag, time.Since(acked))
			return nil
		})
	}()
	next := r.pairSource(streamReads, p.n)
	reads := paced(ctx, r.gate, p.readRate, r.cfg.duration(), 1, func(int, int64) error {
		s, t := next()
		_, err := cls[1].Distance(ctx, s, t)
		return err
	})
	<-done
	r.setLatency("read", "us", reads.lat)
	r.setLatency("write", "ms", wlat)
	r.setLatency("repl_lag", "ms", lag)
	r.setLate(reads)
	r.set("loadgen.write_late_p50_us", "us", scale(quantile(writes.late, 0.5), "us"), len(writes.late))
	r.checkAcks(m, acks)

	// Convergence: the follower reaches the primary's epoch with the
	// same index entries, and all three members answer the sample like
	// the oracle.
	ps, err := stats(ctx, pc)
	if err != nil {
		return err
	}
	if err := awaitEpoch(ctx, fc, ps.Epoch); err != nil {
		r.gate.op(err)
	}
	fs, err := stats(ctx, fc)
	if err != nil {
		return err
	}
	r.gate.check("follower epoch", int64(fs.Epoch), int64(ps.Epoch))
	r.gate.check("follower index entries", fs.Index.Entries, ps.Index.Entries)
	smp.want = m.answer(smp.pairs)
	r.checkSample(ctx, d.cl, smp, "routed sample")
	r.checkSample(ctx, fc, smp, "follower sample")
	r.checkSample(ctx, pc, smp, "primary sample")
	if before.Replication != nil && ps.Replication != nil {
		r.set("cluster.repl_shipped", "count", float64(ps.Replication.Shipped-before.Replication.Shipped), 0)
		r.set("cluster.repl_acked", "count", float64(ps.Replication.Acked-before.Replication.Acked), 0)
		r.set("cluster.repl_resyncs", "count", float64(ps.Replication.Resyncs-before.Replication.Resyncs), 0)
	}
	if err := r.finish(ctx, d, pc); err != nil {
		return err
	}
	if r.cfg.trace {
		return r.traceRouted(ctx, d, gp, m, p, ops, fc, pc)
	}
	return nil
}

// deployCluster starts a follower, a primary shipping its WAL to it and
// a router in front of both, each once its upstream is up (the router
// once the follower is ready), and waits until the router answers reads
// and sees the primary up (which writes need).
func (r *bench) deployCluster(ctx context.Context, graphPath string, probe [2]int32, wal string) (*deployment, error) {
	if err := r.hlbuild(graphPath); err != nil {
		return nil, err
	}
	a, err := freeAddrs(6)
	if err != nil {
		return nil, err
	}
	fHTTP, fBin, pHTTP, pBin, rHTTP, rBin := a[0], a[1], a[2], a[3], a[4], a[5]
	d := &deployment{readAddr: rBin, httpAddr: rHTTP, primary: pBin, follower: fBin}
	startAndWait := func(await func(p *proc) error, name string, args ...string) error {
		p, err := r.start(name, args...)
		if err != nil {
			return err
		}
		d.procs = append(d.procs, p)
		return await(p)
	}
	err = startAndWait(func(p *proc) error { return awaitListen(ctx, fBin, p) },
		"follower", "hlserve", "serve", "-follower", "-addr", fHTTP, "-binaddr", fBin)
	if err != nil {
		return d, err
	}
	err = startAndWait(func(p *proc) error {
		cl, err := awaitAnswer(ctx, pBin, probe[0], probe[1], p)
		if err == nil {
			cl.Close()
		}
		return err
	}, "primary", "hlserve", "serve", "-graph", graphPath, "-wal", wal, "-replicate", fBin, "-addr", pHTTP, "-binaddr", pBin)
	if err != nil {
		return d, err
	}
	// No read may reach the follower before its /readyz reports the
	// snapshot installed: the router's health check does not gate on
	// it, and a read racing the install can crash the follower.
	if err := awaitReady(ctx, fHTTP, d.procs[0]); err != nil {
		return d, err
	}
	err = startAndWait(func(p *proc) error {
		d.cl, err = awaitAnswer(ctx, rBin, probe[0], probe[1], d.procs...)
		if err != nil {
			return err
		}
		return awaitRouterPrimary(ctx, rHTTP, p)
	}, "router", "hlserve", "route", "-addr", rHTTP, "-binaddr", rBin, "-primary", pBin, "-followers", fBin)
	return d, err
}

// awaitListen polls until addr accepts a binary-protocol connection.
func awaitListen(ctx context.Context, addr string, p *proc) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if err := p.exited(); err != nil {
			return err
		}
		cl, err := dial(ctx, addr)
		if err == nil {
			return cl.Close()
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s does not listen on %s", p.name, addr)
}

// awaitReady polls a server's /readyz until it answers 200.
func awaitReady(ctx context.Context, httpAddr string, p *proc) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if err := p.exited(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+httpAddr+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s never became ready", p.name)
}

// awaitRouterPrimary polls the router's /stats until its health loop
// reports the primary up.
func awaitRouterPrimary(ctx context.Context, httpAddr string, p *proc) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if err := p.exited(); err != nil {
			return err
		}
		var st struct {
			Router struct {
				PrimaryUp bool `json:"primary_up"`
			} `json:"router"`
		}
		if err := getJSON(ctx, "http://"+httpAddr+"/stats", &st); err == nil && st.Router.PrimaryUp {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("router never saw the primary up")
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: http %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// statsDoc is the part of the serving /stats document the benchmark
// reads.
type statsDoc struct {
	Epoch uint64 `json:"epoch"`
	Index struct {
		Entries   int64 `json:"entries"`
		SizeBytes int64 `json:"size_bytes"`
	} `json:"index"`
	Replication *struct {
		Epoch   uint64 `json:"epoch"`
		Shipped int64  `json:"shipped"`
		Acked   int64  `json:"acked"`
		Resyncs int64  `json:"resyncs"`
	} `json:"replication"`
}

func stats(ctx context.Context, cl *hlclient.Client) (statsDoc, error) {
	var st statsDoc
	raw, err := cl.Stats(ctx)
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(raw, &st)
	return st, err
}

// awaitEpoch polls a follower's stats until its replication epoch
// reaches epoch.
func awaitEpoch(ctx context.Context, fc *hlclient.Client, epoch uint64) error {
	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := stats(ctx, fc)
		if err != nil {
			return err
		}
		if st.Replication != nil && st.Replication.Epoch >= epoch {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck below epoch %d", epoch)
		}
		if err := sl.until(time.Now().Add(200 * time.Microsecond)); err != nil {
			return err
		}
	}
}

// checkSample queries the gate's sample on cl, off the clock, and
// checks every answer against the oracle.
func (r *bench) checkSample(ctx context.Context, cl *hlclient.Client, smp sample, what string) {
	for i, pr := range smp.pairs {
		d, err := cl.Distance(ctx, pr[0], pr[1])
		r.gate.op(err)
		if err != nil {
			continue
		}
		want := smp.want[i]
		if r.tamper != nil {
			want = r.tamper(want)
		}
		r.gate.check(fmt.Sprintf("%s %v", what, pr), int64(d), int64(want))
	}
}

// finish records the end-of-run figures: label size from /stats (on
// statsCl) and the summed peak RSS of the deployment's processes.
func (r *bench) finish(ctx context.Context, d *deployment, statsCl *hlclient.Client) error {
	st, err := stats(ctx, statsCl)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	r.set("index_mb", "MB", float64(st.Index.SizeBytes)/1e6, 0)
	var rss float64
	for _, p := range d.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return err
		}
		rss += mb
	}
	r.set("rss_mb", "MB", rss, 0)
	return nil
}

// setLate records how far a paced phase's sends trailed their schedule.
func (r *bench) setLate(ph phase) {
	if len(ph.late) >= 1000 {
		r.set("loadgen.late_p99_us", "us", scale(quantile(ph.late, 0.99), "us"), len(ph.late))
	} else if len(ph.late) >= 100 {
		r.set("loadgen.late_p90_us", "us", scale(quantile(ph.late, 0.9), "us"), len(ph.late))
	}
}
