package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"highway/internal/hlclient"
	"highway/internal/serve"
	"highway/internal/wire"
)

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Primary is the binary address writes are forwarded to. Empty
	// makes the router read-only (writes answer Unavailable/503).
	Primary string
	// Shards lists the read members, one inner slice per
	// landmark-partitioned shard; replica-set mode is a single shard
	// listing every follower. A read query fans out to one healthy
	// member per shard and merges the per-shard distances elementwise
	// with min (-1 = unreachable): each shard's labelling covers a
	// disjoint landmark subset, so every shard answer is an upper bound
	// witnessed by its own landmarks and the minimum over all shards is
	// the exact distance.
	Shards [][]string
	// HealthInterval paces the member health loop
	// (DefaultHealthInterval when 0).
	HealthInterval time.Duration
	// MaxBatch caps batch fan-outs, mirroring serve.Config.MaxBatch
	// (serve.DefaultMaxBatch when 0).
	MaxBatch int
	// ShutdownGrace bounds listener drain on shutdown
	// (serve.DefaultShutdownGrace when 0).
	ShutdownGrace time.Duration
	// Client configures the pooled client dialed to every member.
	Client hlclient.Config
}

// DefaultHealthInterval is the member health-check cadence when
// RouterConfig.HealthInterval is zero.
const DefaultHealthInterval = 500 * time.Millisecond

// ErrUnavailable is returned by router reads when some shard has no
// healthy member, and by forwarded writes when the primary is down or
// unconfigured. Maps to wire.CodeUnavailable and HTTP 503.
var ErrUnavailable = errors.New("cluster: no healthy member")

// member is one routed endpoint: a lazily-dialed pooled client plus
// the health bit and in-flight gauge the read balancer keys on.
type member struct {
	addr     string
	cl       atomic.Pointer[hlclient.Client] // nil until the health loop dials it
	up       atomic.Bool
	inflight atomic.Int64
}

// client returns the member's client when the member is considered
// routable, else nil.
func (m *member) client() *hlclient.Client {
	if !m.up.Load() {
		return nil
	}
	return m.cl.Load()
}

// Router is the cluster's coordinator: a read/write front door that
// speaks both serving protocols, health-checks members, balances
// reads (least-inflight per shard, exact min-merge across shards) and
// forwards writes to the primary. It holds no graph state of its own.
type Router struct {
	cfg     RouterConfig
	shards  [][]*member
	primary *member // nil when unconfigured
	started time.Time

	fanout atomic.Int64 // member sub-requests issued for reads
	reads  atomic.Int64
	writes atomic.Int64
	errors atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewRouter builds a router and starts its health loop. Members are
// dialed lazily by the loop, so the router may start before (or
// survive) any of them.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: router needs at least one shard")
	}
	for i, s := range cfg.Shards {
		if len(s) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no members", i)
		}
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = serve.DefaultMaxBatch
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = serve.DefaultShutdownGrace
	}
	rt := &Router{cfg: cfg, started: time.Now()}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	for _, addrs := range cfg.Shards {
		shard := make([]*member, len(addrs))
		for i, a := range addrs {
			shard[i] = &member{addr: a}
		}
		rt.shards = append(rt.shards, shard)
	}
	if cfg.Primary != "" {
		rt.primary = &member{addr: cfg.Primary}
	}
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop and member connections.
func (rt *Router) Close() {
	rt.cancel()
	rt.wg.Wait()
	for _, shard := range rt.shards {
		for _, m := range shard {
			if cl := m.cl.Load(); cl != nil {
				cl.Close()
			}
		}
	}
	if rt.primary != nil {
		if cl := rt.primary.cl.Load(); cl != nil {
			cl.Close()
		}
	}
}

// members returns every member including the primary (for the health
// loop and stats).
func (rt *Router) members() []*member {
	var all []*member
	for _, shard := range rt.shards {
		all = append(all, shard...)
	}
	if rt.primary != nil {
		all = append(all, rt.primary)
	}
	return all
}

// ready probes one member with a Stats frame. The member is routable
// when the frame answers and, if its stats carry a replication section,
// once that section reports bootstrapped — the predicate /readyz
// answers with. A follower still awaiting its first snapshot serves a
// placeholder index, so it must get no reads.
func ready(ctx context.Context, cl *hlclient.Client) bool {
	raw, err := cl.Stats(ctx)
	if err != nil {
		return false
	}
	var doc struct {
		Replication *serve.ReplicationStats `json:"replication"`
	}
	if json.Unmarshal(raw, &doc) != nil {
		return false
	}
	return doc.Replication == nil || doc.Replication.Bootstrapped
}

// healthLoop probes every member each interval: undialed members get a
// dial attempt, and every dialed member a readiness probe whose result
// the up bit tracks. One slow member must not stall the others, so
// probes fan out.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	probe := func() {
		var wg sync.WaitGroup
		for _, m := range rt.members() {
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(rt.ctx, rt.cfg.HealthInterval*4)
				defer cancel()
				cl := m.cl.Load()
				if cl == nil {
					fresh, err := hlclient.Dial(ctx, m.addr, rt.cfg.Client)
					if err != nil {
						m.up.Store(false)
						return
					}
					m.cl.Store(fresh)
					cl = fresh
				}
				m.up.Store(ready(ctx, cl))
			}(m)
		}
		wg.Wait()
	}
	probe() // initial dial pass before the first tick
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			probe()
		}
	}
}

// pick selects the healthy member with the fewest in-flight requests
// in one shard, or nil when the whole shard is down.
func pick(shard []*member) *member {
	var best *member
	var bestLoad int64
	for _, m := range shard {
		if m.client() == nil {
			continue
		}
		if load := m.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = m, load
		}
	}
	return best
}

// mergeDist folds one shard's answer into the running exact distance:
// -1 is Infinity, otherwise min.
func mergeDist(a, b int32) int32 {
	if a == -1 {
		return b
	}
	if b == -1 || a <= b {
		return a
	}
	return b
}

// onShard runs fn against the chosen member of one shard, failing over
// once through the shard's remaining healthy members on transport-ish
// errors (ErrCircuitOpen, connection failures). Remote errors are the
// member's deterministic answer and surface as-is.
func (rt *Router) onShard(shard []*member, fn func(cl *hlclient.Client) error) error {
	tried := make(map[*member]bool, len(shard))
	for {
		m := pick(shard)
		for attempts := 0; m != nil && tried[m] && attempts < len(shard); attempts++ {
			// pick is load-based and may repeat a failed member; scan on.
			m = nil
			for _, cand := range shard {
				if !tried[cand] && cand.client() != nil {
					m = cand
					break
				}
			}
		}
		if m == nil || tried[m] {
			rt.errors.Add(1)
			return ErrUnavailable
		}
		tried[m] = true
		cl := m.client()
		if cl == nil {
			continue
		}
		m.inflight.Add(1)
		rt.fanout.Add(1)
		err := fn(cl)
		m.inflight.Add(-1)
		if err == nil {
			return nil
		}
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return err // deterministic remote answer: not a routing failure
		}
		m.up.Store(false) // transport failure: eject until the next probe
	}
}

// Distance answers one exact query by fanning out to one member per
// shard and min-merging.
func (rt *Router) Distance(ctx context.Context, s, t int32) (int32, error) {
	rt.reads.Add(1)
	results := make([]int32, len(rt.shards))
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, shard := range rt.shards {
		wg.Add(1)
		go func(i int, shard []*member) {
			defer wg.Done()
			errs[i] = rt.onShard(shard, func(cl *hlclient.Client) error {
				d, err := cl.Distance(ctx, s, t)
				results[i] = d
				return err
			})
		}(i, shard)
	}
	wg.Wait()
	d := int32(-1)
	for i := range results {
		if errs[i] != nil {
			return -1, errs[i] // exactness needs every shard's answer
		}
		d = mergeDist(d, results[i])
	}
	return d, nil
}

// DistanceBatch answers a batch by fanning the whole batch to one
// member per shard and min-merging elementwise.
func (rt *Router) DistanceBatch(ctx context.Context, pairs [][2]int32) ([]int32, error) {
	rt.reads.Add(1)
	if len(pairs) > rt.cfg.MaxBatch {
		return nil, fmt.Errorf("cluster: batch of %d pairs exceeds limit %d", len(pairs), rt.cfg.MaxBatch)
	}
	results := make([][]int32, len(rt.shards))
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, shard := range rt.shards {
		wg.Add(1)
		go func(i int, shard []*member) {
			defer wg.Done()
			errs[i] = rt.onShard(shard, func(cl *hlclient.Client) error {
				d, err := cl.DistanceBatch(ctx, pairs, nil)
				results[i] = d
				return err
			})
		}(i, shard)
	}
	wg.Wait()
	out := make([]int32, len(pairs))
	for i := range out {
		out[i] = -1
	}
	for i := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for j, d := range results[i] {
			out[j] = mergeDist(out[j], d)
		}
	}
	return out, nil
}

// InsertEdges forwards a write batch to the primary.
func (rt *Router) InsertEdges(ctx context.Context, edges [][2]int32) (serve.InsertResult, error) {
	rt.writes.Add(1)
	cl, err := rt.primaryClient()
	if err != nil {
		return serve.InsertResult{}, err
	}
	rt.primary.inflight.Add(1)
	defer rt.primary.inflight.Add(-1)
	return cl.InsertEdges(ctx, edges)
}

// DeleteEdges forwards a deletion batch to the primary.
func (rt *Router) DeleteEdges(ctx context.Context, edges [][2]int32) (serve.DeleteResult, error) {
	rt.writes.Add(1)
	cl, err := rt.primaryClient()
	if err != nil {
		return serve.DeleteResult{}, err
	}
	rt.primary.inflight.Add(1)
	defer rt.primary.inflight.Add(-1)
	return cl.DeleteEdges(ctx, edges)
}

func (rt *Router) primaryClient() (*hlclient.Client, error) {
	if rt.primary == nil {
		return nil, fmt.Errorf("%w: router has no primary configured", ErrUnavailable)
	}
	cl := rt.primary.client()
	if cl == nil {
		rt.errors.Add(1)
		return nil, fmt.Errorf("%w: primary %s is down", ErrUnavailable, rt.primary.addr)
	}
	return cl, nil
}

// RouterStats is the "router" section of the router's /stats document.
type RouterStats struct {
	// Shards is the configured shard count (1 = plain replica set).
	Shards int `json:"shards"`
	// Members is the configured read-member count across shards.
	Members int `json:"members"`
	// MemberUp is the number of read members currently passing health
	// checks.
	MemberUp int `json:"member_up"`
	// PrimaryUp reports the write path's health (false when no primary
	// is configured).
	PrimaryUp bool `json:"primary_up"`
	// Fanout counts member sub-requests issued for reads — with S
	// shards it advances S per query, so fanout/reads exposes the
	// amplification factor.
	Fanout int64 `json:"fanout"`
	// Reads and Writes count routed client requests; Errors counts
	// requests that failed for want of a healthy member.
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Errors int64 `json:"errors"`
}

// Stats snapshots the router counters.
func (rt *Router) Stats() RouterStats {
	st := RouterStats{
		Shards: len(rt.shards),
		Fanout: rt.fanout.Load(),
		Reads:  rt.reads.Load(),
		Writes: rt.writes.Load(),
		Errors: rt.errors.Load(),
	}
	for _, shard := range rt.shards {
		st.Members += len(shard)
		for _, m := range shard {
			if m.up.Load() {
				st.MemberUp++
			}
		}
	}
	if rt.primary != nil {
		st.PrimaryUp = rt.primary.up.Load()
	}
	return st
}

// Ready reports whether every shard has at least one healthy member —
// the condition under which reads are exact and available.
func (rt *Router) Ready() bool {
	for _, shard := range rt.shards {
		if pick(shard) == nil {
			return false
		}
	}
	return true
}

// routerStatsDoc is the router's /stats shape: role marker, the router
// section, and uptime — deliberately a subset of the serving stats
// document so generic scrapers can read both.
type routerStatsDoc struct {
	Role          string      `json:"role"`
	Router        RouterStats `json:"router"`
	UptimeSeconds float64     `json:"uptime_seconds"`
}

func (rt *Router) statsDoc() routerStatsDoc {
	return routerStatsDoc{
		Role:          "router",
		Router:        rt.Stats(),
		UptimeSeconds: time.Since(rt.started).Seconds(),
	}
}

// ---- HTTP front end ----

// Handler returns the router's HTTP API: the serving tier's read and
// write endpoints (same request/response JSON), plus stats and health.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /distance", rt.handleDistance)
	mux.HandleFunc("POST /distance/batch", rt.handleBatch)
	mux.HandleFunc("POST /edges", rt.handleEdges(false))
	mux.HandleFunc("DELETE /edges", rt.handleEdges(true))
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rt.statsDoc())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !rt.Ready() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "unready", "detail": "a shard has no healthy member",
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// ListenAndServe serves the HTTP front end until ctx is cancelled.
func (rt *Router) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ShutdownGrace)
	defer cancel()
	return srv.Shutdown(sctx)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	// Shed and narrowed-service answers are retryable; say so the same
	// way the serving tier does.
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": msg})
}

// routedStatus maps a routing error to an HTTP status. A member's
// Overloaded answer relays as 429 — the same status the serving tier's
// own admission gate uses, so clients (and the load harness) see one
// shed protocol whether or not a router is in the path.
func routedStatus(err error) int {
	var re *wire.RemoteError
	switch {
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.As(err, &re):
		switch re.Code {
		case wire.CodeRange, wire.CodeMalformed:
			return http.StatusBadRequest
		case wire.CodeTooLarge:
			return http.StatusRequestEntityTooLarge
		case wire.CodeOverloaded:
			return http.StatusTooManyRequests
		case wire.CodeDegraded, wire.CodeUnavailable:
			return http.StatusServiceUnavailable
		}
	}
	return http.StatusBadGateway
}

func (rt *Router) handleDistance(w http.ResponseWriter, r *http.Request) {
	s, errS := strconv.ParseInt(r.URL.Query().Get("s"), 10, 32)
	t, errT := strconv.ParseInt(r.URL.Query().Get("t"), 10, 32)
	if errS != nil || errT != nil {
		httpError(w, http.StatusBadRequest, "s and t must be integer vertex ids")
		return
	}
	d, err := rt.Distance(r.Context(), int32(s), int32(t))
	if err != nil {
		httpError(w, routedStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"s": s, "t": t, "distance": d})
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Pairs [][]int32 `json:"pairs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	pairs := make([][2]int32, len(req.Pairs))
	for i, p := range req.Pairs {
		if len(p) != 2 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("pair %d: want [s,t]", i))
			return
		}
		pairs[i] = [2]int32{p[0], p[1]}
	}
	dists, err := rt.DistanceBatch(r.Context(), pairs)
	if err != nil {
		httpError(w, routedStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(dists), "distances": dists})
}

// handleEdges forwards write batches, accepting the serving tier's
// request shapes ({"edge":[a,b]} or {"edges":[[a,b],...]}).
func (rt *Router) handleEdges(del bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Edge  []int32   `json:"edge"`
			Edges [][]int32 `json:"edges"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		raw := req.Edges
		if len(req.Edge) == 2 {
			raw = append(raw, req.Edge)
		}
		edges := make([][2]int32, len(raw))
		for i, e := range raw {
			if len(e) != 2 {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("edge %d: want [a,b]", i))
				return
			}
			edges[i] = [2]int32{e[0], e[1]}
		}
		if del {
			res, err := rt.DeleteEdges(r.Context(), edges)
			if err != nil {
				httpError(w, routedStatus(err), err.Error())
				return
			}
			writeJSON(w, http.StatusOK, res)
			return
		}
		res, err := rt.InsertEdges(r.Context(), edges)
		if err != nil {
			httpError(w, routedStatus(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// ---- binary front end ----

// ServeBinary accepts binary-protocol connections on ln and serves
// the read/write/stats/ping subset, routed. Replication frames are
// answered with Malformed (a router is not a follower); unknown types
// likewise, mirroring the serving tier.
func (rt *Router) ServeBinary(ctx context.Context, ln net.Listener) error {
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
		wg    sync.WaitGroup
	)
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-stop:
		}
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.SetReadDeadline(time.Now())
		}
		mu.Unlock()
	}()
	var acceptErr error
	for {
		c, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		mu.Lock()
		conns[c] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.serveBinaryConn(ctx, c)
			mu.Lock()
			delete(conns, c)
			mu.Unlock()
		}()
	}
	close(stop)
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(rt.cfg.ShutdownGrace):
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		<-drained
	}
	return acceptErr
}

// ListenAndServeBinary serves the binary front end on addr.
func (rt *Router) ListenAndServeBinary(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return rt.ServeBinary(ctx, ln)
}

const (
	binHandshakeTimeout = 5 * time.Second
	binIdleTimeout      = 5 * time.Minute
	binWriteTimeout     = 30 * time.Second
)

// serveBinaryConn mirrors the serving tier's request loop — handshake,
// frame, dispatch, pipelined flush — with routed execution.
func (rt *Router) serveBinaryConn(ctx context.Context, c net.Conn) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(binHandshakeTimeout))
	if err := wire.ReadMagic(c); err != nil {
		return
	}
	if err := wire.WriteMagic(c); err != nil {
		return
	}
	c.SetDeadline(time.Time{})

	r := wire.NewReader(c, wire.MaxFrame)
	w := wire.NewWriter(c)
	var (
		pairs   [][2]int32
		scratch []byte
	)
	for {
		c.SetReadDeadline(time.Now().Add(binIdleTimeout))
		typ, payload, err := r.ReadFrame()
		if err != nil {
			return
		}
		c.SetWriteDeadline(time.Now().Add(binWriteTimeout))

		var respType wire.Type
		scratch = scratch[:0]
		switch typ {
		case wire.TDistance:
			sv, tv, derr := wire.DecodePair(payload)
			if derr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed, derr.Error())
				break
			}
			d, qerr := rt.Distance(ctx, sv, tv)
			if qerr != nil {
				respType, scratch = wire.TError, appendRoutedError(scratch, qerr)
				break
			}
			respType, scratch = wire.TDistanceResp, wire.AppendDistance(scratch, d)

		case wire.TBatch:
			var derr error
			pairs, derr = wire.DecodePairs(payload, pairs)
			if derr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed, derr.Error())
				break
			}
			dists, qerr := rt.DistanceBatch(ctx, pairs)
			if qerr != nil {
				respType, scratch = wire.TError, appendRoutedError(scratch, qerr)
				break
			}
			respType, scratch = wire.TBatchResp, wire.AppendDistances(scratch, dists)

		case wire.TInsert:
			var derr error
			pairs, derr = wire.DecodePairs(payload, pairs)
			if derr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed, derr.Error())
				break
			}
			res, ierr := rt.InsertEdges(ctx, pairs)
			if ierr != nil {
				respType, scratch = wire.TError, appendRoutedError(scratch, ierr)
				break
			}
			respType, scratch = wire.TInsertResp, wire.AppendInsertResult(scratch, res.Accepted, res.Inserted, res.Epoch)

		case wire.TDelete:
			var derr error
			pairs, derr = wire.DecodePairs(payload, pairs)
			if derr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed, derr.Error())
				break
			}
			res, derr2 := rt.DeleteEdges(ctx, pairs)
			if derr2 != nil {
				respType, scratch = wire.TError, appendRoutedError(scratch, derr2)
				break
			}
			respType, scratch = wire.TDeleteResp, wire.AppendDeleteResult(scratch, res.Accepted, res.Deleted, res.Epoch)

		case wire.TStats:
			doc, merr := json.Marshal(rt.statsDoc())
			if merr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeInternal, merr.Error())
				break
			}
			respType, scratch = wire.TStatsResp, append(scratch, doc...)

		case wire.TPing:
			respType = wire.TPingResp

		default:
			respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed,
				fmt.Sprintf("unknown record type 0x%02x", byte(typ)))
		}

		if err := w.WriteFrame(respType, scratch); err != nil {
			return
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// appendRoutedError encodes a routed failure as a wire error frame,
// re-relaying remote error codes verbatim so a client behind the
// router sees the member's own taxonomy (Range stays Range, Degraded
// stays Degraded), and mapping routing failures to Unavailable.
func appendRoutedError(scratch []byte, err error) []byte {
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return wire.AppendError(scratch, re.Code, re.Message)
	}
	if errors.Is(err, ErrUnavailable) {
		return wire.AppendError(scratch, wire.CodeUnavailable, err.Error())
	}
	return wire.AppendError(scratch, wire.CodeInternal, err.Error())
}
