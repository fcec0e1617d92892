// Package serve turns a highway cover labelling into a concurrent
// query-serving subsystem: the load-bearing entry point between the
// offline index of the paper and a system answering heavy online
// traffic — including traffic that *mutates the graph while queries are
// being served*.
//
// # Reading
//
// A Server answers exact distance queries from an immutable snapshot: a
// core.Index plus its own pool of per-goroutine Searchers, published
// behind an atomic pointer. Readers load the current snapshot, check a
// Searcher out of that snapshot's pool, answer allocation-free, and
// return it — no locks, no contention with writers, ever. It exposes
//
//   - an HTTP/JSON API (Handler): GET /distance for single pairs,
//     POST /distance/batch to amortize dispatch over many pairs per
//     request, GET /stats for index, snapshot and per-endpoint
//     latency/QPS counters, GET /healthz for liveness, and GET / for
//     self-documenting help;
//   - a binary wire protocol listener (ServeBinary, specified in
//     PROTOCOL.md): length-prefixed checksummed frames carrying the
//     same single/batch/insert/stats requests with pipelining, for
//     native clients (internal/hlclient) that cannot afford the
//     HTTP/1 + JSON protocol tax — both listeners may run at once over
//     the same snapshots, pools and metrics;
//   - a high-throughput stdin/stdout batch mode (RunBatch) that streams
//     "s t" lines through a bounded worker pipeline in input order; and
//   - graceful shutdown via context (ListenAndServe).
//
// # Writing (live servers)
//
// A Server built with NewLive or LoadLive additionally accepts edge
// insertions (POST /edges, or InsertEdges from Go) and deletions
// (DELETE /edges, or DeleteEdges). Writers are serialized behind a
// mutex and never block readers: each accepted batch is (1) appended to
// the write-ahead edge log if one is configured (deletions as
// one's-complement records in the same log), (2) applied to a mutable
// dynhl.Index by selective landmark repair — falling back to an inline
// full rebuild when a deletion batch dirties too many landmarks — and
// (3) frozen into a fresh immutable snapshot that is atomically swapped
// in, so the next read observes it.
//
// The WAL makes acknowledged writes durable: appends are batched into
// one fsync per accepted request, and LoadLive replays the log through
// dynhl.FromCore on startup, so a crash loses nothing that was
// acknowledged. Once the log reaches a length threshold (see
// LiveConfig.CheckpointThreshold), a background checkpoint persists
// the snapshot already being served next to the WAL and compacts the
// log to the writes acked since, bounding restart replay time. The
// checkpoint builds nothing: dynamic repair keeps the served labelling
// identical to a from-scratch build, so there is nothing to rebuild.
// Epochs move only on writes. See DESIGN.md for the full lifecycle.
//
// All cross-request state is either immutable (snapshots), atomic
// (counters, the snapshot pointer) or mutex-held (the writer state), so
// every method on Server is safe for concurrent use.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"highway/internal/core"
	"highway/internal/failpoint"
	"highway/internal/method"
)

// Config tunes a Server. The zero value is ready for production use.
type Config struct {
	// MaxBatch caps the number of pairs accepted by one batch request
	// and the number of edges accepted by one update request
	// (DefaultMaxBatch when 0). Oversized batches are rejected with 413
	// rather than truncated.
	MaxBatch int
	// ShutdownGrace bounds how long ListenAndServe waits for in-flight
	// requests after its context is cancelled (DefaultShutdownGrace
	// when 0).
	ShutdownGrace time.Duration

	// ReadBudget and WriteBudget bound concurrent in-flight work per
	// request class, in admission cost units (1 + pairs/1024 per
	// request, so big batches weigh proportionally more). Requests over
	// budget are shed before any work with HTTP 429 / wire Overloaded.
	// 0 means DefaultReadBudget/DefaultWriteBudget; negative disables
	// the gate (unlimited).
	ReadBudget  int
	WriteBudget int
}

// DefaultMaxBatch is the largest batch request accepted when
// Config.MaxBatch is zero. At ~2 µs per query this keeps worst-case
// request latency in the tens of milliseconds.
const DefaultMaxBatch = 100_000

// DefaultShutdownGrace is the graceful-shutdown bound used when
// Config.ShutdownGrace is zero.
const DefaultShutdownGrace = 5 * time.Second

// snapshot is one immutable published state of the server: an index,
// its vertex count and the searcher pool bound to it. The index is any
// method's DistanceIndex — the server never looks past the interface on
// the read path, which is what lets hlserve -method serve every
// labelling through one machinery. Searchers hold scratch state sized
// and aimed at one specific index, so every snapshot owns its own pool
// and a checked-out Searcher is always returned to the snapshot it came
// from. Reads validate vertex ids against the n of the snapshot they
// answer from: a follower's Publish can swap in an index of a different
// size between any two loads, so n must travel with the index.
type snapshot struct {
	ix        method.DistanceIndex
	n         int64
	epoch     uint64
	searchers sync.Pool
}

func newSnapshot(ix method.DistanceIndex, n int, epoch uint64) *snapshot {
	sn := &snapshot{ix: ix, n: int64(n), epoch: epoch}
	sn.searchers.New = func() any { return ix.NewSearcher() }
	return sn
}

// checkVertex validates a vertex id against the snapshot's vertex set.
func (sn *snapshot) checkVertex(v int32) error {
	if v < 0 || int64(v) >= sn.n {
		return fmt.Errorf("vertex %d %w [0,%d)", v, errOutOfRange, sn.n)
	}
	return nil
}

// checkPairs validates every endpoint of a pair batch, returning the
// index of the first bad pair.
func (sn *snapshot) checkPairs(pairs [][2]int32) (int, error) {
	for i, p := range pairs {
		if err := sn.checkVertex(p[0]); err != nil {
			return i, err
		}
		if err := sn.checkVertex(p[1]); err != nil {
			return i, err
		}
	}
	return -1, nil
}

// errOutOfRange is wrapped by every query-side vertex range error, so
// the listeners can tell a client's bad vertex id from a cancelled
// batch.
var errOutOfRange = errors.New("out of range")

// Server serves exact distance queries from an atomically swappable
// index snapshot. Create one with New (read-only) or NewLive/LoadLive
// (updatable); the zero value is not usable.
type Server struct {
	cfg Config

	// snap is the current read state. Readers Load it once per request
	// and work against that immutable snapshot; writers publish a new
	// snapshot with Store. Never mutated in place.
	snap atomic.Pointer[snapshot]

	// up holds the writer state of a live server; nil for read-only
	// servers (New).
	up *updater

	// Admission gates: bounded in-flight budgets per request class,
	// shared by both listeners (HTTP and binary traffic drain one pool
	// of capacity, because they drain one pool of CPU).
	readGate  gate
	writeGate gate

	// Replication hooks (see repl.go): both are wired before the
	// listeners start and read-only afterwards.
	repl      ReplicationHandler
	replStats func() *ReplicationStats

	metrics metricSet
	started time.Time
}

// New returns a read-only Server over the highway cover index ix.
func New(ix *core.Index, cfg Config) *Server {
	return newServer(ix, ix.Graph().NumVertices(), cfg)
}

// NewIndex returns a read-only Server over any method's DistanceIndex:
// the generic serving path behind "hlserve serve -method". Only the
// highway cover labelling can additionally serve live updates (NewLive);
// every other method serves frozen.
func NewIndex(ix method.DistanceIndex, cfg Config) *Server {
	return newServer(ix, ix.Stats().NumVertices, cfg)
}

func newServer(ix method.DistanceIndex, n int, cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = DefaultShutdownGrace
	}
	s := &Server{cfg: cfg, started: time.Now()}
	s.readGate.budget = resolveBudget(cfg.ReadBudget, DefaultReadBudget)
	s.writeGate.budget = resolveBudget(cfg.WriteBudget, DefaultWriteBudget)
	s.snap.Store(newSnapshot(ix, n, 0))
	return s
}

// Index returns the currently served index snapshot. On a live server a
// later call may return a newer index; the returned index itself is
// immutable and stays valid.
func (s *Server) Index() method.DistanceIndex { return s.snap.Load().ix }

// Epoch returns the current snapshot epoch: 0 at startup (or the
// configured EpochBase), incremented by every accepted write batch —
// nothing else publishes on a live server — and set by each replicated
// state a follower installs.
func (s *Server) Epoch() uint64 { return s.snap.Load().epoch }

// acquire loads the current snapshot and checks a Searcher out of its
// pool; release returns the Searcher to the snapshot it came from.
// The serve.query failpoint fires here — once per request, on every
// query path of every protocol — so tests can dilate query time
// without touching the index (only delay actions make sense at this
// site; an error action's error is discarded).
func (s *Server) acquire() (*snapshot, method.Searcher) {
	_ = failpoint.Eval(FPQuery)
	sn := s.snap.Load()
	return sn, sn.searchers.Get().(method.Searcher)
}

func (s *Server) release(sn *snapshot, sr method.Searcher) { sn.searchers.Put(sr) }

// Distance answers one exact distance query against the current
// snapshot. It is the programmatic equivalent of GET /distance and safe
// for concurrent use.
func (s *Server) Distance(sv, tv int32) (int32, error) {
	sn, sr := s.acquire()
	err := sn.checkVertex(sv)
	if err == nil {
		err = sn.checkVertex(tv)
	}
	d := core.Infinity
	if err == nil {
		d = sr.Distance(sv, tv)
	}
	s.release(sn, sr)
	return d, err
}

// DistanceBatch answers len(pairs) queries with one searcher checkout
// against one consistent snapshot: distances[i] answers pairs[i]. It is
// the programmatic equivalent of POST /distance/batch (and of a binary
// Batch frame). The result is written into dst when it has the
// capacity; dst may be nil. Safe for concurrent use. It is
// DistanceBatchContext without cancellation: the batch always runs to
// completion.
func (s *Server) DistanceBatch(pairs [][2]int32, dst []int32) ([]int32, error) {
	return s.DistanceBatchContext(context.Background(), pairs, dst)
}

// DistanceBatchContext is DistanceBatch with cancellation: the batch is
// dispatched through the snapshot searcher's best execution path (the
// vectorized batch executor when the method provides one, the pair loop
// otherwise) in chunks of method.CancelCheckEvery pairs, and a
// cancelled ctx abandons the remaining pairs within about one chunk.
// On cancellation it returns ctx.Err() and the prefix of answers
// already computed (dst truncated; answers are valid for their pairs).
// Vertex ids are validated against the same snapshot that answers.
func (s *Server) DistanceBatchContext(ctx context.Context, pairs [][2]int32, dst []int32) ([]int32, error) {
	if len(pairs) > s.cfg.MaxBatch {
		return nil, fmt.Errorf("batch of %d pairs exceeds limit %d", len(pairs), s.cfg.MaxBatch)
	}
	sn, sr := s.acquire()
	defer s.release(sn, sr)
	if i, err := sn.checkPairs(pairs); err != nil {
		return nil, fmt.Errorf("pair %d: %w", i, err)
	}
	return method.DistanceBatchContext(ctx, sr, pairs, dst)
}

// ListenAndServe serves the HTTP API on addr until ctx is cancelled,
// then shuts down gracefully, waiting up to Config.ShutdownGrace for
// in-flight requests. It returns nil on clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is ListenAndServe over an existing listener (tests use
// 127.0.0.1:0 to avoid port races).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler: s.Handler(),
		// Bound slow clients: without these a connection trickling
		// header bytes pins a goroutine forever and stalls Shutdown for
		// the whole grace period.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
