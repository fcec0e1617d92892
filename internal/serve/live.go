package serve

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"highway/internal/core"
	"highway/internal/dynhl"
	"highway/internal/failpoint"
	"highway/internal/graph"
)

// LiveConfig tunes an updatable Server. The zero value serves live
// updates in memory only (no WAL, so nothing to checkpoint).
type LiveConfig struct {
	Config

	// WAL, when non-nil, makes accepted writes durable: every batch is
	// appended (one fsync per request) before it is applied, and a
	// background checkpoint persists the served snapshot next to the
	// log and compacts it. The server owns the WAL once passed in and
	// closes it in Close.
	WAL *WAL

	// CheckpointThreshold is the WAL length (in records) that triggers
	// a background checkpoint: the published graph+index is persisted
	// next to the log and the log compacted to the ops acked since.
	// 0 means DefaultCheckpointThreshold; negative never checkpoints.
	// Without a WAL there is nothing to checkpoint.
	CheckpointThreshold int

	// DegradedProbeInterval is how often a degraded server probes the
	// WAL (an fsync of the open log) to decide whether writes can be
	// re-enabled. 0 means DefaultDegradedProbeInterval.
	DegradedProbeInterval time.Duration

	// EpochBase seeds the snapshot epoch counter. A replicating primary
	// passes its persisted generation shifted into the high 32 bits
	// (cluster.NextGeneration), so every epoch it ever publishes is
	// strictly above those of any earlier primary incarnation — the
	// ordering epoch fencing rests on. 0 (the default) preserves the
	// single-node behavior: epochs count 1, 2, 3, ...
	EpochBase uint64

	// OnCommit, when non-nil, is called after every accepted write
	// batch, with the epoch it became visible at, while the writer lock
	// is still held — calls arrive strictly in epoch order and before
	// the write is acknowledged. Writes are the only thing that moves
	// the epoch, so the last epoch OnCommit saw is always Epoch(). It
	// must not block (the cluster shipper enqueues and returns) and
	// must not call back into the server's write path.
	OnCommit func(epoch uint64, ops []dynhl.Op)
}

// DefaultCheckpointThreshold is the WAL length that triggers a
// checkpoint when LiveConfig.CheckpointThreshold is zero.
const DefaultCheckpointThreshold = 8192

// DefaultDegradedProbeInterval is how often a degraded server re-probes
// its WAL when LiveConfig.DegradedProbeInterval is zero.
const DefaultDegradedProbeInterval = 250 * time.Millisecond

// ErrReadOnly is returned by InsertEdges on a server built with New.
var ErrReadOnly = errors.New("serve: read-only server (built without NewLive)")

// ErrClosed is returned by InsertEdges after Close.
var ErrClosed = errors.New("serve: server is closed")

// ErrEdgeRange is wrapped by InsertEdges when a batch names a vertex
// outside the graph: a client fault (HTTP 400), distinguishable with
// errors.Is from server-side failures (HTTP 500).
var ErrEdgeRange = errors.New("serve: edge endpoint out of range")

// ErrDegraded is wrapped by InsertEdges while the server is in degraded
// read-only mode: a WAL append or fsync failed, so writes cannot be made
// durable and are rejected until the recovery probe finds the log
// writable again. Reads are unaffected. Maps to HTTP 503 + Retry-After
// and wire.CodeDegraded.
var ErrDegraded = errors.New("serve: degraded read-only mode (WAL unwritable)")

// InsertResult reports one accepted update batch.
type InsertResult struct {
	// Accepted is the number of edges validated and (if a WAL is
	// configured) durably logged — the whole batch, including edges that
	// turn out to be duplicates or self-loops.
	Accepted int `json:"accepted"`
	// Inserted is the number of edges that were actually new.
	Inserted int `json:"inserted"`
	// Epoch is the snapshot epoch the batch is visible at: every read
	// that starts after InsertEdges returns sees at least this epoch.
	Epoch uint64 `json:"epoch"`
}

// DeleteResult reports one accepted deletion batch (the decremental
// mirror of InsertResult).
type DeleteResult struct {
	// Accepted is the number of edges validated and (if a WAL is
	// configured) durably logged — the whole batch, including edges that
	// turn out to be absent or self-loops.
	Accepted int `json:"accepted"`
	// Deleted is the number of edges that were actually removed.
	Deleted int `json:"deleted"`
	// Epoch is the snapshot epoch the batch is visible at.
	Epoch uint64 `json:"epoch"`
}

// updater is the writer half of a live server. All fields are guarded
// by mu except the atomic monitoring counters at the bottom.
type updater struct {
	mu  sync.Mutex
	cfg LiveConfig

	// dyn is the mutable truth: the dynamic labelling every accepted
	// batch is applied to. Its labelling is always identical to a
	// from-scratch build on the current edge set (internal/dynhl's
	// invariant), which is what makes WAL replay and snapshot
	// publication exact.
	dyn *dynhl.Index
	wal *WAL // nil when running without durability

	// published is the index of the newest published snapshot (its
	// graph is published.Graph()): what a checkpoint persists and what
	// FrozenState hands a resyncing follower.
	published *core.Index

	// checkpointAt is the WAL length that starts the next checkpoint,
	// 0 when checkpoints are off (no WAL, or a negative threshold).
	// After a failed checkpoint it moves a further threshold past the
	// length at failure, so a broken disk is retried at the pace the
	// log grows rather than on every write.
	checkpointAt int
	// delta collects the ops acked while a checkpoint persists: exactly
	// what the compacted log must keep.
	delta         []dynhl.Op
	checkpointing bool
	closed        bool
	wg            sync.WaitGroup // in-flight checkpoint + recovery-probe goroutines
	// closeCh is closed by Close; the recovery probe selects on it so
	// shutdown never waits out a probe interval.
	closeCh chan struct{}

	// Degraded read-only mode (mu-guarded; degradedFlag mirrors
	// `degraded` for lock-free /readyz checks). probing is true while the
	// recovery-probe goroutine is alive.
	degraded       bool
	degradedReason string
	probing        bool

	// Monitoring counters (read lock-free by /stats).
	epoch            atomic.Uint64
	checkpoints      atomic.Int64
	checkpointErrs   atomic.Int64
	lastCheckpointNs atomic.Int64
	acceptedTotal    atomic.Int64
	degradedFlag     atomic.Bool
	writesRejected   atomic.Int64
	recoveries       atomic.Int64

	// Deletion and labelling-maintenance counters.
	acceptedDeletes   atomic.Int64
	deletedTotal      atomic.Int64
	selRepairs        atomic.Int64
	maintFullRebuilds atomic.Int64
}

// NewLive returns an updatable Server seeded from ix. If cfg.WAL is set,
// any ops (insertions and deletions) recovered from the log are replayed
// first (through the copy-on-write dynhl.FromCore conversion), so the
// served snapshot reflects every write acknowledged before a crash. The
// server takes ownership of the WAL.
func NewLive(ix *core.Index, cfg LiveConfig) (*Server, error) {
	// The server owns cfg.WAL from here on, including on error paths.
	fail := func(err error) (*Server, error) {
		if cfg.WAL != nil {
			cfg.WAL.Close()
		}
		return nil, err
	}
	dyn, err := dynhl.FromCore(ix)
	if err != nil {
		return fail(fmt.Errorf("serve: live conversion: %w", err))
	}
	s := newServer(ix, ix.Graph().NumVertices(), cfg.Config)
	up := &updater{cfg: cfg, dyn: dyn, wal: cfg.WAL, published: ix, closeCh: make(chan struct{})}
	s.up = up
	up.epoch.Store(cfg.EpochBase)
	if cfg.EpochBase != 0 {
		s.snap.Store(newSnapshot(ix, ix.Graph().NumVertices(), cfg.EpochBase))
	}
	if up.wal != nil {
		up.checkpointAt = up.checkpointThreshold()
		if rec := up.wal.Recovered(); len(rec) > 0 {
			if _, err := dyn.ApplyOps(rec); err != nil {
				return fail(fmt.Errorf("serve: wal replay: %w", err))
			}
			_, fresh, err := dyn.Freeze()
			if err != nil {
				return fail(fmt.Errorf("serve: wal replay freeze: %w", err))
			}
			s.publishLocked(fresh)
		}
	}
	return s, nil
}

// publishLocked (mu held, or before the server is shared) makes ix the
// served snapshot at the next epoch and returns that epoch.
func (s *Server) publishLocked(ix *core.Index) uint64 {
	up := s.up
	up.published = ix
	epoch := up.epoch.Add(1)
	s.snap.Store(newSnapshot(ix, ix.Graph().NumVertices(), epoch))
	return epoch
}

// LoadLive assembles a live server from files: it loads the newest
// persisted state (the snapshot a checkpoint wrote next to the WAL if
// there is one, else the base graph+index files), opens the WAL at
// walPath and replays it. This is the crash-recovery entry point hlserve uses; the
// combination (snapshot ⊕ WAL replay) always reconstructs exactly the
// acknowledged edge set, because compaction persists the snapshot
// before truncating the log and replay is idempotent.
func LoadLive(graphPath, indexPath, walPath string, cfg LiveConfig) (*Server, error) {
	wal, err := OpenWAL(walPath)
	if err != nil {
		return nil, err
	}
	var ix *core.Index
	if _, serr := os.Stat(wal.SnapshotPath()); serr == nil {
		_, ix, err = loadSnapshot(wal.SnapshotPath())
	} else {
		var g *graph.Graph
		g, err = graph.LoadBinary(graphPath)
		if err == nil {
			ix, err = core.Load(indexPath, g)
		}
	}
	if err != nil {
		wal.Close()
		return nil, err
	}
	cfg.WAL = wal
	return NewLive(ix, cfg) // NewLive owns (and closes) the WAL on failure
}

// snapMagic heads the single-file graph+index snapshot a checkpoint
// persists next to the WAL. One file, one atomic rename: the graph and
// the labelling can never be on disk out of step with each other,
// which a two-file scheme could not guarantee across a crash.
const snapMagic = "HWLSNAP1"

// writeSnapshot persists graph+index as one file, fsynced before an
// atomic rename into place — only after this returns may the WAL be
// compacted, or a power failure could lose acknowledged edges. The WAL
// (may be nil) only receives the directory-fsync error count.
func writeSnapshot(path string, g *graph.Graph, ix *core.Index, w *WAL) error {
	if err := failpoint.Eval(FPSnapshotWrite); err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = EncodeSnapshot(bw, g, ix)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync() // contents must be durable before the rename publishes them
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if derr := syncDir(filepath.Dir(path)); derr != nil && w != nil {
		w.dirSyncErrs.Add(1)
	}
	return nil
}

// loadSnapshot reads a snapshot written by writeSnapshot.
func loadSnapshot(path string) (*graph.Graph, *core.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: snapshot: %w", err)
	}
	defer f.Close()
	g, ix, err := DecodeSnapshot(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	return g, ix, nil
}

// InsertEdges accepts a batch of undirected edge insertions: validates
// every endpoint (the whole batch is rejected on any invalid vertex —
// no partial application), appends the batch to the WAL with one fsync,
// applies it to the dynamic labelling, and publishes a fresh snapshot
// that every subsequent read observes. Duplicate edges and self-loops
// are accepted but ignored (counted in Accepted, not Inserted), which
// is what makes WAL replay idempotent. Safe for concurrent use; writers
// are serialized, readers never blocked.
func (s *Server) InsertEdges(edges [][2]int32) (InsertResult, error) {
	res, epoch, err := s.mutate(dynhl.InsertOps(edges))
	if err != nil {
		return InsertResult{}, err
	}
	return InsertResult{Accepted: len(edges), Inserted: res.Inserted, Epoch: epoch}, nil
}

// DeleteEdges accepts a batch of undirected edge deletions with the
// same contract as InsertEdges: whole-batch validation, one WAL fsync
// (deletions are logged as one's-complement records in the same log),
// decremental repair of the labelling, and a fresh snapshot published
// before the call returns. Edges that are absent — including ones
// already deleted, which is what makes replay idempotent — and
// self-loops are acked but ignored (Accepted, not Deleted).
func (s *Server) DeleteEdges(edges [][2]int32) (DeleteResult, error) {
	res, epoch, err := s.mutate(dynhl.DeleteOps(edges))
	if err != nil {
		return DeleteResult{}, err
	}
	return DeleteResult{Accepted: len(edges), Deleted: res.Deleted, Epoch: epoch}, nil
}

// mutate is the single writer path shared by InsertEdges and
// DeleteEdges: validate → WAL append (one fsync) → apply to the dynamic
// labelling → publish snapshot → bump counters → maybe checkpoint.
func (s *Server) mutate(ops []dynhl.Op) (dynhl.OpResult, uint64, error) {
	if s.up == nil {
		return dynhl.OpResult{}, 0, ErrReadOnly
	}
	// Writes add edges, never vertices, so a live server's n is fixed.
	n := s.snap.Load().n
	for _, op := range ops {
		if op.A < 0 || int64(op.A) >= n || op.B < 0 || int64(op.B) >= n {
			return dynhl.OpResult{}, 0, fmt.Errorf("%w: {%d,%d} outside [0,%d)", ErrEdgeRange, op.A, op.B, n)
		}
	}
	up := s.up
	up.mu.Lock()
	defer up.mu.Unlock()
	if up.closed {
		return dynhl.OpResult{}, 0, ErrClosed
	}
	if up.degraded {
		up.writesRejected.Add(1)
		return dynhl.OpResult{}, 0, fmt.Errorf("%w: %s", ErrDegraded, up.degradedReason)
	}
	if len(ops) == 0 {
		return dynhl.OpResult{}, up.epoch.Load(), nil
	}
	// Durability first: the batch must be on disk before any state the
	// crash-recovery path cannot reconstruct is mutated.
	if up.wal != nil {
		if err := up.wal.AppendOps(ops); err != nil {
			// The WAL cleaned its own tail up (or failed stop); the server
			// transitions to degraded read-only mode rather than serving
			// per-request 500s from a log that is unlikely to heal before
			// the next request. This request itself carries the degraded
			// taxonomy too, so clients see one consistent signal.
			up.enterDegradedLocked(err)
			up.writesRejected.Add(1)
			return dynhl.OpResult{}, 0, fmt.Errorf("%w: %w", ErrDegraded, err)
		}
	}
	res, err := up.dyn.ApplyOps(ops)
	if err != nil {
		// Unreachable after the validation above; keep the state
		// machine honest anyway.
		return dynhl.OpResult{}, 0, err
	}
	_, fresh, err := up.dyn.Freeze()
	if err != nil {
		return dynhl.OpResult{}, 0, fmt.Errorf("serve: freeze: %w", err)
	}
	epoch := s.publishLocked(fresh)
	if up.cfg.OnCommit != nil {
		// Under mu: commits reach the hook strictly in epoch order,
		// before the write is acked, which is what lets the cluster
		// shipper promise "every acked batch was enqueued for shipping".
		up.cfg.OnCommit(epoch, ops)
	}

	var dels int64
	for _, op := range ops {
		if op.Del {
			dels++
		}
	}
	up.acceptedTotal.Add(int64(len(ops)) - dels)
	up.acceptedDeletes.Add(dels)
	up.deletedTotal.Add(int64(res.Deleted))
	if res.Rebuilt {
		up.maintFullRebuilds.Add(1)
	} else if res.Dirty > 0 {
		up.selRepairs.Add(1)
	}
	if up.checkpointing {
		up.delta = append(up.delta, ops...)
	}
	up.maybeCheckpointLocked()
	return res, epoch, nil
}

// enterDegradedLocked (mu held) flips the server into degraded
// read-only mode and starts the recovery probe if one is not already
// running. Reads are untouched — the last published snapshot keeps
// serving — while every write is rejected with ErrDegraded until the
// probe finds the WAL writable again.
func (up *updater) enterDegradedLocked(cause error) {
	if up.degraded {
		return
	}
	up.degraded = true
	up.degradedReason = cause.Error()
	up.degradedFlag.Store(true)
	if up.probing || up.closed {
		return
	}
	up.probing = true
	up.wg.Add(1)
	go up.recoveryProbe()
}

// probeInterval resolves the configured recovery-probe cadence.
func (up *updater) probeInterval() time.Duration {
	if up.cfg.DegradedProbeInterval > 0 {
		return up.cfg.DegradedProbeInterval
	}
	return DefaultDegradedProbeInterval
}

// recoveryProbe periodically fsyncs the WAL while the server is
// degraded; the first success re-arms writes and ends the probe. The
// probe also ends on Close or if something else already cleared the
// degraded state.
func (up *updater) recoveryProbe() {
	defer up.wg.Done()
	ticker := time.NewTicker(up.probeInterval())
	defer ticker.Stop()
	for {
		select {
		case <-up.closeCh:
			up.mu.Lock()
			up.probing = false
			up.mu.Unlock()
			return
		case <-ticker.C:
		}
		up.mu.Lock()
		if up.closed || !up.degraded {
			up.probing = false
			up.mu.Unlock()
			return
		}
		// Degraded mode is only entered on a WAL failure, so wal != nil.
		if err := up.wal.Probe(); err != nil {
			up.degradedReason = err.Error()
			up.mu.Unlock()
			continue
		}
		up.degraded = false
		up.degradedReason = ""
		up.degradedFlag.Store(false)
		up.recoveries.Add(1)
		up.probing = false
		up.mu.Unlock()
		return
	}
}

// Degraded reports whether the server is in degraded read-only mode
// (lock-free; /readyz polls this).
func (s *Server) Degraded() bool {
	return s.up != nil && s.up.degradedFlag.Load()
}

// checkpointThreshold resolves the configured WAL-length trigger; 0
// means never.
func (up *updater) checkpointThreshold() int {
	switch {
	case up.cfg.CheckpointThreshold == 0:
		return DefaultCheckpointThreshold
	case up.cfg.CheckpointThreshold < 0:
		return 0
	default:
		return up.cfg.CheckpointThreshold
	}
}

// maybeCheckpointLocked (mu held) starts a background checkpoint once
// the WAL has reached the trigger length and none is in flight.
func (up *updater) maybeCheckpointLocked() {
	if up.checkpointAt == 0 || up.checkpointing || up.closed || up.wal.Len() < up.checkpointAt {
		return
	}
	up.checkpointing = true
	up.wg.Add(1)
	go up.checkpoint(up.published)
}

// checkpoint persists ix — the snapshot published when the WAL reached
// its trigger length — and compacts the log to the ops acked since
// (up.delta). It builds nothing, publishes nothing and moves no epoch:
// dynamic repair already keeps the served labelling identical to a
// from-scratch build (DESIGN.md "Live updates"), so all that is left
// is bounding the log and the restart replay.
//
// The snapshot is written outside the writer lock (ix is immutable, so
// the disk write stalls no writer); the compaction runs under it, so no
// append interleaves with the log rewrite. Order is what makes it crash
// safe: the log shrinks only after the snapshot is durably on disk,
// and a crash in between replays the old, longer log against the new
// snapshot, which is idempotent. If either step fails the full log
// stays and the next attempt waits until it has grown by another
// threshold.
func (up *updater) checkpoint(ix *core.Index) {
	defer up.wg.Done()
	start := time.Now()
	err := writeSnapshot(up.wal.SnapshotPath(), ix.Graph(), ix, up.wal)

	up.mu.Lock()
	defer up.mu.Unlock()
	delta := up.delta
	up.delta, up.checkpointing = nil, false
	if err == nil {
		err = up.wal.CompactTo(delta)
	}
	if err != nil {
		up.checkpointErrs.Add(1)
		up.checkpointAt = up.wal.Len() + up.checkpointThreshold()
		return
	}
	up.checkpointAt = up.checkpointThreshold()
	up.checkpoints.Add(1)
	up.lastCheckpointNs.Store(int64(time.Since(start)))
}

// Close shuts the writer side down: it waits for an in-flight
// checkpoint and the recovery probe to finish and closes the WAL.
// Reads keep working against the last snapshot; InsertEdges returns
// ErrClosed afterwards. Close is a no-op on read-only servers.
func (s *Server) Close() error {
	if s.up == nil {
		return nil
	}
	up := s.up
	up.mu.Lock()
	if up.closed {
		up.mu.Unlock()
		return nil
	}
	up.closed = true
	close(up.closeCh)
	up.mu.Unlock()
	up.wg.Wait()
	if up.wal != nil {
		return up.wal.Close()
	}
	return nil
}

// LiveStats is the snapshot/WAL/checkpoint section of /stats, present
// only on live servers.
type LiveStats struct {
	Epoch         uint64 `json:"epoch"`
	AcceptedEdges int64  `json:"accepted_edges"`
	WALEnabled    bool   `json:"wal_enabled"`
	WALLen        int    `json:"wal_len"`
	// Checkpoints counts snapshots persisted next to the WAL with the
	// log compacted behind them; CheckpointErrors counts attempts whose
	// persist or compaction failed (the full log stays in place).
	Checkpoints      int64   `json:"checkpoints"`
	CheckpointErrors int64   `json:"checkpoint_errors"`
	LastCheckpointMs float64 `json:"last_checkpoint_ms"`

	// Deletion counters: accepted delete ops (whole batches, including
	// no-ops) and edges actually removed.
	AcceptedDeletes int64 `json:"accepted_deletes"`
	EdgesDeleted    int64 `json:"edges_deleted"`
	// Labelling-maintenance counters for the decremental path: write
	// batches repaired per-landmark vs. batches that tripped the dirty
	// fraction and rebuilt every landmark inline.
	SelectiveRepairs  int64 `json:"selective_repairs"`
	MaintFullRebuilds int64 `json:"maint_full_rebuilds"`

	// Degraded read-only mode: true while the WAL is unwritable. Writes
	// are rejected (counted in WritesRejected) and Recoveries counts
	// degraded→live transitions.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	WritesRejected int64  `json:"writes_rejected"`
	Recoveries     int64  `json:"recoveries"`

	// WAL is the log's own counters (nil when running without one).
	WAL *WALStats `json:"wal,omitempty"`
}

// LiveStats returns the live-serving counters, or nil on a read-only
// server.
func (s *Server) LiveStats() *LiveStats {
	up := s.up
	if up == nil {
		return nil
	}
	up.mu.Lock()
	st := &LiveStats{
		Epoch:             up.epoch.Load(),
		AcceptedEdges:     up.acceptedTotal.Load(),
		WALEnabled:        up.wal != nil,
		Checkpoints:       up.checkpoints.Load(),
		CheckpointErrors:  up.checkpointErrs.Load(),
		LastCheckpointMs:  float64(up.lastCheckpointNs.Load()) / 1e6,
		AcceptedDeletes:   up.acceptedDeletes.Load(),
		EdgesDeleted:      up.deletedTotal.Load(),
		SelectiveRepairs:  up.selRepairs.Load(),
		MaintFullRebuilds: up.maintFullRebuilds.Load(),
		Degraded:          up.degraded,
		DegradedReason:    up.degradedReason,
		WritesRejected:    up.writesRejected.Load(),
		Recoveries:        up.recoveries.Load(),
	}
	if up.wal != nil {
		st.WALLen = up.wal.Len()
		ws := up.wal.Stats()
		st.WAL = &ws
	}
	up.mu.Unlock()
	return st
}
