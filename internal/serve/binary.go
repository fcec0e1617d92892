package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"highway/internal/failpoint"
	"highway/internal/wire"
)

// Binary protocol listener: the same Server, snapshots and searcher
// pools as the HTTP API, behind the length-prefixed framed protocol of
// internal/wire (specified in PROTOCOL.md). One goroutine per
// connection decodes request frames and answers them strictly in
// order, so clients may pipeline thousands of requests per round trip;
// responses are buffered and flushed only when no further request is
// already readable, which is what collapses a pipelined burst into a
// handful of syscalls.

// Connection timeouts, mirroring the HTTP listener's bounds: a slow or
// dead peer must not pin a goroutine forever.
const (
	binHandshakeTimeout = 10 * time.Second
	binIdleTimeout      = 2 * time.Minute
	binWriteTimeout     = 2 * time.Minute
)

// ListenAndServeBinary serves the binary wire protocol on addr until
// ctx is cancelled, then shuts down gracefully (in-flight requests
// finish; idle connections are released immediately). It returns nil on
// clean shutdown.
func (s *Server) ListenAndServeBinary(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeBinary(ctx, ln)
}

// ServeBinary is ListenAndServeBinary over an existing listener (tests
// use 127.0.0.1:0 to avoid port races). It may run concurrently with
// Serve on another listener: the two protocols share every snapshot,
// searcher pool and metric, so a JSON write is visible to a binary read
// and vice versa.
func (s *Server) ServeBinary(ctx context.Context, ln net.Listener) error {
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
		// Poison pending reads: a connection blocked waiting for its
		// next request fails fast, while one mid-request still gets to
		// write its response before its next read errors out.
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
			s.serveBinaryConn(ctx, c)
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
	case <-time.After(s.cfg.ShutdownGrace):
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		<-drained
	}
	return acceptErr
}

// serveBinaryConn runs one connection's request loop: handshake, then
// frame → dispatch → response until the peer closes, a frame is
// corrupt, or the idle deadline passes. Framing errors drop the
// connection (once the stream position is untrusted nothing on it can
// be answered); application errors are answered in-band with a TError
// frame and the connection keeps going.
//
// ctx is the listener context: its cancellation (server shutdown)
// aborts an in-flight batch within ~method.CancelCheckEvery pairs and
// drops the connection. A peer that merely disconnects mid-batch is
// only observed at response-write time — the pipelined reader gives the
// server no per-request signal before that (see PROTOCOL.md).
func (s *Server) serveBinaryConn(ctx context.Context, c net.Conn) {
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
	// Per-connection scratch, reused across requests so the steady
	// state allocates nothing: decoded pairs, computed distances, and
	// the response payload under construction.
	var (
		pairs   [][2]int32
		dists   []int32
		scratch []byte
	)
	for {
		c.SetReadDeadline(time.Now().Add(binIdleTimeout))
		typ, payload, err := r.ReadFrame()
		if err != nil {
			return
		}
		c.SetWriteDeadline(time.Now().Add(binWriteTimeout))
		start := time.Now()

		// Admission before decode: the cost estimate needs only the
		// payload length, so an over-budget frame is shed for the price
		// of having read it (frames must be consumed in order — the
		// stream cannot be skipped past an unread request).
		var g *gate
		switch typ {
		case wire.TDistance, wire.TBatch:
			g = &s.readGate
		case wire.TInsert, wire.TDelete:
			g = &s.writeGate
		}
		var cost int64
		if g != nil {
			cost = frameCost(len(payload))
			if !g.tryAcquire(cost) {
				scratch = wire.AppendError(scratch[:0], wire.CodeOverloaded,
					"server overloaded: in-flight budget exhausted, retry with backoff")
				s.metrics.observe(binEndpoint(typ), 0, time.Since(start), true)
				if err := s.writeBinaryFrame(w, wire.TError, scratch); err != nil {
					return
				}
				if r.Buffered() == 0 {
					if err := w.Flush(); err != nil {
						return
					}
				}
				continue
			}
		}

		var respType wire.Type
		var answered int64
		scratch = scratch[:0]
		switch typ {
		case wire.TDistance:
			sv, tv, derr := wire.DecodePair(payload)
			if derr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed, derr.Error())
				break
			}
			d, qerr := s.Distance(sv, tv)
			if qerr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeRange, qerr.Error())
				break
			}
			respType, scratch, answered = wire.TDistanceResp, wire.AppendDistance(scratch, d), 1

		case wire.TBatch:
			var derr error
			pairs, derr = wire.DecodePairs(payload, pairs)
			if derr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed, derr.Error())
				break
			}
			if len(pairs) > s.cfg.MaxBatch {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeTooLarge,
					fmt.Sprintf("batch of %d pairs exceeds limit %d", len(pairs), s.cfg.MaxBatch))
				break
			}
			// One searcher for the whole batch, exactly like the HTTP
			// batch endpoint: one consistent snapshot, amortized
			// checkout, vectorized execution when the method provides
			// it. Shutdown cancels the remaining pairs via ctx.
			var qerr error
			dists, qerr = s.DistanceBatchContext(ctx, pairs, dists)
			if errors.Is(qerr, errOutOfRange) {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeRange, qerr.Error())
				break
			}
			if qerr != nil {
				// Only ctx cancellation reaches here (the size was
				// validated above): the server is shutting down and the
				// answers are incomplete, so drop the connection.
				g.release(cost)
				return
			}
			respType, scratch, answered = wire.TBatchResp, wire.AppendDistances(scratch, dists), int64(len(dists))

		case wire.TInsert:
			var derr error
			pairs, derr = wire.DecodePairs(payload, pairs)
			if derr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed, derr.Error())
				break
			}
			if len(pairs) > s.cfg.MaxBatch {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeTooLarge,
					fmt.Sprintf("batch of %d edges exceeds limit %d", len(pairs), s.cfg.MaxBatch))
				break
			}
			res, ierr := s.InsertEdges(pairs)
			if ierr != nil {
				respType, scratch = wire.TError, appendMutationError(scratch, ierr)
				break
			}
			respType, scratch = wire.TInsertResp, wire.AppendInsertResult(scratch, res.Accepted, res.Inserted, res.Epoch)
			answered = int64(res.Accepted)

		case wire.TDelete:
			var derr error
			pairs, derr = wire.DecodePairs(payload, pairs)
			if derr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed, derr.Error())
				break
			}
			if len(pairs) > s.cfg.MaxBatch {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeTooLarge,
					fmt.Sprintf("batch of %d edges exceeds limit %d", len(pairs), s.cfg.MaxBatch))
				break
			}
			res, derr2 := s.DeleteEdges(pairs)
			if derr2 != nil {
				respType, scratch = wire.TError, appendMutationError(scratch, derr2)
				break
			}
			respType, scratch = wire.TDeleteResp, wire.AppendDeleteResult(scratch, res.Accepted, res.Deleted, res.Epoch)
			answered = int64(res.Accepted)

		case wire.TStats:
			doc, merr := json.Marshal(s.statsDoc())
			if merr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeInternal, merr.Error())
				break
			}
			respType, scratch = wire.TStatsResp, append(scratch, doc...)

		case wire.TPing:
			respType = wire.TPingResp

		case wire.TReplAppend:
			// Replication frames are never admission-gated: shedding the
			// primary's shipping stream would turn overload into
			// replica lag, the opposite of what the gate protects.
			if s.repl == nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed,
					"server is not a replication follower")
				break
			}
			epoch, ops, derr := wire.DecodeReplAppend(payload, pairs)
			if derr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed, derr.Error())
				break
			}
			pairs = ops
			cur, aerr := s.repl.ReplAppend(epoch, ops)
			if aerr != nil {
				respType, scratch = wire.TError, appendReplError(scratch, aerr)
				break
			}
			respType, scratch = wire.TReplAck, wire.AppendReplAck(scratch, cur)
			answered = int64(len(ops))

		case wire.TReplSnapshot:
			if s.repl == nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed,
					"server is not a replication follower")
				break
			}
			epoch, done, chunk, derr := wire.DecodeReplSnapshot(payload)
			if derr != nil {
				respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed, derr.Error())
				break
			}
			cur, aerr := s.repl.ReplSnapshot(epoch, done, chunk)
			if aerr != nil {
				respType, scratch = wire.TError, appendReplError(scratch, aerr)
				break
			}
			respType, scratch = wire.TReplSnapshotResp, wire.AppendReplAck(scratch, cur)

		default:
			respType, scratch = wire.TError, wire.AppendError(scratch, wire.CodeMalformed,
				fmt.Sprintf("unknown record type 0x%02x", byte(typ)))
		}

		if g != nil {
			g.release(cost)
		}
		s.metrics.observe(binEndpoint(typ), answered, time.Since(start), respType == wire.TError)
		if err := s.writeBinaryFrame(w, respType, scratch); err != nil {
			return
		}
		// Pipelining flush heuristic: only flush when no further
		// request is already buffered, so a burst of N requests costs
		// ~1 write syscall, not N.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// writeBinaryFrame is WriteFrame behind the serve.bin.write failpoint:
// the chaos harness breaks response writes here to simulate a client
// connection dying mid-response.
func (s *Server) writeBinaryFrame(w *wire.Writer, t wire.Type, payload []byte) error {
	if err := failpoint.Eval(FPBinWrite); err != nil {
		return err
	}
	return w.WriteFrame(t, payload)
}

// appendMutationError maps the mutation error taxonomy (shared by
// TInsert and TDelete) onto a TError payload.
func appendMutationError(scratch []byte, err error) []byte {
	switch {
	case errors.Is(err, ErrReadOnly):
		return wire.AppendError(scratch, wire.CodeReadOnly, err.Error())
	case errors.Is(err, ErrClosed):
		return wire.AppendError(scratch, wire.CodeClosed, err.Error())
	case errors.Is(err, ErrDegraded):
		return wire.AppendError(scratch, wire.CodeDegraded, err.Error())
	case errors.Is(err, ErrEdgeRange):
		return wire.AppendError(scratch, wire.CodeRange, err.Error())
	default:
		// Freeze or apply failure: the batch was NOT applied.
		return wire.AppendError(scratch, wire.CodeInternal, err.Error())
	}
}

// appendReplError maps a ReplicationHandler failure onto a TError
// payload: fencing gets its own code so shippers can tell "stale
// duplicate / deposed" from a genuine apply failure.
func appendReplError(scratch []byte, err error) []byte {
	if errors.Is(err, ErrFenced) {
		return wire.AppendError(scratch, wire.CodeFenced, err.Error())
	}
	return wire.AppendError(scratch, wire.CodeInternal, err.Error())
}

// binEndpoint maps a request type to its metric slot, so binary
// traffic shows up in /stats (and TStatsResp) beside the HTTP
// endpoints.
func binEndpoint(t wire.Type) int {
	switch t {
	case wire.TDistance:
		return epBinDistance
	case wire.TBatch:
		return epBinBatch
	case wire.TInsert:
		return epBinEdges
	case wire.TDelete:
		return epBinDelete
	case wire.TStats:
		return epBinStats
	case wire.TReplAppend, wire.TReplSnapshot:
		return epBinRepl
	default:
		return epBinPing
	}
}
