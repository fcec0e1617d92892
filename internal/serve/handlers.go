package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the HTTP API as an http.Handler. Routes:
//
//	GET    /                 self-documenting endpoint listing
//	GET    /distance?s=&t=   one exact distance
//	POST   /distance/batch   {"pairs":[[s,t],...]} -> {"distances":[...]}
//	GET    /stats            index + live-serving stats, per-endpoint counters
//	GET    /healthz          liveness probe (process up)
//	GET    /readyz           readiness probe (503 while degraded)
//
// Live servers (NewLive/LoadLive) additionally expose the mutation API:
//
//	POST   /edges            {"edge":[a,b]} or {"edges":[[a,b],...]}
//	DELETE /edges            same body; decremental repair of the labelling
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleHelp)
	// Query and mutation endpoints sit behind the admission gates;
	// monitoring endpoints (/stats, /healthz, /readyz, /) never do — an
	// overloaded server must still be observable and drainable.
	mux.HandleFunc("GET /distance", s.timed(epDistance, s.gated(&s.readGate, s.handleDistance)))
	mux.HandleFunc("POST /distance/batch", s.timed(epBatch, s.gated(&s.readGate, s.handleBatch)))
	mux.HandleFunc("GET /stats", s.timed(epStats, s.handleStats))
	mux.HandleFunc("GET /healthz", s.timed(epHealth, s.handleHealth))
	mux.HandleFunc("GET /readyz", s.timed(epReady, s.handleReady))
	if s.up != nil {
		mux.HandleFunc("POST /edges", s.timed(epEdges, s.gated(&s.writeGate, s.handleInsertEdges)))
		mux.HandleFunc("DELETE /edges", s.timed(epDelete, s.gated(&s.writeGate, s.handleDeleteEdges)))
	}
	return mux
}

// handlerFunc is an http.HandlerFunc that also reports how many pairs it
// answered and whether it failed, for the metric set.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (pairs int64, failed bool)

// timed wraps a handler with latency/QPS accounting for one endpoint.
func (s *Server) timed(ep int, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		pairs, failed := h(w, r)
		s.metrics.observe(ep, pairs, time.Since(start), failed)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHelp(w http.ResponseWriter, r *http.Request) {
	endpoints := map[string]string{
		"GET /distance?s=&t=":  "one exact distance; -1 = disconnected",
		"POST /distance/batch": `{"pairs":[[s,t],...]} -> {"distances":[...]}; max ` + strconv.Itoa(s.cfg.MaxBatch) + " pairs",
		"GET /stats":           "index + live-serving stats, per-endpoint latency/QPS counters",
		"GET /healthz":         "liveness probe (process up)",
		"GET /readyz":          "readiness probe: 503 while the server is degraded (load balancers drain on this, not /healthz)",
	}
	if s.up != nil {
		endpoints["POST /edges"] = `{"edge":[a,b]} or {"edges":[[a,b],...]} -> {"accepted":n,"inserted":m,"epoch":e}`
		endpoints["DELETE /edges"] = `same body as POST -> {"accepted":n,"deleted":m,"epoch":e}; absent edges are acked no-ops`
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"service":   "hlserve: exact distance oracle (highway cover labelling, EDBT 2019)",
		"endpoints": endpoints,
	})
}

// distanceResponse is the JSON shape of GET /distance.
type distanceResponse struct {
	S        int32 `json:"s"`
	T        int32 `json:"t"`
	Distance int32 `json:"distance"`
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) (int64, bool) {
	sv, err1 := strconv.ParseInt(r.URL.Query().Get("s"), 10, 32)
	tv, err2 := strconv.ParseInt(r.URL.Query().Get("t"), 10, 32)
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, `need integer query params "s" and "t"`)
		return 0, true
	}
	d, err := s.Distance(int32(sv), int32(tv))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return 0, true
	}
	writeJSON(w, http.StatusOK, distanceResponse{S: int32(sv), T: int32(tv), Distance: d})
	return 1, false
}

// batchRequest is the JSON shape of POST /distance/batch. Pairs are
// 2-element [s,t] arrays, the compact form batch clients generate
// trivially in any language. They decode as slices (not [2]int32)
// because encoding/json silently pads or truncates fixed-size arrays —
// a [s,t,junk] triple must be a 400, not a guess.
type batchRequest struct {
	Pairs [][]int32 `json:"pairs"`
}

// batchResponse mirrors batchRequest: Distances[i] answers Pairs[i].
type batchResponse struct {
	Count     int     `json:"count"`
	Distances []int32 `json:"distances"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) (int64, bool) {
	var req batchRequest
	// 64 bytes/pair comfortably covers pretty-printed JSON for MaxBatch
	// pairs; the hard pair-count check below is the real limit.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxBatch)*64+1024))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"batch request body exceeds %d bytes", tooLarge.Limit)
			return 0, true
		}
		writeError(w, http.StatusBadRequest, "malformed batch request: %v", err)
		return 0, true
	}
	// Reject trailing garbage after the object — a concatenated second
	// request must fail loudly, not be half-answered. The byte cap can
	// also trip here (a valid object followed by bytes past the limit),
	// and must still surface as 413, not a generic 400.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"batch request body exceeds %d bytes", tooLarge.Limit)
			return 0, true
		}
		writeError(w, http.StatusBadRequest, "malformed batch request: trailing data after JSON object")
		return 0, true
	}
	if len(req.Pairs) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d pairs exceeds limit %d", len(req.Pairs), s.cfg.MaxBatch)
		return 0, true
	}
	pairs := make([][2]int32, len(req.Pairs))
	for i, p := range req.Pairs {
		if len(p) != 2 {
			writeError(w, http.StatusBadRequest, "pair %d: want [s,t], got %d elements", i, len(p))
			return 0, true
		}
		pairs[i] = [2]int32{p[0], p[1]}
	}
	// One searcher answers the whole batch through the snapshot's best
	// execution path (vectorized when the method provides one): the
	// dispatch cost is amortized over len(Pairs) queries, and all answers
	// come from one consistent snapshot even if writers publish
	// mid-request. The request context cancels an abandoned batch — a
	// disconnected client stops burning CPU within ~1k pairs.
	distances, err := s.DistanceBatchContext(r.Context(), pairs, nil)
	if errors.Is(err, errOutOfRange) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return 0, true
	}
	if err != nil {
		// Cancellation: the client is gone (or the server is shutting
		// down), so there is nobody to answer.
		return 0, true
	}
	writeJSON(w, http.StatusOK, batchResponse{Count: len(distances), Distances: distances})
	return int64(len(distances)), false
}

// edgesRequest is the JSON shape of POST and DELETE /edges: either one
// edge or a batch, not both. Edges decode as slices (not [2]int32) for
// the same reason as batchRequest: a [a,b,junk] triple must be a 400,
// not a guess.
type edgesRequest struct {
	Edge  []int32   `json:"edge"`
	Edges [][]int32 `json:"edges"`
}

// decodeEdgesRequest parses and validates an /edges body (both
// methods). On failure it has already written the error response and
// returns ok=false.
func (s *Server) decodeEdgesRequest(w http.ResponseWriter, r *http.Request) ([][2]int32, bool) {
	var req edgesRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxBatch)*64+1024))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"update request body exceeds %d bytes", tooLarge.Limit)
			return nil, false
		}
		writeError(w, http.StatusBadRequest, "malformed update request: %v", err)
		return nil, false
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"update request body exceeds %d bytes", tooLarge.Limit)
			return nil, false
		}
		writeError(w, http.StatusBadRequest, "malformed update request: trailing data after JSON object")
		return nil, false
	}
	if (req.Edge == nil) == (req.Edges == nil) {
		writeError(w, http.StatusBadRequest, `want exactly one of "edge" or "edges"`)
		return nil, false
	}
	pairs := req.Edges
	if req.Edge != nil {
		pairs = [][]int32{req.Edge}
	}
	if len(pairs) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d edges exceeds limit %d", len(pairs), s.cfg.MaxBatch)
		return nil, false
	}
	edges := make([][2]int32, len(pairs))
	for i, e := range pairs {
		if len(e) != 2 {
			writeError(w, http.StatusBadRequest, "edge %d: want [a,b], got %d elements", i, len(e))
			return nil, false
		}
		edges[i] = [2]int32{e[0], e[1]}
	}
	return edges, true
}

// writeMutationError maps the mutation error taxonomy (shared by
// inserts and deletes) onto HTTP statuses.
func writeMutationError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrDegraded):
		// Durability is gone, not the server: reads still work, the
		// recovery probe may re-arm writes, so tell the client when to
		// come back rather than just failing.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrEdgeRange):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		// Freeze or apply failure: the batch was NOT applied.
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleInsertEdges(w http.ResponseWriter, r *http.Request) (int64, bool) {
	edges, ok := s.decodeEdgesRequest(w, r)
	if !ok {
		return 0, true
	}
	res, err := s.InsertEdges(edges)
	if err != nil {
		writeMutationError(w, err)
		return 0, true
	}
	writeJSON(w, http.StatusOK, res)
	return int64(res.Accepted), false
}

func (s *Server) handleDeleteEdges(w http.ResponseWriter, r *http.Request) (int64, bool) {
	edges, ok := s.decodeEdgesRequest(w, r)
	if !ok {
		return 0, true
	}
	res, err := s.DeleteEdges(edges)
	if err != nil {
		writeMutationError(w, err)
		return 0, true
	}
	writeJSON(w, http.StatusOK, res)
	return int64(res.Accepted), false
}

// statsResponse is the JSON shape of GET /stats.
type statsResponse struct {
	// Epoch is the served snapshot epoch at top level — one place for
	// routers, fencing tests and dashboards to read it, on every role
	// (read-only servers report 0; the live section repeats it for
	// live servers).
	Epoch         uint64                   `json:"epoch"`
	Index         indexStats               `json:"index"`
	Live          *LiveStats               `json:"live,omitempty"`
	Replication   *ReplicationStats        `json:"replication,omitempty"`
	Admission     AdmissionStats           `json:"admission"`
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
}

type indexStats struct {
	Method       string  `json:"method,omitempty"`
	NumVertices  int     `json:"n"`
	NumEdges     int64   `json:"m"`
	NumLandmarks int     `json:"landmarks"`
	NumEntries   int64   `json:"entries"`
	AvgLabelSize float64 `json:"avg_label_size"`
	MaxLabelSize int     `json:"max_label_size"`
	SizeBytes    int64   `json:"size_bytes,omitempty"`
	Bytes8       int64   `json:"bytes_compressed"`
}

// statsDoc builds the stats document served by GET /stats and, via the
// binary listener, by Stats request frames — one shape, two protocols.
func (s *Server) statsDoc() statsResponse {
	sn := s.snap.Load()
	st := sn.ix.Stats()
	return statsResponse{
		Epoch:       sn.epoch,
		Live:        s.LiveStats(),
		Replication: s.replicationStats(),
		Admission:   s.AdmissionStats(),
		Index: indexStats{
			Method:       st.Method,
			NumVertices:  st.NumVertices,
			NumEdges:     st.NumEdges,
			NumLandmarks: st.NumLandmarks,
			NumEntries:   st.NumEntries,
			AvgLabelSize: st.AvgLabelSize,
			MaxLabelSize: st.MaxLabelSize,
			SizeBytes:    st.SizeBytes,
			Bytes8:       st.Bytes8,
		},
		UptimeSeconds: time.Since(s.started).Seconds(),
		Endpoints:     s.metrics.snapshot(time.Since(s.started)),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) (int64, bool) {
	writeJSON(w, http.StatusOK, s.statsDoc())
	return 0, false
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) (int64, bool) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	return 0, false
}

// handleReady is the readiness (as opposed to liveness) probe: a load
// balancer should stop routing *writes* here while the server is
// degraded, without the process being restarted — /healthz stays 200,
// /readyz flips to 503. It also guards the window before the first
// snapshot is published, for symmetry with servers that may one day
// load asynchronously.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) (int64, bool) {
	if s.snap.Load() == nil {
		writeError(w, http.StatusServiceUnavailable, "loading initial snapshot")
		return 0, true
	}
	if s.Degraded() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "degraded",
			"detail": "WAL unwritable: writes rejected, reads served from the last snapshot",
		})
		return 0, true
	}
	if rs := s.replicationStats(); rs != nil {
		if !rs.Bootstrapped {
			// A follower that has not installed any state yet answers
			// queries over an empty vertex range; routers must not send
			// reads here until the first snapshot lands.
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status":            "bootstrapping",
				"detail":            "awaiting replication snapshot",
				"replication_epoch": rs.Epoch,
			})
			return 0, true
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":                  "ready",
			"replication_epoch":       rs.Epoch,
			"replication_lag_batches": rs.LagBatches,
			"replication_lag_ms":      rs.LagMs,
		})
		return 0, false
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	return 0, false
}
