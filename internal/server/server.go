// Package server implements a content-based dissemination service over
// the filtering engine: the selective information dissemination scenario
// the paper's introduction motivates, as an HTTP API. Clients register
// XPath subscriptions, publishers POST XML documents, and the service
// fans each document out to the matching subscriptions' delivery queues.
//
// The API (all JSON except the published XML body):
//
//	POST   /subscriptions        {"expression": "/nitf//p"}  → {"id": 7}
//	GET    /subscriptions                                    → live (id, expression) listing
//	DELETE /subscriptions/{id}                               → 204
//	GET    /subscriptions/{id}                               → subscription info
//	POST   /publish              <xml body>                  → {"matches": n, "ids": [...]}
//	POST   /publish?trace=1      <xml body>                  → the same plus a per-expression match trace
//	POST   /publish/batch        {"documents": [<xml>, ...]} → {"results": [...]}
//	GET    /deliveries/{id}?max=k                            → drained documents for one subscription
//	GET    /stats                                            → engine (and store) statistics
//	GET    /metrics                                          → Prometheus text exposition of the pipeline metrics
//	GET    /debug/vars           (always on)                 → JSON snapshot of the publish-path counters
//	GET    /debug/flight         (always on)                 → span trees of the last K anomalous publishes
//	GET    /healthz                                          → liveness probe (always 200 while the process serves)
//	GET    /readyz                                           → readiness probe (503 once draining began)
//	POST   /admin/snapshot                                   → compact the durable store now
//	GET    /admin/wal?run=&epoch=&from=                      → WAL-shipping poll for hot standbys (persistence only)
//
// POST /subscriptions also accepts an explicit {"id": n} to register under
// an externally assigned identifier — cluster coordinators own a global id
// space and place each id on its owning shard (internal/cluster).
//
// With Config.StateDir set (server.Open), the subscription set is durable:
// adds and removes are written to a checksummed write-ahead log before
// they are acknowledged, and a restart recovers every subscription under
// its original id (internal/store has the file formats and crash-recovery
// guarantees). Delivery queues are intentionally volatile.
//
// Batch publishes run through the engine's parallel batch runner
// (Engine.MatchEmit), overlapping parsing and matching across the batch
// while preserving input order in the response. The request body is read
// once under MaxRequestBytes (over it is 413, whatever the body holds),
// and a body of the shape json.Marshal gives it is un-escaped in one pass
// straight into one []byte per document; any other body is decoded by
// encoding/json, whose results and errors are the definition
// (batchdecode.go).
//
// Deliveries are held in bounded per-subscription queues; a slow consumer
// loses oldest-first (counted in the subscription info) rather than
// blocking the publish path. A publish logs its document once, with the
// bitset of the subscriptions it matched, in a server-wide log of the last
// 2 × QueueLimit documents; a document is copied into a subscription's
// queue only when it leaves that log still pending (delivery.go).
//
// Observability is always on: GET /metrics serves the engine's per-stage
// latency histograms and counters in the Prometheus text exposition
// format, /debug/vars serves a JSON snapshot of the publish-path
// counters, and POST /publish?trace=1 returns a per-expression match
// explanation alongside the normal response. With Config.Debug set, the
// server additionally exposes net/http/pprof under /debug/pprof/ so the
// matching pipeline can be profiled in place.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predfilter"
	"predfilter/internal/metrics"
	"predfilter/internal/trace"
	"predfilter/internal/xpath"
)

// Config configures a Server.
type Config struct {
	// Engine configures the underlying filter engine.
	Engine predfilter.Config
	// QueueLimit bounds each subscription's delivery queue (default 128).
	QueueLimit int
	// MaxDocumentBytes bounds published documents (default 1 MiB).
	MaxDocumentBytes int64
	// Workers sizes the batch-publish matching pipeline (default
	// GOMAXPROCS).
	Workers int
	// Debug exposes /debug/pprof/. The observability endpoints (/metrics,
	// /debug/vars) are always on and not affected by this switch.
	Debug bool

	// MaxRequestBytes bounds the JSON request bodies of POST
	// /subscriptions and POST /publish/batch (default 64 MiB; oversized
	// requests get 413, a batch body even when its JSON object ends
	// before the bound). It is the one knob for every JSON endpoint —
	// published XML documents are bounded separately by MaxDocumentBytes
	// and the engine's Limits.
	MaxRequestBytes int64
	// MaxInflight caps concurrently matching publish requests (0 =
	// unlimited). Requests beyond the cap wait in a bounded queue of
	// MaxQueued; once that is full too, the server sheds with 429 +
	// Retry-After instead of queueing unboundedly.
	MaxInflight int
	// MaxQueued bounds the publish wait queue used when MaxInflight is
	// saturated (default 4 × MaxInflight when MaxInflight is set).
	MaxQueued int
	// RequestTimeout bounds each publish request's matching work: the
	// request context gets this deadline, which the engine's match budget
	// observes per document (0 = no per-request deadline beyond the
	// engine's own Limits).
	RequestTimeout time.Duration

	// StateDir, when non-empty, makes the subscription set durable: every
	// add/remove is written to a write-ahead log in this directory before
	// it is acknowledged, and restarts recover the subscriptions under
	// their original ids (use Open, which can report recovery errors).
	// Delivery queues are in-memory only and do not survive restarts.
	StateDir string
	// NoSync disables fsync on the persistent store (tests/benchmarks).
	NoSync bool
}

// Server is the dissemination service. Create with New or, when
// persistence is configured, Open; it implements http.Handler.
type Server struct {
	eng *predfilter.Engine
	// pe is the persistent engine when Config.StateDir is set (eng is then
	// pe's embedded in-memory engine); nil for a purely in-memory server.
	pe  *predfilter.PersistentEngine
	mux *http.ServeMux
	cfg Config

	// Publish-path counters (atomic: the publish paths run outside mu).
	docsPublished  atomic.Int64 // documents accepted by /publish and /publish/batch
	docsRejected   atomic.Int64 // documents that failed to parse
	matchesTotal   atomic.Int64 // sum of per-document match counts
	publishNanos   atomic.Int64 // wall time spent matching (per-request, so batch time counts once)
	batchDocsTotal atomic.Int64 // documents that arrived via /publish/batch

	// Admission control and degradation state. sem is the in-flight
	// publish semaphore (nil = unlimited); queued counts requests in the
	// bounded wait queue.
	sem      chan struct{}
	queued   atomic.Int64
	shed     atomic.Int64 // requests rejected with 429 (queue full) or dropped waiting
	timedOut atomic.Int64 // documents that hit the per-request/match deadline
	limited  atomic.Int64 // documents stopped by any governance limit
	panics   atomic.Int64 // handler panics recovered
	draining atomic.Bool  // Close/BeginDrain in progress: publishes get 503

	mu  sync.Mutex
	reg registry

	// runID identifies this server instance to WAL-shipping followers: a
	// follower whose cursor carries a different runID resyncs from a full
	// snapshot, so a primary restart (which resets the store's in-memory
	// epoch counter) can never be mistaken for cursor continuity.
	runID string

	// flight retains the span trees of the last trace.DefaultFlightRecords
	// anomalous publishes — slow (past the engine's SlowDocThreshold),
	// limit-tripped, timed-out, panicked, or explicitly traced. Exposed
	// at GET /debug/flight.
	flight *trace.FlightRecorder
}

// New returns a ready-to-serve Server. It panics if Config.StateDir is
// set and opening the store fails; use Open to handle recovery errors.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open returns a ready-to-serve Server. With Config.StateDir set it opens
// the durable subscription store, recovers the persisted subscriptions
// (truncating a torn log tail if the last run crashed mid-write), and
// re-registers them under their original ids.
func Open(cfg Config) (*Server, error) {
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 128
	}
	if cfg.MaxDocumentBytes <= 0 {
		cfg.MaxDocumentBytes = 1 << 20
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 64 << 20
	}
	if cfg.MaxInflight > 0 && cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 4 * cfg.MaxInflight
	}
	s := &Server{
		mux:    http.NewServeMux(),
		cfg:    cfg,
		runID:  fmt.Sprintf("%016x", rand.Uint64()),
		flight: trace.NewFlightRecorder(trace.DefaultFlightRecords),
	}
	s.reg.init(cfg.QueueLimit)
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.StateDir != "" {
		pe, err := predfilter.Open(cfg.StateDir, predfilter.PersistentConfig{
			Engine: cfg.Engine,
			NoSync: cfg.NoSync,
		})
		if err != nil {
			return nil, err
		}
		s.pe = pe
		s.eng = pe.Engine
		for _, sub := range pe.Subscriptions() {
			s.reg.put(sub.ID, sub.Expression)
		}
	} else {
		s.eng = predfilter.New(cfg.Engine)
	}
	s.mux.HandleFunc("POST /subscriptions", s.handleSubscribe)
	s.mux.HandleFunc("GET /subscriptions", s.handleListSubscriptions)
	s.mux.HandleFunc("POST /admin/snapshot", s.handleAdminSnapshot)
	s.mux.HandleFunc("GET /subscriptions/{id}", s.handleGetSubscription)
	s.mux.HandleFunc("DELETE /subscriptions/{id}", s.handleUnsubscribe)
	s.mux.HandleFunc("POST /publish", s.handlePublish)
	s.mux.HandleFunc("POST /publish/batch", s.handlePublishBatch)
	s.mux.HandleFunc("GET /deliveries/{id}", s.handleDeliveries)
	s.mux.HandleFunc("GET /stats", s.handleJSON(metrics.OnStats))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/vars", s.handleJSON(metrics.OnVars))
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /admin/wal", s.handleWALShip)
	if cfg.Debug {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// ServeHTTP implements http.Handler. Panics in any handler are recovered
// here — counted, answered with 500, and isolated to the request that
// caused them — so one pathological document cannot take the service
// down. http.ErrAbortHandler (the stdlib's deliberate connection-abort
// panic) is re-raised untouched.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
			panic(p)
		}
		s.panics.Add(1)
		s.eng.Metrics().ObservePanic()
		rec := &trace.Record{
			Time:    time.Now(),
			Op:      r.Method + " " + r.URL.Path,
			Reasons: []string{"panicked"},
			Error:   fmt.Sprint(p),
		}
		if id, _, ok := trace.ParseHeader(r.Header.Get(trace.HeaderName)); ok {
			rec.TraceID = id.String()
		}
		s.flight.Add(rec)
		writeError(w, http.StatusInternalServerError, "internal error (recovered): %v", p)
	}()
	s.mux.ServeHTTP(w, r)
}

// FlightRecorder returns the server's flight recorder; xfserve dumps it
// on SIGQUIT.
func (s *Server) FlightRecorder() *trace.FlightRecorder { return s.flight }

// BeginDrain puts the server into draining mode: publish requests are
// refused with 503 + Retry-After while requests already in flight run to
// completion. Call it before http.Server.Shutdown so the listener drains
// quickly instead of accepting new matching work.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close shuts the server's engine down. New publish requests are refused
// with 503 from this point (draining). With persistence enabled it takes
// a final snapshot (so the next start recovers from the compacted
// snapshot instead of replaying the whole log) and closes the store; for
// an in-memory server there is nothing else to do. Call it after the HTTP
// listener has drained (http.Server.Shutdown).
func (s *Server) Close() error {
	s.BeginDrain()
	if s.pe == nil {
		return nil
	}
	return s.pe.Close()
}

// admit gates one publish request through the concurrency cap. It returns
// a release function and true when the request may proceed; otherwise it
// has already written the response: 503 + Retry-After while draining, 429
// + Retry-After when the in-flight cap and the wait queue are both full.
// Waiting requests leave the queue when their client disconnects.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (func(), bool) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	if s.sem == nil {
		return func() {}, true
	}
	select {
	case s.sem <- struct{}{}:
		return s.release, true
	default:
	}
	// In-flight cap saturated: join the bounded wait queue or shed.
	if s.queued.Add(1) > int64(s.cfg.MaxQueued) {
		s.queued.Add(-1)
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"concurrency limit reached (%d in flight, %d queued); retry later",
			s.cfg.MaxInflight, s.cfg.MaxQueued)
		return nil, false
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		if s.draining.Load() {
			<-s.sem
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return nil, false
		}
		return s.release, true
	case <-r.Context().Done():
		s.shed.Add(1)
		writeError(w, http.StatusServiceUnavailable, "client gave up waiting for a slot")
		return nil, false
	}
}

func (s *Server) release() { <-s.sem }

// requestContext derives the matching context for one publish request:
// the client's context plus the configured per-request deadline. The
// engine's match budget observes both.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// publishError classifies one failed document: governance stops get their
// own statuses and counters (503 for deadline/cancellation, 413 for an
// oversized document, 422 for the structural and step limits — the
// document itself is unprocessable, and the typed detail says which bound
// it broke); anything else is a plain invalid document.
func (s *Server) publishError(w http.ResponseWriter, err error) {
	var le *predfilter.LimitError
	if errors.As(err, &le) {
		s.limited.Add(1)
		switch le.Kind {
		case predfilter.LimitDeadline, predfilter.LimitCanceled:
			s.timedOut.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "match stopped: %v", err)
		case predfilter.LimitDocBytes:
			writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		default:
			writeError(w, http.StatusUnprocessableEntity, "document exceeds resource limits: %v", err)
		}
		return
	}
	writeError(w, http.StatusUnprocessableEntity, "invalid document: %v", err)
}

// canonExpr is the canonical form of an expression — the identity the
// WAL persists and recovery and WAL shipping reproduce. The live
// subscription table stores it so the set a client observes keeps its
// shape across a restart or a failover to a shipped standby.
func canonExpr(xpe string) (string, error) {
	p, err := xpath.Parse(xpe)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// addExpr registers an expression through the persistent engine when
// persistence is on (logging it durably before acknowledging), or the
// plain engine otherwise. Callers hold s.mu.
func (s *Server) addExpr(xpe string) (predfilter.SID, error) {
	if s.pe != nil {
		return s.pe.Add(xpe)
	}
	return s.eng.Add(xpe)
}

// removeExpr is the removal counterpart of addExpr. Callers hold s.mu.
func (s *Server) removeExpr(sid predfilter.SID) error {
	if s.pe != nil {
		return s.pe.Remove(sid)
	}
	return s.eng.Remove(sid)
}

// addExprWithSID registers an expression under a caller-assigned id
// (cluster coordinators assign ids globally; WAL-shipping followers
// replay their primary's ids). Callers hold s.mu.
func (s *Server) addExprWithSID(xpe string, sid predfilter.SID) error {
	if s.pe != nil {
		return s.pe.AddWithSID(xpe, sid)
	}
	return s.eng.AddWithSID(xpe, sid)
}

// ApplyAdd registers expr under a fixed, externally assigned id. It is
// idempotent when the id is already live with the same expression (a
// WAL-shipping follower may re-apply an operation after a partial sync)
// and fails when the id is live with a different one.
func (s *Server) ApplyAdd(sid predfilter.SID, expr string) error {
	canon, err := canonExpr(expr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if live := s.reg.get(int(sid)); live != "" {
		if live == canon {
			return nil
		}
		return fmt.Errorf("server: sid %d is live with a different expression", sid)
	}
	if err := s.addExprWithSID(expr, sid); err != nil {
		return err
	}
	s.reg.put(sid, canon)
	return nil
}

// ApplyRemove unregisters an externally assigned id. Removing an id that
// is not live is a no-op, for the same replay-idempotency reason.
func (s *Server) ApplyRemove(sid predfilter.SID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reg.get(int(sid)) == "" {
		return nil
	}
	if err := s.removeExpr(sid); err != nil {
		return err
	}
	s.reg.remove(sid)
	return nil
}

// SubscriptionIDs returns a snapshot of the live id→expression set (the
// reconciliation input of a follower's snapshot catch-up).
func (s *Server) SubscriptionIDs() map[predfilter.SID]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[predfilter.SID]string, s.reg.count)
	for sid, expr := range s.reg.expr {
		if expr != "" {
			out[predfilter.SID(sid)] = expr
		}
	}
	return out
}

// Preload registers a batch of subscriptions before serving (for example
// from a saved subscription file); it returns the assigned ids in order.
func (s *Server) Preload(xpes []string) ([]predfilter.SID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]predfilter.SID, 0, len(xpes))
	for _, x := range xpes {
		canon, err := canonExpr(x)
		if err != nil {
			return ids, fmt.Errorf("server: preload %q: %w", x, err)
		}
		sid, err := s.addExpr(x)
		if err != nil {
			return ids, fmt.Errorf("server: preload %q: %w", x, err)
		}
		s.reg.put(sid, canon)
		ids = append(ids, sid)
	}
	return ids, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Expression string `json:"expression"`
		// ID, when present, pins the subscription to an externally
		// assigned identifier (cluster coordinators own a global id space
		// and place each id on its owning shard). Re-registering a live id
		// with the same expression is a no-op — the coordinator may retry
		// after losing a response.
		ID *int `json:"id"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxRequestBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if strings.TrimSpace(req.Expression) == "" {
		writeError(w, http.StatusBadRequest, "expression is required")
		return
	}
	if req.ID != nil {
		if *req.ID < 0 || *req.ID > math.MaxInt32 {
			writeError(w, http.StatusBadRequest, "subscription id %d out of range [0, %d]", *req.ID, math.MaxInt32)
			return
		}
		sid := predfilter.SID(*req.ID)
		if err := s.ApplyAdd(sid, req.Expression); err != nil {
			code := http.StatusUnprocessableEntity
			if strings.Contains(err.Error(), "different expression") {
				code = http.StatusConflict
			}
			writeError(w, code, "%v", err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"id": sid})
		return
	}
	canon, err := canonExpr(req.Expression)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sid, err := s.addExpr(req.Expression)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.reg.put(sid, canon)
	writeJSON(w, http.StatusCreated, map[string]any{"id": sid})
}

// SubscriptionEntry is one row of GET /subscriptions: a live id and its
// canonical expression.
type SubscriptionEntry struct {
	ID         predfilter.SID `json:"id"`
	Expression string         `json:"expression"`
}

// handleListSubscriptions lists the live subscription set in ascending
// id order. Cluster coordinators use it to rebuild their ownership
// records after a restart (the shards, not the coordinator, are the
// durable home of the subscription set).
func (s *Server) handleListSubscriptions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]SubscriptionEntry, 0, s.reg.count)
	for sid, expr := range s.reg.expr {
		if expr != "" {
			entries = append(entries, SubscriptionEntry{ID: predfilter.SID(sid), Expression: expr})
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(entries), "subscriptions": entries})
}

// sidFromPath returns the live id the path names; callers hold s.mu.
func (s *Server) sidFromPath(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid subscription id %q", r.PathValue("id"))
		return 0, false
	}
	if s.reg.get(id) == "" {
		writeError(w, http.StatusNotFound, "unknown subscription %d", id)
		return 0, false
	}
	return id, true
}

func (s *Server) handleGetSubscription(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.sidFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.reg.info(id))
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.sidFromPath(w, r)
	if !ok {
		return
	}
	if err := s.removeExpr(predfilter.SID(id)); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.reg.remove(predfilter.SID(id))
	w.WriteHeader(http.StatusNoContent)
}

// readDocument reads a publish body: into one slice of the declared length
// when the request declares one within the bound, else (a chunked body, or
// one declaring too much) growing up to one byte past the bound, which the
// caller turns into 413. A body shorter than it declared is an error.
func (s *Server) readDocument(r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= s.cfg.MaxDocumentBytes {
		doc := make([]byte, n)
		_, err := io.ReadFull(r.Body, doc)
		return doc, err
	}
	return io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxDocumentBytes+1))
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	doc, err := s.readDocument(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(doc)) > s.cfg.MaxDocumentBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "document exceeds %d bytes", s.cfg.MaxDocumentBytes)
		return
	}
	// Match without the registry lock: the engine is safe for concurrent
	// matching, and subscriptions added mid-publish simply miss this
	// document. With ?trace=1 the (slower) explaining match runs instead
	// and the per-expression trace rides along in the response.
	traced := r.URL.Query().Get("trace") == "1"
	// Distributed trace: continue one propagated by the coordinator, or
	// start one here for an explicitly traced publish. dt stays nil (and
	// costs nothing) on the untraced hot path.
	var dt *trace.Trace
	if id, parent, ok := trace.ParseHeader(r.Header.Get(trace.HeaderName)); ok {
		dt = trace.Join(id, parent)
	} else if traced {
		dt = trace.New()
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	ctx = trace.NewContext(ctx, dt)
	span := dt.StartSpan("shard.match", 0)
	t0 := time.Now()
	commit := func(res *PublishResult, err error) {
		elapsed := time.Since(t0)
		span.SetError(err)
		span.End()
		s.publishNanos.Add(elapsed.Nanoseconds())
		if dt.Enabled() {
			w.Header().Set(trace.ResponseHeaderName, dt.ID().String())
		}
		if err != nil {
			s.docsRejected.Add(1)
			s.recordPublishFlight(dt, elapsed, len(doc), 0, err)
			s.publishError(w, err)
			return
		}
		s.docsPublished.Add(1)
		if dt.Enabled() {
			res.TraceID = dt.ID().String()
		}
		if h := testHookCommit; h != nil {
			h()
		}
		dspan := dt.StartSpan("shard.deliver", 0)
		bp := publishBodies.Get().(*[]byte)
		body, delivered := appendPublishResult((*bp)[:0], s, &document{doc}, res)
		dspan.End()
		s.recordPublishFlight(dt, elapsed, len(doc), delivered, nil)
		writePublishBody(w, bp, body)
	}
	if traced {
		sids, tr, err := s.eng.MatchTracedContext(ctx, doc)
		s.matchesTotal.Add(int64(len(sids)))
		commit(&PublishResult{SIDs: sids, Trace: tr}, err)
		return
	}
	s.eng.MatchEmit(ctx, [][]byte{doc}, 1, func(_ int, em *predfilter.Emitted, err error) {
		if err == nil {
			s.matchesTotal.Add(int64(em.N))
		}
		commit(&PublishResult{Emit: em}, err)
	})
}

// testHookCommit, when non-nil, runs after a publish's match and before its
// commit. Tests use it to change subscriptions in between; production code
// never sets it.
var testHookCommit func()

// recordPublishFlight retains one publish in the flight recorder when it
// is anomalous — limit-tripped/timed-out/failed, or slow past the
// engine's SlowDocThreshold — or when it was explicitly traced (so a
// traced publish can always be found at /debug/flight afterwards).
func (s *Server) recordPublishFlight(dt *trace.Trace, elapsed time.Duration, docBytes, matches int, err error) {
	var reasons []string
	if err != nil {
		var le *predfilter.LimitError
		if errors.As(err, &le) {
			switch le.Kind {
			case predfilter.LimitDeadline, predfilter.LimitCanceled:
				reasons = append(reasons, "timed_out")
			default:
				reasons = append(reasons, "limit_tripped")
			}
		} else {
			reasons = append(reasons, "failed")
		}
	}
	if slow := s.cfg.Engine.SlowDocThreshold; slow > 0 && elapsed >= slow {
		reasons = append(reasons, "slow")
	}
	if dt.Enabled() {
		reasons = append(reasons, "traced")
	}
	if len(reasons) == 0 {
		return
	}
	rec := &trace.Record{
		Time:          time.Now(),
		Op:            "publish",
		Reasons:       reasons,
		DurationNanos: elapsed.Nanoseconds(),
		DocBytes:      docBytes,
		Matches:       matches,
		Spans:         dt.Snapshot(),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if dt.Enabled() {
		rec.TraceID = dt.ID().String()
	}
	s.flight.Add(rec)
}

// handleFlight serves the flight recorder: the last K anomalous
// publishes with their span trees, oldest first.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"recorded": s.flight.Recorded(),
		"capacity": s.flight.Cap(),
		"records":  s.flight.Snapshot(),
	})
}

// handlePublishBatch publishes a batch of documents through the parallel
// batch runner, delivering and encoding each result as soon as it and
// every result before it are matched, while the workers match the
// documents behind it.
// Per-document failures are reported per result; the batch itself
// succeeds.
func (s *Server) handlePublishBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	raw, err := readBody(w, r, s.cfg.MaxRequestBytes)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxRequestBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	docs, err := decodeBatch(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(docs) == 0 {
		writeError(w, http.StatusBadRequest, "documents is required")
		return
	}
	for i, d := range docs {
		if int64(len(d)) > s.cfg.MaxDocumentBytes {
			writeError(w, http.StatusRequestEntityTooLarge, "document %d exceeds %d bytes", i, s.cfg.MaxDocumentBytes)
			return
		}
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	bp := publishBodies.Get().(*[]byte)
	body := append((*bp)[:0], `{"results":[`...)
	published := 0
	t0 := time.Now()
	// Every document gets a result, one a cancelled batch never started
	// included, so a shed batch is never mistaken for one that matched
	// nothing.
	s.eng.MatchEmit(ctx, docs, s.cfg.Workers, func(i int, em *predfilter.Emitted, err error) {
		if err != nil {
			s.docsRejected.Add(1)
			var le *predfilter.LimitError
			if errors.As(err, &le) {
				s.limited.Add(1)
				if le.Kind == predfilter.LimitDeadline || le.Kind == predfilter.LimitCanceled {
					s.timedOut.Add(1)
				}
			}
		} else {
			s.docsPublished.Add(1)
			s.matchesTotal.Add(int64(em.N))
			published++
		}
		if h := testHookCommit; h != nil {
			h()
		}
		body, _ = appendPublishResult(body, s, &document{docs[i]}, &PublishResult{Emit: em, Item: true, Err: err})
		body = append(body, ',')
	})
	s.publishNanos.Add(time.Since(t0).Nanoseconds())
	s.batchDocsTotal.Add(int64(len(docs)))
	body = append(body[:len(body)-1], `],"published":`...)
	body = strconv.AppendInt(body, int64(published), 10)
	writePublishBody(w, bp, append(body, '}'))
}

// handleAdminSnapshot compacts the durable store's log into a fresh
// snapshot on demand (e.g. before a planned restart, to make the next
// recovery a pure snapshot load).
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.pe == nil {
		writeError(w, http.StatusConflict, "persistence is not enabled (no -state directory)")
		return
	}
	if err := s.pe.Snapshot(); err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"store": metrics.JSON(Rows, s.readScrape(metrics.OnStats), metrics.OnStats)["store"]})
}

// handleJSON serves /stats or /debug/vars: the engine's and the server's
// keys for that surface, rendered from one scrape.
func (s *Server) handleJSON(on metrics.Surface) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc := s.readScrape(on)
		out := metrics.JSON(metrics.EngineRows, &sc.eng, on)
		maps.Copy(out, metrics.JSON(Rows, sc, on))
		writeJSON(w, http.StatusOK, out)
	}
}

// handleMetrics serves the engine's and the server's families in the
// Prometheus text exposition format (version 0.0.4), from one scrape.
// Always on: recording follows the engine's zero-allocation contract, so
// there is nothing to toggle.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sc := s.readScrape(0)
	if metrics.WriteText(w, metrics.EngineRows, &sc.eng) == nil {
		_ = metrics.WriteText(w, Rows, sc)
	}
}

func (s *Server) handleDeliveries(w http.ResponseWriter, r *http.Request) {
	max := 10
	if q := r.URL.Query().Get("max"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "invalid max %q", q)
			return
		}
		max = v
	}
	s.mu.Lock()
	id, ok := s.sidFromPath(w, r)
	if !ok {
		s.mu.Unlock()
		return
	}
	docs := s.reg.pop(id, max)
	remaining := s.reg.pending(id)
	s.mu.Unlock()

	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = string(d.body)
	}
	writeJSON(w, http.StatusOK, map[string]any{"documents": out, "remaining": remaining})
}

// handleHealthz is the liveness probe: the process is up and the handler
// chain works. It deliberately says nothing about readiness — a draining
// server is still alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is the drain-aware readiness probe: 200 while the server
// accepts publishes, 503 once draining began (Close/BeginDrain), so load
// balancers and cluster coordinators stop routing before shutdown
// completes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// WALShipOp is one shipped subscription operation on the /admin/wal wire.
type WALShipOp struct {
	Op         string         `json:"op"` // "add" or "remove"
	ID         predfilter.SID `json:"id"`
	Expression string         `json:"expression,omitempty"`
}

// WALShipEntry is one live subscription in a /admin/wal snapshot response.
type WALShipEntry struct {
	ID         predfilter.SID `json:"id"`
	Expression string         `json:"expression"`
}

// WALShipResponse is the /admin/wal response body. In tail mode Ops holds
// the operations since the follower's cursor; in snapshot mode (Snapshot
// set) Entries holds the full live set the follower must reconcile to
// before tailing again. Run/Epoch/Next form the next cursor either way.
type WALShipResponse struct {
	Run      string         `json:"run"`
	Epoch    int64          `json:"epoch"`
	Next     int64          `json:"next"`
	Snapshot bool           `json:"snapshot,omitempty"`
	NextSID  uint32         `json:"next_sid,omitempty"`
	Entries  []WALShipEntry `json:"entries,omitempty"`
	Ops      []WALShipOp    `json:"ops,omitempty"`
}

// handleWALShip serves the WAL-shipping protocol behind hot standbys: a
// follower polls with its cursor (?run=&epoch=&from=) and receives the
// operations logged since, reading only the log tail. A cursor from
// another server run, an epoch compacted away, or an offset off a record
// boundary gets a full snapshot plus a fresh cursor instead — the
// catch-up path, which is also how a brand-new follower (no cursor)
// bootstraps.
func (s *Server) handleWALShip(w http.ResponseWriter, r *http.Request) {
	if s.pe == nil {
		writeError(w, http.StatusConflict, "persistence is not enabled (no -state directory); nothing to ship")
		return
	}
	q := r.URL.Query()
	run := q.Get("run")
	epoch, err1 := strconv.ParseInt(q.Get("epoch"), 10, 64)
	from, err2 := strconv.ParseInt(q.Get("from"), 10, 64)
	if run == s.runID && err1 == nil && err2 == nil {
		ops, next, err := s.pe.ShipRead(epoch, from)
		switch {
		case err == nil:
			resp := WALShipResponse{Run: s.runID, Epoch: epoch, Next: next, Ops: make([]WALShipOp, len(ops))}
			for i, op := range ops {
				if op.Remove {
					resp.Ops[i] = WALShipOp{Op: "remove", ID: op.ID}
				} else {
					resp.Ops[i] = WALShipOp{Op: "add", ID: op.ID, Expression: op.Expression}
				}
			}
			writeJSON(w, http.StatusOK, resp)
			return
		case errors.Is(err, predfilter.ErrStaleCursor):
			// Fall through to the snapshot path.
		default:
			writeError(w, http.StatusInternalServerError, "wal read: %v", err)
			return
		}
	}
	subs, nextSID, ep, off := s.pe.ShipSnapshot()
	resp := WALShipResponse{
		Run: s.runID, Epoch: ep, Next: off,
		Snapshot: true, NextSID: nextSID,
		Entries: make([]WALShipEntry, len(subs)),
	}
	for i, sub := range subs {
		resp.Entries[i] = WALShipEntry{ID: sub.ID, Expression: sub.Expression}
	}
	writeJSON(w, http.StatusOK, resp)
}
