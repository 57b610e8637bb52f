package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"

	"predfilter"
	"predfilter/internal/metrics"
	"predfilter/internal/server"
	"predfilter/internal/store"
	"predfilter/internal/trace"
)

// The coordinator's HTTP surface mirrors one shard's API — clients point
// at a cluster the way they point at a single server:
//
//	POST   /subscriptions        {"expression": ...}  → 201 {"id": n}
//	GET    /subscriptions/{id}                        → proxied to the owning shard
//	DELETE /subscriptions/{id}                        → 204
//	POST   /publish              <xml document>       → 200 {"matches", "ids", "degraded"?, "skipped"?, "trace_id"?}
//	GET    /deliveries/{id}?max=k                     → proxied to the owning shard
//	GET    /stats                                     → cluster + per-shard counters + shard snapshots
//	GET    /metrics                                   → Prometheus text: coordinator families plus every
//	                                                    shard's families rolled up (shard="name" and
//	                                                    shard="all" aggregate series)
//	GET    /debug/flight                              → last K anomalous publishes with span trees
//	GET    /healthz                                   → 200 always
//	GET    /readyz                                    → 200, or 503 after Close
//
// A publish carrying an X-Predfilter-Trace header (or ?trace=1) is
// traced end to end: the response echoes the trace ID in both the JSON
// body and the X-Predfilter-Trace-Id header.

func (c *Coordinator) initMux() {
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /subscriptions", c.handleSubscribe)
	c.mux.HandleFunc("GET /subscriptions/{id}", c.proxyToOwner)
	c.mux.HandleFunc("DELETE /subscriptions/{id}", c.handleUnsubscribe)
	c.mux.HandleFunc("POST /publish", c.handlePublish)
	c.mux.HandleFunc("GET /deliveries/{id}", c.proxyToOwner)
	c.mux.HandleFunc("GET /stats", c.handleStats)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /debug/flight", c.handleFlight)
	c.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		cwriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	c.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if c.draining.Load() {
			w.Header().Set("Retry-After", "1")
			cwriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		cwriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

func cwriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func cwriteError(w http.ResponseWriter, status int, format string, args ...any) {
	cwriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// relayError maps a failed shard call onto the coordinator's own response:
// a deliberate shard answer keeps its status, a network failure becomes a
// 502.
func relayError(w http.ResponseWriter, err error) {
	var se *shardError
	if errors.As(err, &se) {
		cwriteError(w, se.Status(), "%s", se.msg)
		return
	}
	cwriteError(w, http.StatusBadGateway, "%v", err)
}

func (c *Coordinator) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		cwriteError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	var req struct {
		Expression string `json:"expression"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		cwriteError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Expression == "" {
		cwriteError(w, http.StatusBadRequest, "missing expression")
		return
	}
	sid, err := c.Subscribe(r.Context(), req.Expression)
	if err != nil {
		var se *shardError
		if errors.As(err, &se) {
			relayError(w, se)
			return
		}
		cwriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	cwriteJSON(w, http.StatusCreated, map[string]any{"id": sid})
}

func (c *Coordinator) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	sid, ok := sidFromPath(w, r)
	if !ok {
		return
	}
	if err := c.Unsubscribe(r.Context(), sid); err != nil {
		var se *shardError
		if errors.As(err, &se) {
			relayError(w, se)
			return
		}
		cwriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// proxyToOwner relays a per-subscription GET (subscription info,
// deliveries) to the shard holding the subscription. Delivery queues live
// on the shards; the coordinator only knows where.
func (c *Coordinator) proxyToOwner(w http.ResponseWriter, r *http.Request) {
	sid, ok := sidFromPath(w, r)
	if !ok {
		return
	}
	owner, ok := c.OwnerOf(sid)
	if !ok {
		cwriteError(w, http.StatusNotFound, "no subscription %d", sid)
		return
	}
	c.mu.Lock()
	sh := c.shards[owner]
	c.mu.Unlock()
	if sh == nil {
		cwriteError(w, http.StatusNotFound, "no subscription %d", sid)
		return
	}
	url := sh.currentAddr() + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		cwriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if v := r.Header.Get(trace.HeaderName); v != "" {
		req.Header.Set(trace.HeaderName, v)
	}
	resp, err := c.api.hc.Do(req)
	if err != nil {
		cwriteError(w, http.StatusBadGateway, "shard %s: %v", owner, err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, 64<<20))
}

func (c *Coordinator) handlePublish(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		w.Header().Set("Retry-After", "1")
		cwriteError(w, http.StatusServiceUnavailable, "coordinator is shutting down")
		return
	}
	doc, err := io.ReadAll(io.LimitReader(r.Body, c.cfg.MaxDocumentBytes+1))
	if err != nil {
		cwriteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(doc)) > c.cfg.MaxDocumentBytes {
		cwriteError(w, http.StatusRequestEntityTooLarge, "document exceeds %d bytes", c.cfg.MaxDocumentBytes)
		return
	}
	var tr *trace.Trace
	if id, parent, ok := trace.ParseHeader(r.Header.Get(trace.HeaderName)); ok {
		tr = trace.Join(id, parent)
	} else if r.URL.Query().Get("trace") == "1" {
		tr = trace.New()
	}
	ctx := r.Context()
	if tr != nil {
		ctx = trace.NewContext(ctx, tr)
	}
	res, err := c.Publish(ctx, doc)
	if tr.Enabled() {
		w.Header().Set(trace.ResponseHeaderName, tr.ID().String())
	}
	if err != nil {
		// All shards shedding load is cluster backpressure, not a gateway
		// fault: relay 429 with the largest shard Retry-After so the
		// publisher's pacing hint survives the scatter/gather hop.
		var ae *allShardsError
		if errors.As(err, &ae) && ae.rateLimited {
			if ae.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
			}
			cwriteError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		relayError(w, err)
		return
	}
	if res.TraceID != "" {
		w.Header().Set(trace.ResponseHeaderName, res.TraceID)
	}
	server.WritePublishResponse(w, &server.PublishResult{
		SIDs: res.SIDs, TraceID: res.TraceID, Degraded: res.Degraded, Skipped: res.Skipped,
	})
}

// handleFlight dumps the flight recorder: the last K anomalous or
// explicitly traced publishes, each with its span tree.
func (c *Coordinator) handleFlight(w http.ResponseWriter, r *http.Request) {
	cwriteJSON(w, http.StatusOK, map[string]any{
		"recorded": c.flight.Recorded(),
		"capacity": c.flight.Cap(),
		"records":  c.flight.Snapshot(),
	})
}

func sidFromPath(w http.ResponseWriter, r *http.Request) (predfilter.SID, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		cwriteError(w, http.StatusBadRequest, "bad subscription id %q", r.PathValue("id"))
		return 0, false
	}
	return predfilter.SID(id), true
}

// Stats is the coordinator's observable state: cluster-level counters and
// one entry per shard.
type Stats struct {
	Subscriptions  int          `json:"subscriptions"`
	Shards         int          `json:"shards"`
	Orphans        int          `json:"orphans"`
	DocsPublished  int64        `json:"docs_published"`
	DocsDegraded   int64        `json:"docs_degraded"`
	DocsFailed     int64        `json:"docs_failed"`
	Failovers      int64        `json:"failovers"`
	PerShard       []ShardStats `json:"per_shard"`
	SubscribedNext uint32       `json:"next_sid"`
	// Store reports the durable coordinator state (nil when the
	// coordinator runs without Config.StateDir).
	Store *store.Stats `json:"store,omitempty"`
}

// ShardStats is one shard's routing state and publish counters.
type ShardStats struct {
	Name          string  `json:"name"`
	Addr          string  `json:"addr"`
	Standby       string  `json:"standby,omitempty"`
	Promoted      bool    `json:"promoted,omitempty"`
	Healthy       bool    `json:"healthy"`
	Subscriptions int     `json:"subscriptions"`
	Published     int64   `json:"published"`
	Errors        int64   `json:"errors"`
	Retries       int64   `json:"retries"`
	Skipped       int64   `json:"skipped"`
	PublishSecs   float64 `json:"publish_seconds"`
	// Breaker is the circuit breaker state: "closed", "half_open",
	// "open", or "disabled".
	Breaker      string `json:"breaker"`
	BreakerOpens int64  `json:"breaker_opens"`
	// FastFails counts calls the open breaker refused without touching
	// the network.
	FastFails int64 `json:"fast_fails"`
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	perShard := make(map[string]int, len(c.shards))
	for _, rec := range c.subs {
		perShard[rec.owner]++
	}
	st := Stats{
		Subscriptions:  len(c.subs),
		Shards:         len(c.shards),
		Orphans:        len(c.orphans),
		SubscribedNext: uint32(c.nextSID),
	}
	shards := make([]*shard, 0, len(c.order))
	for _, name := range c.order {
		shards = append(shards, c.shards[name])
	}
	c.mu.Unlock()
	st.DocsPublished = c.docsPublished.Load()
	st.DocsDegraded = c.docsDegraded.Load()
	st.DocsFailed = c.docsFailed.Load()
	st.Failovers = c.failovers.Load()
	if c.st != nil {
		cst := c.st.Stats()
		st.Store = &cst
	}
	for _, sh := range shards {
		sh.mu.Lock()
		addr, standby, promoted := sh.addr, sh.standby, sh.promoted
		sh.mu.Unlock()
		brkState, brkOpens, brkFastFails := sh.brk.snapshot()
		st.PerShard = append(st.PerShard, ShardStats{
			Name:          sh.name,
			Addr:          addr,
			Standby:       standby,
			Promoted:      promoted,
			Healthy:       sh.healthy.Load(),
			Subscriptions: perShard[sh.name],
			Published:     sh.published.Load(),
			Errors:        sh.errs.Load(),
			Retries:       sh.retries.Load(),
			Skipped:       sh.skipped.Load(),
			PublishSecs:   float64(sh.publishNanos.Load()) / 1e9,
			Breaker:       brkState,
			BreakerOpens:  brkOpens,
			FastFails:     brkFastFails,
		})
	}
	return st
}

// statsResponse is the coordinator's /stats document: its own counters
// (the Stats fields, inlined) plus every shard's /stats snapshot
// verbatim. A shard whose snapshot could not be fetched is named in
// scrape_errors and omitted from shard_snapshots — the response is
// marked degraded, never dropped.
type statsResponse struct {
	Stats
	ShardSnapshots map[string]json.RawMessage `json:"shard_snapshots,omitempty"`
	ScrapeErrors   []string                   `json:"scrape_errors,omitempty"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	shards := c.shardList()
	snaps := make([]json.RawMessage, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for i, sh := range shards {
		go func(i int, sh *shard) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), c.cfg.AdminTimeout)
			defer cancel()
			snaps[i], errs[i] = c.api.statsJSON(ctx, sh.currentAddr())
		}(i, sh)
	}
	wg.Wait()
	resp := statsResponse{Stats: c.Stats(), ShardSnapshots: make(map[string]json.RawMessage)}
	for i, sh := range shards {
		if errs[i] != nil {
			c.scrapeErrs.Add(1)
			resp.ScrapeErrors = append(resp.ScrapeErrors, sh.name)
			continue
		}
		resp.ShardSnapshots[sh.name] = snaps[i]
	}
	cwriteJSON(w, http.StatusOK, resp)
}

// handleMetrics exposes the coordinator's counters in the Prometheus text
// format, per-shard series labelled shard="name", followed by a rollup of
// every shard's own /metrics exposition: each shard series re-labelled
// shard="name" plus a shard="all" aggregate per series. Counter sums and
// bucket-wise histogram merges are the same operation here — all
// histograms share fixed power-of-two bounds, so summing per-le series is
// an exact merge. A shard whose scrape fails is marked (scrape_ok 0,
// scrape_errors_total) and skipped; the response is degraded, not
// dropped.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Scrape every shard concurrently before rendering, so scrape_ok and
	// scrape_errors_total reflect this pass.
	shards := c.shardList()
	texts := make([]string, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for i, sh := range shards {
		go func(i int, sh *shard) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), c.cfg.AdminTimeout)
			defer cancel()
			texts[i], errs[i] = c.api.metricsText(ctx, sh.currentAddr())
		}(i, sh)
	}
	wg.Wait()
	roll := metrics.NewRollup()
	for i, sh := range shards {
		if errs[i] == nil {
			errs[i] = roll.Add(sh.name, texts[i])
		}
		if errs[i] != nil {
			c.scrapeErrs.Add(1)
			c.log.Warn("cluster: shard metrics scrape failed",
				slog.String("shard", sh.name),
				slog.String("error", errs[i].Error()))
		}
	}

	sc := coordScrape{st: c.Stats(), shards: shards, errs: errs, gather: c.gatherMerge.Snapshot(), scrapeErrs: c.scrapeErrs.Load()}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if metrics.WriteText(w, coordTable, &sc) == nil {
		_ = roll.WriteText(w)
	}
}
