package cluster

import (
	"bytes"
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
	Store *store.CoordStats `json:"store,omitempty"`
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

	st := c.Stats()
	var buf bytes.Buffer
	x := metrics.NewExposition(&buf)
	x.Family("predfilter_cluster_shards", "Shards on the ring.", "gauge")
	x.Int("predfilter_cluster_shards", "", int64(st.Shards))
	x.Family("predfilter_cluster_subscriptions", "Live subscriptions across all shards.", "gauge")
	x.Int("predfilter_cluster_subscriptions", "", int64(st.Subscriptions))
	x.Family("predfilter_cluster_docs_published_total", "Documents accepted by the scatter/gather publish path.", "counter")
	x.Int("predfilter_cluster_docs_published_total", "", st.DocsPublished)
	x.Family("predfilter_cluster_docs_degraded_total", "Published documents answered with a partial match set.", "counter")
	x.Int("predfilter_cluster_docs_degraded_total", "", st.DocsDegraded)
	x.Family("predfilter_cluster_docs_failed_total", "Published documents refused outright.", "counter")
	x.Int("predfilter_cluster_docs_failed_total", "", st.DocsFailed)
	x.Family("predfilter_cluster_failovers_total", "Standby promotions.", "counter")
	x.Int("predfilter_cluster_failovers_total", "", st.Failovers)
	x.Family("predfilter_cluster_shard_subscriptions", "Subscriptions owned per shard.", "gauge")
	for _, s := range st.PerShard {
		x.Int("predfilter_cluster_shard_subscriptions", shardLabel(s.Name), int64(s.Subscriptions))
	}
	x.Family("predfilter_cluster_shard_healthy", "Last health probe outcome per shard (1 healthy).", "gauge")
	for _, s := range st.PerShard {
		v := int64(0)
		if s.Healthy {
			v = 1
		}
		x.Int("predfilter_cluster_shard_healthy", shardLabel(s.Name), v)
	}
	x.Family("predfilter_cluster_shard_published_total", "Successful per-shard publish calls.", "counter")
	for _, s := range st.PerShard {
		x.Int("predfilter_cluster_shard_published_total", shardLabel(s.Name), s.Published)
	}
	x.Family("predfilter_cluster_shard_errors_total", "Failed per-shard publish calls (after retries).", "counter")
	for _, s := range st.PerShard {
		x.Int("predfilter_cluster_shard_errors_total", shardLabel(s.Name), s.Errors)
	}
	x.Family("predfilter_cluster_shard_retries_total", "Per-shard publish attempts retried.", "counter")
	for _, s := range st.PerShard {
		x.Int("predfilter_cluster_shard_retries_total", shardLabel(s.Name), s.Retries)
	}
	x.Family("predfilter_cluster_shard_skipped_total", "Documents that skipped a shard after exhausting retries.", "counter")
	for _, s := range st.PerShard {
		x.Int("predfilter_cluster_shard_skipped_total", shardLabel(s.Name), s.Skipped)
	}
	x.Family("predfilter_cluster_shard_publish_seconds_total", "Wall time spent in per-shard publish calls.", "counter")
	for _, s := range st.PerShard {
		x.Value("predfilter_cluster_shard_publish_seconds_total", shardLabel(s.Name), s.PublishSecs)
	}
	x.Family("predfilter_cluster_breaker_state", "Circuit breaker state per shard (0 closed, 1 half-open, 2 open).", "gauge")
	for _, sh := range shards {
		x.Int("predfilter_cluster_breaker_state", shardLabel(sh.name), sh.brk.stateGauge())
	}
	x.Family("predfilter_cluster_breaker_opens_total", "Circuit breaker open transitions per shard.", "counter")
	for _, s := range st.PerShard {
		x.Int("predfilter_cluster_breaker_opens_total", shardLabel(s.Name), s.BreakerOpens)
	}
	x.Family("predfilter_cluster_breaker_fast_fails_total", "Calls refused by an open breaker without touching the network.", "counter")
	for _, s := range st.PerShard {
		x.Int("predfilter_cluster_breaker_fast_fails_total", shardLabel(s.Name), s.FastFails)
	}
	x.Family("predfilter_cluster_orphan_sids", "Burned subscription ids awaiting reap.", "gauge")
	x.Int("predfilter_cluster_orphan_sids", "", int64(st.Orphans))
	if st.Store != nil {
		x.Family("predfilter_coord_store_wal_records", "Coordinator state records since the last snapshot.", "gauge")
		x.Int("predfilter_coord_store_wal_records", "", st.Store.WALRecords)
		x.Family("predfilter_coord_store_appends_total", "Coordinator state records appended.", "counter")
		x.Int("predfilter_coord_store_appends_total", "", st.Store.Appends)
		x.Family("predfilter_coord_store_snapshots_total", "Coordinator state snapshot compactions.", "counter")
		x.Int("predfilter_coord_store_snapshots_total", "", st.Store.Snapshots)
		x.Family("predfilter_coord_store_torn_bytes", "Torn-tail bytes discarded at last coordinator state recovery.", "gauge")
		x.Int("predfilter_coord_store_torn_bytes", "", st.Store.TornBytes)
	}
	x.Family("predfilter_cluster_rpc_duration_seconds", "Coordinator-to-shard RPC latency per shard and stage (every attempt, including retried ones).", "histogram")
	for _, sh := range shards {
		for stage := 0; stage < numRPCStages; stage++ {
			s := sh.rpc[stage].Snapshot()
			if s.Count == 0 {
				continue
			}
			x.Histogram("predfilter_cluster_rpc_duration_seconds",
				shardLabel(sh.name)+","+metrics.Label("stage", rpcStageNames[stage]), s)
		}
	}
	x.Family("predfilter_cluster_gather_merge_seconds", "Gather-merge stage of scatter/gather publish.", "histogram")
	x.Histogram("predfilter_cluster_gather_merge_seconds", "", c.gatherMerge.Snapshot())
	x.Family("predfilter_cluster_scrape_errors_total", "Shard scrapes that failed during /metrics or /stats rollup.", "counter")
	x.Int("predfilter_cluster_scrape_errors_total", "", c.scrapeErrs.Load())
	x.Family("predfilter_cluster_scrape_ok", "Whether the shard's /metrics scrape succeeded on this pass (1 ok).", "gauge")
	for i, sh := range shards {
		ok := int64(1)
		if errs[i] != nil {
			ok = 0
		}
		x.Int("predfilter_cluster_scrape_ok", shardLabel(sh.name), ok)
	}
	if err := x.Err(); err != nil {
		cwriteError(w, http.StatusInternalServerError, "metrics: %v", err)
		return
	}
	if err := roll.WriteText(&buf); err != nil {
		cwriteError(w, http.StatusInternalServerError, "metrics rollup: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// shardLabel renders the shard label with the name escaped per the
// text-format rules — a shard named with quotes, backslashes or newlines
// must not corrupt the exposition.
func shardLabel(name string) string { return metrics.Label("shard", name) }
