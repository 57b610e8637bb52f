package server

import (
	"runtime"
	"time"

	"predfilter"
	"predfilter/internal/metrics"
)

// scrape is one request's reading of everything the metric table
// declares: the engine's metric set, the server's atomics and the store
// counters, each loaded once.
type scrape struct {
	eng                                                                            metrics.Scrape
	store                                                                          *predfilter.StoreStats // nil without persistence
	mem                                                                            runtime.MemStats       // read for /debug/vars only
	docs, rejected, batch, matches, nanos, shed, timedOut, limited, panics, queued int64
	ringPushes                                                                     int64
	subs, workers                                                                  int
	draining                                                                       bool
}

// readScrape takes one request's scrape. The runtime memory statistics
// are read only for /debug/vars, the one surface that shows them.
func (s *Server) readScrape(on metrics.Surface) *scrape {
	sc := &scrape{
		eng:  s.eng.Metrics().Scrape(),
		docs: s.docsPublished.Load(), rejected: s.docsRejected.Load(), batch: s.batchDocsTotal.Load(),
		matches: s.matchesTotal.Load(), nanos: s.publishNanos.Load(),
		shed: s.shed.Load(), timedOut: s.timedOut.Load(), limited: s.limited.Load(), panics: s.panics.Load(),
		queued: s.queued.Load(), draining: s.draining.Load(),
		workers: s.cfg.Workers,
	}
	s.mu.Lock()
	sc.subs, sc.ringPushes = s.reg.count, s.reg.ringPushes
	s.mu.Unlock()
	if s.pe != nil {
		st := s.pe.StoreStats()
		sc.store = &st
	}
	if on&metrics.OnVars != 0 {
		runtime.ReadMemStats(&sc.mem)
	}
	return sc
}

// Rows declares the server's own metrics. GET /metrics, /stats and
// /debug/vars render metrics.EngineRows and then these, from one scrape.
var Rows = []metrics.Row[scrape]{
	{Name: "predfilter_server_docs_published_total", Kind: "counter", Help: "Documents accepted by /publish and /publish/batch.", JSON: "docs_published", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.docs) }},
	{Name: "predfilter_server_docs_rejected_total", Kind: "counter", Help: "Published documents that failed to parse.", JSON: "docs_rejected", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.rejected) }},
	{Name: "predfilter_server_batch_docs_total", Kind: "counter", Help: "Documents that arrived via /publish/batch.", JSON: "batch_docs", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.batch) }},
	{Name: "predfilter_server_matches_total", Kind: "counter", Help: "Sum of per-document match counts on the publish paths.", JSON: "matches_total", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.matches) }},
	{Name: "predfilter_server_ring_pushes_total", Kind: "counter", Help: "Deliveries copied into a subscription's ring as their document left the delivery log still pending.", JSON: "ring_pushes", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.ringPushes) }},
	{Name: "predfilter_server_publish_seconds_total", Kind: "counter", Help: "Wall time spent matching published documents.", Read: func(s *scrape, e metrics.Emit) { e(float64(s.nanos) / 1e9) }},
	{Name: "predfilter_server_shed_total", Kind: "counter", Help: "Publish requests shed by admission control (429 or abandoned wait).", JSON: "shed", On: metrics.OnStats | metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.shed) }},
	{Name: "predfilter_server_timed_out_total", Kind: "counter", Help: "Published documents that hit the per-request or match deadline.", JSON: "timed_out", On: metrics.OnStats | metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.timedOut) }},
	{Name: "predfilter_server_limit_stopped_total", Kind: "counter", Help: "Published documents stopped by a resource-governance limit.", JSON: "limit_stopped", On: metrics.OnStats | metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.limited) }},
	{Name: "predfilter_server_panics_recovered_total", Kind: "counter", Help: "Handler panics recovered by the isolation layer.", JSON: "server_panics_recovered", On: metrics.OnStats | metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.panics) }},
	storeRow("predfilter_store_live_subscriptions", "gauge", "Live persisted subscriptions.", "live", func(st *predfilter.StoreStats) any { return st.Live }),
	storeRow("predfilter_store_wal_records", "gauge", "Records in the write-ahead log since the last snapshot.", "wal_records", func(st *predfilter.StoreStats) any { return st.WALRecords }),
	storeRow("predfilter_store_wal_bytes", "gauge", "Write-ahead log body size in bytes.", "wal_bytes", func(st *predfilter.StoreStats) any { return st.WALBytes }),
	storeRow("predfilter_store_appends_total", "counter", "Records appended to the write-ahead log.", "appends", func(st *predfilter.StoreStats) any { return st.Appends }),
	storeRow("predfilter_store_snapshots_total", "counter", "Snapshots written.", "snapshots", func(st *predfilter.StoreStats) any { return st.Snapshots }),
	storeRow("predfilter_store_compact_failures_total", "counter", "Compactions started by an append that failed (the append succeeded).", "compact_failures", func(st *predfilter.StoreStats) any { return st.CompactFailures }),
	storeRow("", "", "", "next_sid", func(st *predfilter.StoreStats) any { return st.NextSID }),
	storeRow("", "", "", "snapshot_entries", func(st *predfilter.StoreStats) any { return st.SnapshotEntries }),
	storeRow("", "", "", "replayed_records", func(st *predfilter.StoreStats) any { return st.ReplayedRecords }),
	storeRow("", "", "", "torn_bytes", func(st *predfilter.StoreStats) any { return st.TornBytes }),
	storeRow("", "", "", "last_snapshot", func(st *predfilter.StoreStats) any {
		if st.LastSnapshot.IsZero() {
			return nil
		}
		return st.LastSnapshot.UTC().Format(time.RFC3339Nano)
	}),
	{JSON: "subscriptions", On: metrics.OnStats, Read: func(s *scrape, e metrics.Emit) { e(s.subs) }},
	{JSON: "publish_ns", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.nanos) }},
	{JSON: "publish_docs_per_sec", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(metrics.Ratio(s.docs, float64(s.nanos)/1e9)) }},
	{JSON: "inflight_queued", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.queued) }},
	{JSON: "draining", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.draining) }},
	{JSON: "workers", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.workers) }},
	{JSON: "gomaxprocs", On: metrics.OnVars, Read: func(_ *scrape, e metrics.Emit) { e(runtime.GOMAXPROCS(0)) }},
	{JSON: "goroutines", On: metrics.OnVars, Read: func(_ *scrape, e metrics.Emit) { e(runtime.NumGoroutine()) }},
	{JSON: "mem_total_alloc", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.mem.TotalAlloc) }},
	{JSON: "mem_mallocs", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.mem.Mallocs) }},
	{JSON: "mem_heap_alloc", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.mem.HeapAlloc) }},
	{JSON: "num_gc", On: metrics.OnVars, Read: func(s *scrape, e metrics.Emit) { e(s.mem.NumGC) }},
}

// storeRow declares one persistence metric, present only with a durable
// store; an empty name declares a JSON-only member.
func storeRow(name, kind, help, key string, get func(*predfilter.StoreStats) any) metrics.Row[scrape] {
	return metrics.Row[scrape]{Name: name, Kind: kind, Help: help, JSON: "store." + key, On: metrics.OnStats | metrics.OnVars,
		When: func(s *scrape) bool { return s.store != nil },
		Read: func(s *scrape, e metrics.Emit) { e(get(s.store)) }}
}
