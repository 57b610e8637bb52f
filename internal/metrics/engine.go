package metrics

import (
	"strconv"

	"predfilter/internal/guard"
)

// EngineRows declares the engine's metrics: predfilter.Engine.WriteMetrics
// writes their families, and the server serves them beside its own.
var EngineRows = []Row[Scrape]{
	{Name: "predfilter_docs_total", Kind: "counter", Help: "Documents matched (all entry points).", JSON: "documents", On: OnStats, Read: func(s *Scrape, e Emit) { e(s.DocsTotal) }},
	{Name: "predfilter_doc_errors_total", Kind: "counter", Help: "Documents rejected by the XML parser.", JSON: "doc_errors", On: OnStats, Read: func(s *Scrape, e Emit) { e(s.DocErrors) }},
	{Name: "predfilter_doc_bytes_total", Kind: "counter", Help: "XML bytes parsed.", JSON: "doc_bytes", On: OnStats, Read: func(s *Scrape, e Emit) { e(s.DocBytes) }},
	{Name: "predfilter_paths_total", Kind: "counter", Help: "Root-to-leaf paths matched.", JSON: "paths", On: OnStats, Read: func(s *Scrape, e Emit) { e(s.PathsTotal) }},
	{Name: "predfilter_paths_distinct_total", Kind: "counter", Help: "Paths matched after per-document dedup of repeated paths.", Read: func(s *Scrape, e Emit) { e(s.PathsDistinct) }},
	{Name: "predfilter_attr_tests_total", Kind: "counter", Help: "Attribute tests evaluated by path-cache hit programs; outcomes reused for an unchanged node are not counted.", Read: func(s *Scrape, e Emit) { e(s.AttrTests) }},
	{Name: "predfilter_occurrence_evals_total", Kind: "counter", Help: "Units the served kernel sent through occurrence determination: a tag repeated on the path, a Postponed group on a cache miss, or a chain unit a path-cache hit decided over the pairs its tests kept.", Read: func(s *Scrape, e Emit) { e(s.OccurEvals) }},
	{Name: "predfilter_occurrence_pairs_total", Kind: "counter", Help: "Occurrence pairs visited by occurrence determination and combination counting, chain units decided on path-cache hits included: the steps a match budget charges.", Read: func(s *Scrape, e Emit) { e(s.OccurPairs) }},
	{Name: "predfilter_matches_total", Kind: "counter", Help: "Matching expression identifiers reported.", JSON: "matches", On: OnStats, Read: func(s *Scrape, e Emit) { e(s.MatchesTotal) }},
	{Name: "predfilter_emit_bytes_total", Kind: "counter", Help: "Bytes of identifier text emitted for matching documents, each identifier's digits and a comma.", Read: func(s *Scrape, e Emit) { e(s.EmitBytes) }},
	{Name: "predfilter_slow_docs_total", Kind: "counter", Help: "Documents over the slow-document threshold.", JSON: "slow_docs", On: OnStats, Read: func(s *Scrape, e Emit) { e(s.SlowDocs) }},
	{Name: "predfilter_parse_docs_total", Kind: "counter", Help: "Documents by parse path: the zero-copy scanner fast path vs the encoding/xml fallback.", Labels: []string{"path"},
		Read: func(s *Scrape, e Emit) { e(s.ParseScanDocs, "scan"); e(s.ParseFallbackDocs, "fallback") }},
	{Name: "predfilter_stage_duration_seconds", Kind: "histogram", Help: "Per-document pipeline stage latency.", Labels: []string{"stage"}, JSON: "stages.{stage}", On: OnStats,
		Read: func(s *Scrape, e Emit) {
			e(s.Parse, "parse")
			e(s.Match, "match")
		}},
	{Name: "predfilter_store_duration_seconds", Kind: "histogram", Help: "Durable store operation latency.", Labels: []string{"op"}, JSON: "stages.{op}", On: OnStats,
		Read: func(s *Scrape, e Emit) { e(s.WALAppend, "wal_append"); e(s.Snapshot, "snapshot") }},
	{Name: "predfilter_expressions", Kind: "gauge", Help: "Live registered expression identifiers.", JSON: "expressions", On: OnStats, Read: func(s *Scrape, e Emit) { e(s.Expressions) }},
	{Name: "predfilter_distinct_expressions", Kind: "gauge", Help: "Distinct expressions with a live subscription, after dedup.", JSON: "distinct_expressions", On: OnStats, Read: func(s *Scrape, e Emit) { e(s.DistinctExpressions) }},
	{Name: "predfilter_distinct_predicates", Kind: "gauge", Help: "Size of the shared predicate index.", JSON: "distinct_predicates", On: OnStats, Read: func(s *Scrape, e Emit) { e(s.DistinctPredicates) }},
	{Name: "predfilter_nested_expressions", Kind: "gauge", Help: "Distinct expressions with nested path filters.", JSON: "nested_expressions", On: OnStats, Read: func(s *Scrape, e Emit) { e(s.NestedExpressions) }},
	cacheRow("predfilter_path_cache_hits_total", "counter", "Path-signature cache probes that found an entry; a shape repeated within a document reuses its entry without a probe.", "hits", func(c *PathCache) any { return c.Hits }),
	cacheRow("predfilter_path_cache_misses_total", "counter", "Path-signature cache misses.", "misses", func(c *PathCache) any { return c.Misses }),
	cacheRow("predfilter_path_cache_evictions_total", "counter", "Path-signature cache evictions.", "evictions", func(c *PathCache) any { return c.Evictions }),
	cacheRow("predfilter_path_cache_invalidations_total", "counter", "Path-signature cache generation bumps.", "invalidations", func(c *PathCache) any { return c.Invalidations }),
	cacheRow("predfilter_path_cache_entries", "gauge", "Resident path-signature cache entries.", "entries", func(c *PathCache) any { return c.Entries }),
	cacheRow("predfilter_path_cache_bytes", "gauge", "Resident path-signature cache bytes.", "bytes", func(c *PathCache) any { return c.Bytes }),
	cacheRow("", "", "", "max_bytes", func(c *PathCache) any { return c.MaxBytes }),
	cacheRow("", "", "", "hit_rate", func(c *PathCache) any { return c.HitRate() }),
	{Name: "predfilter_limit_trips_total", Kind: "counter", Help: "Documents stopped by each resource-governance limit.", Labels: []string{"limit"}, JSON: "limit_trips.{limit}", On: OnStats,
		Skip: func(_ *Scrape, v any) bool { return v == int64(0) },
		Read: func(s *Scrape, e Emit) {
			for k := guard.Kind(0); k < guard.NumKinds; k++ {
				e(s.LimitTrips[k], k.String())
			}
		}},
	{Name: "predfilter_panics_recovered_total", Kind: "counter", Help: "Panics recovered by the isolation layer.", JSON: "panics_recovered", On: OnStats | OnVars, Read: func(s *Scrape, e Emit) { e(s.Panics) }},
	{Name: "predfilter_stream_queue_depth", Kind: "gauge", Help: "Stream documents dispatched but not yet picked up.", Read: func(s *Scrape, e Emit) { e(s.StreamQueueDepth) }},
	{Name: "predfilter_stream_jobs_total", Kind: "counter", Help: "Documents that entered the stream worker pool.", Read: func(s *Scrape, e Emit) { e(s.StreamJobs) }},
	{Name: "predfilter_stream_batches_total", Kind: "counter", Help: "Dispatch groups delivered to stream workers (jobs/batches = effective batch size).", Read: func(s *Scrape, e Emit) { e(s.StreamBatches) }},
	colRow("predfilter_columnar_batches_total", "counter", "Batches evaluated by the columnar bitset matcher.", "batches", func(s *Scrape) any { return s.Columnar.Batches }),
	colRow("predfilter_columnar_docs_total", "counter", "Documents matched by the columnar bitset matcher.", "docs", func(s *Scrape) any { return s.Columnar.Docs }),
	colRow("predfilter_columnar_paths_total", "counter", "Paths evaluated by the columnar sweep.", "paths", func(s *Scrape) any { return s.Columnar.Paths }),
	colRow("predfilter_columnar_candidates_total", "counter", "Candidate bits surviving the per-path fold.", "candidates", func(s *Scrape) any { return s.Columnar.Candidates }),
	colRow("predfilter_columnar_ambiguous_paths_total", "counter", "Swept paths needing scalar occurrence verification (a tag repeated).", "ambiguous_paths", func(s *Scrape) any { return s.Columnar.AmbiguousPaths }),
	{Name: "predfilter_columnar_words_total", Kind: "counter", Help: "Candidate-bitset words by sweep outcome: scanned vs holding at least one candidate (live/swept = occupancy).", Labels: []string{"state"},
		JSON: "columnar.words_{state}", On: OnStats | OnVars, Skip: colIdle, Read: func(s *Scrape, e Emit) { e(s.Columnar.WordsSwept, "swept"); e(s.Columnar.WordsLive, "live") }},
	colRow("", "", "", "avg_batch", func(s *Scrape) any { return s.Columnar.AvgBatch() }),
	colRow("", "", "", "occupancy", func(s *Scrape) any { return s.Columnar.Occupancy() }),
	{Name: "predfilter_stream_worker_busy_seconds_total", Kind: "counter", Help: "Cumulative per-worker busy time.", Labels: []string{"worker"},
		When: func(s *Scrape) bool { return len(s.StreamBusy) > 0 },
		Read: func(s *Scrape, e Emit) {
			for w, ns := range s.StreamBusy {
				e(float64(ns)/1e9, strconv.Itoa(w))
			}
		}},
}

// cacheRow declares one path-cache metric, present only while the engine
// runs the cache; an empty name declares a JSON-only member.
func cacheRow(name, kind, help, key string, get func(*PathCache) any) Row[Scrape] {
	return Row[Scrape]{Name: name, Kind: kind, Help: help, JSON: "path_cache." + key, On: OnStats | OnVars,
		When: func(s *Scrape) bool { return s.PathCache.Enabled },
		Read: func(s *Scrape, e Emit) { e(get(&s.PathCache)) }}
}

// colRow declares one columnar-kernel metric; the JSON object is left out
// until the kernel has run a batch. An empty name declares a JSON-only
// member.
func colRow(name, kind, help, key string, get func(*Scrape) any) Row[Scrape] {
	return Row[Scrape]{Name: name, Kind: kind, Help: help, JSON: "columnar." + key, On: OnStats | OnVars, Skip: colIdle,
		Read: func(s *Scrape, e Emit) { e(get(s)) }}
}

func colIdle(s *Scrape, _ any) bool { return s.Columnar.Batches == 0 }
