package predfilter

import (
	"context"
	"io"
	"log/slog"
	"strconv"
	"time"

	"predfilter/internal/guard"
	"predfilter/internal/matcher"
	"predfilter/internal/metrics"
	"predfilter/internal/trace"
	"predfilter/internal/xmldoc"
)

// HistogramStats summarizes one stage-latency histogram: observation
// count, accumulated time, and interpolated quantile estimates (see
// internal/metrics for the bucket layout the estimates come from).
type HistogramStats struct {
	Count      uint64
	TotalNanos int64
	P50Nanos   float64
	P95Nanos   float64
	P99Nanos   float64
}

func summarize(h *metrics.Histogram) HistogramStats {
	s := h.Snapshot()
	return HistogramStats{
		Count:      s.Count,
		TotalNanos: int64(s.SumNanos),
		P50Nanos:   s.Quantile(0.50),
		P95Nanos:   s.Quantile(0.95),
		P99Nanos:   s.Quantile(0.99),
	}
}

// StageStats holds the per-stage latency summaries of the pipeline:
// parsing (XML parse + path extraction), the path-signature cache stage,
// the two matching stages of the paper (predicate matching, occurrence
// determination), the whole post-parse match, and the durable-store
// operations.
type StageStats struct {
	Parse          HistogramStats
	Cache          HistogramStats
	PredicateMatch HistogramStats
	Occurrence     HistogramStats
	Match          HistogramStats
	WALAppend      HistogramStats
	Snapshot       HistogramStats
}

// Match tracing (per-document explanation mode). The types are produced
// by Engine.MatchTraced; see internal/matcher for field documentation.
type (
	// MatchTrace is the full per-document explanation: per-expression
	// evidence plus the nanosecond cost of each pipeline stage.
	MatchTrace = matcher.Trace
	// ExprTrace explains one registered expression against the document.
	ExprTrace = matcher.ExprTrace
	// PathEvidence is one path's evidence for one expression.
	PathEvidence = matcher.PathEvidence
	// PredicateEval is the stage-1 evidence for one chain level.
	PredicateEval = matcher.PredicateEval
)

// MatchTraced is Match with an explanation: alongside the matching SIDs it
// returns, for every registered expression, which chain predicates
// produced occurrence pairs on which paths, the occurrence-determination
// outcome over them, and the per-stage costs. The match result is
// authoritative (identical to Match); the explanation is a deliberately
// slow second pass intended for debugging single documents. Configured
// limits are enforced; MatchTraced is MatchTracedContext without
// caller-side cancellation.
func (e *Engine) MatchTraced(doc []byte) ([]SID, *MatchTrace, error) {
	return e.MatchTracedContext(context.Background(), doc)
}

// MatchTracedContext is MatchTraced under the caller's context and the
// engine's configured limits: the document is parsed under the structural
// limits, the authoritative match runs under the step budget and
// deadline, and the explanation pass — which re-evaluates every
// expression without covers or the path cache — runs under a forked
// budget (its own full step allocation, the same wall-clock deadline). A
// governance stop returns a typed *LimitError and no trace; the slow
// explanation pass can therefore never pin a worker on a document the
// governed fast path would have rejected.
func (e *Engine) MatchTracedContext(ctx context.Context, doc []byte) ([]SID, *MatchTrace, error) {
	t0 := time.Now()
	d, err := xmldoc.ParseMetered(doc, e.mx, e.limits, xmldoc.ModeAuto)
	if err != nil {
		return nil, nil, e.recordGovernance(err)
	}
	parse := time.Since(t0)
	sids, tr, err := e.m.MatchDocumentTracedBudget(d, guard.NewBudget(ctx, e.limits))
	if err != nil {
		return nil, nil, e.recordGovernance(err)
	}
	tr.ParseNanos = parse.Nanoseconds()
	return sids, tr, nil
}

// maybeLogSlow counts and logs documents whose parse+match time reached
// the configured threshold, with the match's stage breakdown. When ctx
// carries a distributed trace (the server attaches one for traced
// publishes), its trace ID is attached so the slow-document record can be
// correlated with the cluster-wide span tree in the flight recorder.
func (e *Engine) maybeLogSlow(ctx context.Context, parse time.Duration, bd *matcher.Breakdown, bytes, paths, matches int) {
	if e.slow <= 0 || parse+bd.Total < e.slow {
		return
	}
	e.mx.SlowDocs.Inc()
	attrs := []slog.Attr{
		slog.Int64("total_ns", int64(parse+bd.Total)),
		slog.Int64("parse_ns", int64(parse)),
		slog.Int64("match_ns", int64(bd.Total)),
		slog.Int("bytes", bytes),
		slog.Int("paths", paths),
		slog.Int("matches", matches),
		slog.Int64("cache_ns", int64(bd.Cache)),
		slog.Int64("pred_match_ns", int64(bd.PredMatch)),
		slog.Int64("occur_ns", int64(bd.ExprMatch+bd.Other)),
	}
	if tr := trace.FromContext(ctx); tr.Enabled() {
		attrs = append(attrs, slog.String("trace_id", tr.ID().String()))
	}
	e.logger.LogAttrs(ctx, slog.LevelWarn, "predfilter: slow document", attrs...)
}

// Metrics returns the engine's metric set for direct recording access
// (the stream pipeline and the durable store record into it).
func (e *Engine) Metrics() *metrics.Set { return e.mx }

// stageStats summarizes every stage histogram.
func (e *Engine) stageStats() StageStats {
	return StageStats{
		Parse:          summarize(&e.mx.Parse),
		Cache:          summarize(&e.mx.Cache),
		PredicateMatch: summarize(&e.mx.PredMatch),
		Occurrence:     summarize(&e.mx.Occur),
		Match:          summarize(&e.mx.Match),
		WALAppend:      summarize(&e.mx.WALAppend),
		Snapshot:       summarize(&e.mx.Snapshot),
	}
}

// WriteMetrics writes the engine's full metric state to w in the
// Prometheus text exposition format (version 0.0.4): the document
// counters, the per-stage latency histograms, the expression-table
// gauges, the path-cache counters and the stream-pipeline
// instrumentation. It is the payload of the server's GET /metrics.
func (e *Engine) WriteMetrics(w io.Writer) error {
	x := metrics.NewExposition(w)

	x.Family("predfilter_docs_total", "Documents matched (all entry points).", "counter")
	x.Int("predfilter_docs_total", "", e.mx.DocsTotal.Load())
	x.Family("predfilter_doc_errors_total", "Documents rejected by the XML parser.", "counter")
	x.Int("predfilter_doc_errors_total", "", e.mx.DocErrors.Load())
	x.Family("predfilter_doc_bytes_total", "XML bytes parsed.", "counter")
	x.Int("predfilter_doc_bytes_total", "", e.mx.DocBytes.Load())
	x.Family("predfilter_paths_total", "Root-to-leaf paths matched.", "counter")
	x.Int("predfilter_paths_total", "", e.mx.PathsTotal.Load())
	x.Family("predfilter_matches_total", "Matching expression identifiers reported.", "counter")
	x.Int("predfilter_matches_total", "", e.mx.MatchesTotal.Load())
	x.Family("predfilter_slow_docs_total", "Documents over the slow-document threshold.", "counter")
	x.Int("predfilter_slow_docs_total", "", e.mx.SlowDocs.Load())
	x.Family("predfilter_parse_docs_total", "Documents by parse path: the zero-copy scanner fast path vs the encoding/xml fallback.", "counter")
	x.Int("predfilter_parse_docs_total", `path="scan"`, e.mx.ParseScanDocs.Load())
	x.Int("predfilter_parse_docs_total", `path="fallback"`, e.mx.ParseFallbackDocs.Load())

	x.Family("predfilter_stage_duration_seconds", "Per-document pipeline stage latency.", "histogram")
	x.Histogram("predfilter_stage_duration_seconds", `stage="parse"`, e.mx.Parse.Snapshot())
	x.Histogram("predfilter_stage_duration_seconds", `stage="cache"`, e.mx.Cache.Snapshot())
	x.Histogram("predfilter_stage_duration_seconds", `stage="predicate_match"`, e.mx.PredMatch.Snapshot())
	x.Histogram("predfilter_stage_duration_seconds", `stage="occurrence"`, e.mx.Occur.Snapshot())
	x.Histogram("predfilter_stage_duration_seconds", `stage="match"`, e.mx.Match.Snapshot())

	x.Family("predfilter_store_duration_seconds", "Durable store operation latency.", "histogram")
	x.Histogram("predfilter_store_duration_seconds", `op="wal_append"`, e.mx.WALAppend.Snapshot())
	x.Histogram("predfilter_store_duration_seconds", `op="snapshot"`, e.mx.Snapshot.Snapshot())

	st := e.m.Stats()
	x.Family("predfilter_expressions", "Live registered expression identifiers.", "gauge")
	x.Int("predfilter_expressions", "", int64(st.SIDs))
	x.Family("predfilter_distinct_expressions", "Distinct expressions with a live subscription, after dedup.", "gauge")
	x.Int("predfilter_distinct_expressions", "", int64(st.DistinctExpressions))
	x.Family("predfilter_distinct_predicates", "Size of the shared predicate index.", "gauge")
	x.Int("predfilter_distinct_predicates", "", int64(st.DistinctPredicates))
	x.Family("predfilter_nested_expressions", "Distinct expressions with nested path filters.", "gauge")
	x.Int("predfilter_nested_expressions", "", int64(st.NestedExpressions))

	if st.PathCacheEnabled {
		pc := st.PathCache
		x.Family("predfilter_path_cache_hits_total", "Path-signature cache hits.", "counter")
		x.Int("predfilter_path_cache_hits_total", "", pc.Hits)
		x.Family("predfilter_path_cache_misses_total", "Path-signature cache misses.", "counter")
		x.Int("predfilter_path_cache_misses_total", "", pc.Misses)
		x.Family("predfilter_path_cache_evictions_total", "Path-signature cache evictions.", "counter")
		x.Int("predfilter_path_cache_evictions_total", "", pc.Evictions)
		x.Family("predfilter_path_cache_invalidations_total", "Path-signature cache generation bumps.", "counter")
		x.Int("predfilter_path_cache_invalidations_total", "", pc.Invalidations)
		x.Family("predfilter_path_cache_entries", "Resident path-signature cache entries.", "gauge")
		x.Int("predfilter_path_cache_entries", "", int64(pc.Entries))
		x.Family("predfilter_path_cache_bytes", "Resident path-signature cache bytes.", "gauge")
		x.Int("predfilter_path_cache_bytes", "", pc.Bytes)
	}

	x.Family("predfilter_limit_trips_total", "Documents stopped by each resource-governance limit.", "counter")
	trips := e.mx.LimitTrips()
	for k := guard.Kind(0); k < guard.NumKinds; k++ {
		x.Int("predfilter_limit_trips_total", `limit="`+k.String()+`"`, trips[k])
	}
	x.Family("predfilter_panics_recovered_total", "Panics recovered by the isolation layer.", "counter")
	x.Int("predfilter_panics_recovered_total", "", e.mx.Panics.Load())

	x.Family("predfilter_stream_queue_depth", "Stream documents dispatched but not yet picked up.", "gauge")
	x.Int("predfilter_stream_queue_depth", "", e.mx.StreamQueueDepth.Load())
	x.Family("predfilter_stream_jobs_total", "Documents that entered the stream worker pool.", "counter")
	x.Int("predfilter_stream_jobs_total", "", e.mx.StreamJobs.Load())
	x.Family("predfilter_stream_batches_total", "Dispatch groups delivered to stream workers (jobs/batches = effective batch size).", "counter")
	x.Int("predfilter_stream_batches_total", "", e.mx.StreamBatches.Load())

	x.Family("predfilter_columnar_batches_total", "Batches evaluated by the columnar bitset matcher.", "counter")
	x.Int("predfilter_columnar_batches_total", "", e.mx.ColBatches.Load())
	x.Family("predfilter_columnar_docs_total", "Documents matched by the columnar bitset matcher.", "counter")
	x.Int("predfilter_columnar_docs_total", "", e.mx.ColDocs.Load())
	x.Family("predfilter_columnar_paths_total", "Paths evaluated by the columnar sweep.", "counter")
	x.Int("predfilter_columnar_paths_total", "", e.mx.ColPaths.Load())
	x.Family("predfilter_columnar_candidates_total", "Candidate bits surviving the per-path fold.", "counter")
	x.Int("predfilter_columnar_candidates_total", "", e.mx.ColCandidates.Load())
	x.Family("predfilter_columnar_ambiguous_paths_total", "Swept paths needing scalar occurrence verification (a tag repeated).", "counter")
	x.Int("predfilter_columnar_ambiguous_paths_total", "", e.mx.ColAmbiguous.Load())
	x.Family("predfilter_columnar_words_total", "Candidate-bitset words by sweep outcome: scanned vs holding at least one candidate (live/swept = occupancy).", "counter")
	x.Int("predfilter_columnar_words_total", `state="swept"`, e.mx.ColWords.Load())
	x.Int("predfilter_columnar_words_total", `state="live"`, e.mx.ColWordsLive.Load())
	x.Family("predfilter_columnar_sweep_duration_seconds", "Per-document time in pure bitset sweep work (sub-stage of occurrence).", "histogram")
	x.Histogram("predfilter_columnar_sweep_duration_seconds", "", e.mx.ColSweep.Snapshot())

	if busy := e.mx.StreamBusyNanos(); len(busy) > 0 {
		x.Family("predfilter_stream_worker_busy_seconds_total", "Cumulative per-worker busy time.", "counter")
		for wkr, ns := range busy {
			x.Value("predfilter_stream_worker_busy_seconds_total",
				`worker="`+strconv.Itoa(wkr)+`"`, float64(ns)/1e9)
		}
	}
	return x.Err()
}
