package predfilter

import (
	"context"
	"io"
	"log/slog"
	"time"

	"predfilter/internal/matcher"
	"predfilter/internal/metrics"
	"predfilter/internal/trace"
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

func summarize(s metrics.HistSnapshot) HistogramStats {
	return HistogramStats{
		Count:      s.Count,
		TotalNanos: int64(s.SumNanos),
		P50Nanos:   s.Quantile(0.50),
		P95Nanos:   s.Quantile(0.95),
		P99Nanos:   s.Quantile(0.99),
	}
}

// StageStats holds the per-stage latency summaries of the pipeline:
// parsing (XML parse + path extraction), matching, and the durable-store
// operations.
type StageStats struct {
	Parse     HistogramStats
	Match     HistogramStats
	WALAppend HistogramStats
	Snapshot  HistogramStats
}

// Match tracing (per-document explanation mode). The types are produced
// by Engine.MatchTracedContext; see internal/matcher for field
// documentation.
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

// MatchTracedContext is MatchContext with an explanation: alongside the
// matching SIDs it returns, for every registered expression, which chain
// predicates produced occurrence pairs on which paths, the
// occurrence-determination outcome over them, and the per-stage costs.
// The match result is authoritative (identical to Match). The explanation
// is a deliberately slow second pass over each path as it is scanned,
// intended for debugging single documents: it re-evaluates every
// expression without covers or the path cache, under a forked budget (its
// own full step allocation, the same wall-clock deadline). A governance
// stop returns a typed *LimitError and no trace; the slow explanation pass
// can therefore never pin a worker on a document the governed fast path
// would have rejected.
func (e *Engine) MatchTracedContext(ctx context.Context, doc []byte) ([]SID, *MatchTrace, error) {
	d, err := e.scan(ctx, matcher.ScanDoc{Doc: doc, Explain: true})
	return d.SIDs, d.Trace, err
}

// maybeLogSlow counts and logs documents whose parse+match time reached
// the configured threshold, with its parse and match stages. When ctx
// carries a distributed trace (the server attaches one for traced
// publishes), its trace ID is attached so the slow-document record can be
// correlated with the cluster-wide span tree in the flight recorder.
func (e *Engine) maybeLogSlow(ctx context.Context, parse, match time.Duration, bytes, paths, matches int) {
	if e.slow <= 0 || parse+match < e.slow {
		return
	}
	e.mx.SlowDocs.Inc()
	attrs := []slog.Attr{
		slog.Int64("total_ns", int64(parse+match)),
		slog.Int64("parse_ns", int64(parse)),
		slog.Int64("match_ns", int64(match)),
		slog.Int("bytes", bytes),
		slog.Int("paths", paths),
		slog.Int("matches", matches),
	}
	if tr := trace.FromContext(ctx); tr.Enabled() {
		attrs = append(attrs, slog.String("trace_id", tr.ID().String()))
	}
	e.logger.LogAttrs(ctx, slog.LevelWarn, "predfilter: slow document", attrs...)
}

// Metrics returns the engine's metric set for direct recording access
// (the stream pipeline and the durable store record into it) and for
// scraping (Set.Scrape, which includes the engine's gauges).
func (e *Engine) Metrics() *metrics.Set { return e.mx }

// WriteMetrics writes the engine's full metric state to w in the
// Prometheus text exposition format (version 0.0.4): the families of
// metrics.EngineRows, read from one scrape of the metric set.
func (e *Engine) WriteMetrics(w io.Writer) error {
	sc := e.mx.Scrape()
	return metrics.WriteText(w, metrics.EngineRows, &sc)
}

// gauges reads the registration state into a scrape (installed as the
// metric set's ReadGauges).
func (e *Engine) gauges(sc *metrics.Scrape) {
	st := e.m.Stats()
	sc.Expressions, sc.DistinctExpressions = st.SIDs, st.DistinctExpressions
	sc.DistinctPredicates, sc.NestedExpressions = st.DistinctPredicates, st.NestedExpressions
	if pc := st.PathCache; st.PathCacheEnabled {
		sc.PathCache = metrics.PathCache{Enabled: true, Hits: pc.Hits, Misses: pc.Misses, Evictions: pc.Evictions,
			Invalidations: pc.Invalidations, Entries: pc.Entries, Bytes: pc.Bytes, MaxBytes: pc.MaxBytes}
	}
}
