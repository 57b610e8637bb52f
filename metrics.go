package predfilter

import (
	"context"
	"io"
	"log/slog"
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
	d, _, err := xmldoc.ParseSource(xmldoc.Source{Bytes: doc}, e.mx, e.limits)
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
