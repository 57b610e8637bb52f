// Package predfilter is a high-throughput XML/XPath filtering engine: it
// determines, for each incoming XML document, which of a large set of
// registered XPath expressions the document matches. It implements the
// predicate-based filtering algorithm of Hou and Jacobsen ("Predicate-based
// Filtering of XPath Expressions", ICDE 2006 / Technical Report CSRG-514):
// expressions are encoded as ordered sets of position predicates that are
// stored and evaluated once no matter how many expressions share them, and
// documents are decomposed into root-to-leaf paths encoded as tuple sets
// evaluated against the shared predicates.
//
// Supported XPath fragment: the child (/) and descendant (//) axes, name
// tests and wildcards (*), attribute filters ([@a], [@a op v] with op in
// = != < <= > >=), and nested path filters ([p], evaluated against the
// document tree). Expressions may be absolute or relative; per the paper's
// filtering semantics a relative expression matches anywhere in the
// document.
//
// # Quick start
//
//	eng := predfilter.New(predfilter.Config{})
//	sid, _ := eng.Add("/nitf/body//p[@lede=true]")
//	matches, _ := eng.Match(xmlBytes)
//
// Engines are safe for concurrent Match calls. Registration is
// constant-time per expression; duplicate expressions share all storage
// and evaluation work and are reported under their own identifiers.
//
// # Matching
//
// Every match scans the document straight into the engine's kernel, each
// root-to-leaf path matched as its leaf closes, and builds no document
// tree: Match and MatchContext for one document, MatchStream and
// MatchBatchContext for many, MatchTracedContext to explain per expression
// and path why the document matched or missed, MatchCountsContext for the
// number of match combinations, and MatchEmit for documents whose
// identifiers are wanted as text and as a bitset rather than as a []SID.
// The exception is MatchParsedContext: it runs the same kernel over a
// document ParseDocument materialized once for several engines.
//
// One setting picks the kernel, on every entry point: the default is the
// columnar kernel with its path cache; Config{PathCacheBytes: -1} selects
// the paper's scalar reference loop instead (see Config.PathCacheBytes).
// Both produce identical results.
package predfilter

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"predfilter/internal/guard"
	"predfilter/internal/matcher"
	"predfilter/internal/metrics"
	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// SID identifies one registered expression (a subscription, in selective
// information dissemination terms).
type SID = matcher.SID

// Limits bounds per-document resource use (see Config.Limits). The zero
// value enforces nothing; each field is independent and zero disables
// that bound.
type Limits = guard.Limits

// LimitError is the typed error returned when a document exceeds a
// configured resource limit: which limit tripped (Kind), the configured
// bound (Limit), and how far the document got (Got). Inspect it with
// errors.As; deadline and cancellation stops additionally satisfy
// errors.Is(err, context.DeadlineExceeded) / context.Canceled. Partial
// results are never reported alongside a LimitError — a governed match
// either completes or fails loudly.
type LimitError = guard.LimitError

// LimitKind identifies which limit a LimitError reports.
type LimitKind = guard.Kind

// The limit kinds a LimitError can carry.
const (
	LimitDepth    LimitKind = guard.Depth
	LimitPaths    LimitKind = guard.Paths
	LimitTuples   LimitKind = guard.Tuples
	LimitDocBytes LimitKind = guard.DocBytes
	LimitSteps    LimitKind = guard.Steps
	LimitDeadline LimitKind = guard.Deadline
	LimitCanceled LimitKind = guard.Canceled
)

// ColumnarMode was the kernel selector of Config.Columnar.
//
// Deprecated: no engine reads it; Config.PathCacheBytes picks the kernel.
type ColumnarMode int

const (
	// Deprecated: ignored, like every ColumnarMode.
	ColumnarAuto ColumnarMode = iota
	// Deprecated: ignored; Config{PathCacheBytes: -1} selects the scalar
	// reference loop.
	ColumnarOff
)

// streamBatch bounds a batch's groups (one columnar batch each) and how
// many pending documents per worker MatchStream takes into one wave. The
// stream never waits to fill a wave — it takes whatever is immediately
// available, so an idle stream keeps single-document latency.
const streamBatch = 32

// AttributeMode selects when attribute filters are evaluated (§5).
type AttributeMode int

const (
	// InlineAttributes attaches filters to the structural predicates, so
	// they are checked during predicate matching. Best when many
	// expressions match structurally.
	InlineAttributes AttributeMode = iota
	// PostponedAttributes verifies filters only after an expression
	// matched structurally ("selection postponed"). Best when few
	// expressions match structurally.
	PostponedAttributes
)

// Config configures an Engine. The zero value is ready to use.
type Config struct {
	AttributeMode AttributeMode
	// PathCacheBytes picks the matching kernel. A negative value selects
	// the paper's scalar per-expression loop under its best organization
	// (basic-pc-ap: prefix covers and access-predicate clusters, §4.2.2),
	// the reference the equivalence tests and the benchmark oracle compare
	// against. Any other value selects the served kernel: bit columns of
	// expressions, so matching cost scales with words(|expressions|/64)
	// instead of |expressions|, behind a structural path-signature cache
	// that memoizes per-path matching results across documents (documents
	// generated from one DTD repeat the same root-to-leaf tag sequences)
	// and is bounded by this value, 0 selecting the default bound (16
	// MiB). Value-dependent work (attribute filters, nested path filters)
	// is always re-verified against the live document, so neither the
	// kernel nor the cache changes match results.
	PathCacheBytes int64
	// SlowDocThreshold, when positive, emits one structured log record
	// (via Logger) for every document whose parse+match time reaches the
	// threshold, annotated with the per-stage breakdown. Slow documents
	// are also counted in the slow_docs metric.
	SlowDocThreshold time.Duration
	// Logger receives slow-document records; nil selects slog.Default().
	Logger *slog.Logger
	// Limits bounds per-document resource use: structural limits (depth,
	// paths, tuples, bytes) enforced while parsing, and a match budget
	// (occurrence-determination steps, wall-clock deadline) enforced while
	// matching. Exceeding a limit returns a typed *LimitError; the zero
	// value enforces nothing.
	Limits Limits
	// Columnar is ignored.
	//
	// Deprecated: PathCacheBytes picks the kernel.
	Columnar ColumnarMode
}

// Engine is the filtering engine. Every engine carries an always-on
// metric set (see Stats and WriteMetrics); recording follows the
// zero-allocation contract of internal/metrics, so there is no
// instrumentation toggle.
type Engine struct {
	m      *matcher.Matcher
	mx     *metrics.Set
	logger *slog.Logger
	slow   time.Duration
	limits Limits
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	mode := predicate.Inline
	if cfg.AttributeMode == PostponedAttributes {
		mode = predicate.Postponed
	}
	mx := metrics.NewSet()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	e := &Engine{
		m: matcher.New(matcher.Options{
			Variant:        matcher.PrefixCoverAP,
			AttrMode:       mode,
			PathCacheBytes: cfg.PathCacheBytes,
			Metrics:        mx,
		}),
		mx:     mx,
		logger: logger,
		slow:   cfg.SlowDocThreshold,
		limits: cfg.Limits,
	}
	mx.ReadGauges = e.gauges
	return e
}

// Limits returns the engine's configured resource limits.
func (e *Engine) Limits() Limits { return e.limits }

// Validate reports whether the expression is within the supported
// fragment, without registering it.
func Validate(xpe string) error {
	p, err := xpath.Parse(xpe)
	if err != nil {
		return err
	}
	probe := matcher.New(matcher.Options{})
	_, err = probe.AddPath(p)
	return err
}

// Explain returns the predicate encoding of a single-path expression in
// the paper's notation, e.g.
//
//	Explain("a//b/c")  →  "(d(p_a, p_b), >=, 1) ↦ (d(p_b, p_c), =, 1)"
//
// Nested-path expressions are explained per decomposed sub-expression.
func Explain(xpe string) (string, error) {
	p, err := xpath.Parse(xpe)
	if err != nil {
		return "", err
	}
	if p.IsSinglePath() {
		enc, err := predicate.Encode(p, predicate.Inline)
		if err != nil {
			return "", err
		}
		return enc.String(), nil
	}
	return matcher.ExplainNested(p)
}

// Add registers an XPath expression and returns its identifier. Duplicate
// expressions get distinct identifiers but share storage and evaluation.
func (e *Engine) Add(xpe string) (SID, error) { return e.m.Add(xpe) }

// AddWithSID registers an expression under a caller-chosen identifier.
// It exists for callers that assign identifiers externally — durable
// stores replaying persisted subscriptions, and cluster shards holding a
// coordinator-assigned (sparse) subset of a global identifier space. The
// SID must not be live; plain Add continues past the highest SID ever
// bound, so external and locally assigned identifiers never collide.
func (e *Engine) AddWithSID(xpe string, sid SID) error { return e.m.AddWithSID(xpe, sid) }

// AddAll registers a batch of expressions, returning their identifiers in
// order. On error, the expressions before the failing one remain
// registered.
func (e *Engine) AddAll(xpes []string) ([]SID, error) {
	sids := make([]SID, 0, len(xpes))
	for _, s := range xpes {
		sid, err := e.m.Add(s)
		if err != nil {
			return sids, err
		}
		sids = append(sids, sid)
	}
	return sids, nil
}

// Remove unregisters an expression identifier. Shared storage serving
// other identifiers is unaffected.
func (e *Engine) Remove(sid SID) error { return e.m.Remove(sid) }

// Match parses the document and returns the identifiers of all matching
// expressions (an expression matches the document iff its evaluation over
// the document is a non-empty node set). Configured limits are enforced;
// Match is MatchContext without caller-side cancellation.
func (e *Engine) Match(doc []byte) ([]SID, error) {
	return e.MatchContext(context.Background(), doc)
}

// MatchContext is Match under the caller's context and the engine's
// configured limits: the document is parsed under the structural limits
// and matched under the step budget, the configured deadline, and the
// context's own deadline/cancellation. Each root-to-leaf path is matched
// as its leaf closes in the scan; a parse error anywhere in the document
// still beats a budget trip. A governance stop returns a typed *LimitError
// (never a partial result); ctx-originated stops additionally unwrap to
// the matching context error.
func (e *Engine) MatchContext(ctx context.Context, doc []byte) ([]SID, error) {
	d, err := e.scan(ctx, matcher.ScanDoc{Doc: doc})
	return d.SIDs, err
}

// scan matches one document as it is scanned, with d's options, under the
// engine's limits and ctx (see MatchScanned).
func (e *Engine) scan(ctx context.Context, d matcher.ScanDoc) (matcher.ScanDoc, error) {
	d.Bud = guard.NewBudget(ctx, e.limits)
	docs := [1]matcher.ScanDoc{d}
	e.m.MatchScanned(docs[:], e.limits)
	return docs[0], e.scanned(ctx, &docs[0])
}

// scanned counts a scanned document's limit trip or logs it when slow,
// returning its error.
func (e *Engine) scanned(ctx context.Context, d *matcher.ScanDoc) error {
	if d.Err != nil {
		return e.recordGovernance(d.Err)
	}
	e.maybeLogSlow(ctx, d.Parse, d.Match, int(d.Scan.Bytes), d.Scan.Paths, d.Matches())
	return nil
}

// recordGovernance counts a limit trip when err is a *LimitError and
// returns err unchanged.
func (e *Engine) recordGovernance(err error) error {
	var le *LimitError
	if errors.As(err, &le) {
		e.mx.ObserveLimitTrip(int(le.Kind))
	}
	return err
}

// MatchCountsContext returns, for every matching expression, the number of
// distinct match combinations (the all-matches problem Index-Filter
// originally targets; the filtering semantics of Match needs only
// existence and is cheaper), under the caller's context and the engine's
// configured limits. Exhaustive combination enumeration keeps searching
// where filtering stops at the first match, so it is the pipeline path
// that needs governance most: the document is scanned under the
// structural limits and every occurrence pair the enumeration visits is
// charged to the step budget. A governance stop returns a typed
// *LimitError (never partial counts).
func (e *Engine) MatchCountsContext(ctx context.Context, doc []byte) (map[SID]int, error) {
	d, err := e.scan(ctx, matcher.ScanDoc{Doc: doc, Count: true})
	return d.Counts, err
}

// Document is a pre-parsed document, reusable across engines.
type Document struct {
	doc *xmldoc.Document
}

// ParseDocument decomposes a document once so it can be matched against
// several engines without re-parsing.
func ParseDocument(data []byte) (*Document, error) {
	d, err := xmldoc.Parse(data)
	if err != nil {
		return nil, err
	}
	return &Document{doc: d}, nil
}

// Elements returns the document's element count.
func (d *Document) Elements() int { return d.doc.Elements }

// Paths returns the document's root-to-leaf path count.
func (d *Document) Paths() int { return len(d.doc.Paths) }

// MatchParsedContext matches a pre-parsed document under the engine's
// match budget and the caller's context (the parse-stage limits do not
// apply — the document is already materialized). A limit trip is counted
// and a slow match logged, as for Match.
func (e *Engine) MatchParsedContext(ctx context.Context, d *Document) ([]SID, error) {
	sids, bd, err := e.m.MatchDocument(d.doc, guard.NewBudget(ctx, e.limits))
	if err != nil {
		return nil, e.recordGovernance(err)
	}
	e.maybeLogSlow(ctx, 0, bd.Total, 0, len(d.doc.Paths), len(sids))
	return sids, nil
}

// Stats summarizes engine state.
type Stats struct {
	// Expressions is the number of live registered identifiers.
	Expressions int
	// DistinctExpressions is the number of unique expressions after
	// dedup (textually different expressions with identical encodings
	// also collapse) that some live identifier subscribes to; it falls
	// when an expression's last identifier is removed.
	DistinctExpressions int
	// DistinctPredicates is the size of the shared predicate index; its
	// sublinear growth in Expressions is the paper's central overlap
	// observation.
	DistinctPredicates int
	// NestedExpressions counts those of DistinctExpressions with nested
	// path filters.
	NestedExpressions int
	// PathCache reports the structural path-signature cache activity;
	// zero-valued with Enabled false when the cache is disabled.
	PathCache PathCacheStats
	// Documents, DocErrors, DocBytes, Paths, Matches and SlowDocs are the
	// engine-lifetime pipeline counters (the counter half of the metric
	// set; WriteMetrics serves the same data in exposition form).
	Documents int64
	DocErrors int64
	DocBytes  int64
	Paths     int64
	Matches   int64
	SlowDocs  int64
	// ParseScanDocs counts documents parsed end-to-end by the zero-copy
	// scanner fast path; ParseFallbacks counts documents the fast path
	// handed to the encoding/xml fallback (malformed or out-of-subset
	// input).
	ParseScanDocs  int64
	ParseFallbacks int64
	// LimitTrips counts documents stopped by each governance limit, keyed
	// by the limit's stable snake_case name (depth, paths, tuples,
	// doc_bytes, steps, deadline, canceled). Only kinds that tripped at
	// least once appear.
	LimitTrips map[string]int64
	// Panics counts panics recovered by the isolation layer (stream
	// workers, HTTP handlers) instead of crashing the process.
	Panics int64
	// Columnar reports the columnar kernel's activity.
	Columnar ColumnarStats
	// Stages summarizes the per-stage latency histograms.
	Stages StageStats
}

// PathCacheStats summarizes the structural path-signature cache; the
// fields and HitRate are documented on metrics.PathCache.
type PathCacheStats = metrics.PathCache

// ColumnarStats summarizes the columnar batch matcher; the fields,
// Occupancy and AvgBatch are documented on metrics.Columnar.
type ColumnarStats = metrics.Columnar

// Stats returns engine statistics, read from one scrape of the metric
// set.
func (e *Engine) Stats() Stats {
	sc := e.mx.Scrape()
	out := Stats{
		Expressions: sc.Expressions, DistinctExpressions: sc.DistinctExpressions,
		DistinctPredicates: sc.DistinctPredicates, NestedExpressions: sc.NestedExpressions,
		PathCache: sc.PathCache,
		Documents: sc.DocsTotal, DocErrors: sc.DocErrors, DocBytes: sc.DocBytes,
		Paths: sc.PathsTotal, Matches: sc.MatchesTotal, SlowDocs: sc.SlowDocs,
		ParseScanDocs: sc.ParseScanDocs, ParseFallbacks: sc.ParseFallbackDocs,
		Panics: sc.Panics, Columnar: sc.Columnar,
		Stages: StageStats{summarize(sc.Parse), summarize(sc.Match), summarize(sc.WALAppend), summarize(sc.Snapshot)},
	}
	for k := guard.Kind(0); k < guard.NumKinds; k++ {
		if n := sc.LimitTrips[k]; n > 0 {
			if out.LimitTrips == nil {
				out.LimitTrips = make(map[string]int64)
			}
			out.LimitTrips[k.String()] = n
		}
	}
	return out
}
