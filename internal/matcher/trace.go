package matcher

import (
	"strings"
	"time"

	"predfilter/internal/guard"
	"predfilter/internal/occur"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
)

// Match tracing: a per-document explanation mode. The authoritative result
// comes from the normal matching path (so tracing can never report a
// different answer than matching would); a second, deliberately slow pass
// then re-evaluates every registered expression directly — no covering, no
// clustering, no path cache — and records, per candidate expression and
// per document path, which chain predicates produced occurrence pairs,
// which came up empty, and how hard occurrence determination had to search.
// The trace is the observable form of the paper's two-stage split: stage 1
// evidence is the per-predicate pair lists, stage 2 evidence is the
// occurrence-determination outcome over them.

const (
	// MaxTraceExprs bounds the number of expressions a trace explains;
	// traces are for debugging single documents, not for bulk workloads,
	// and an unbounded trace over a large subscription table would dwarf
	// the document.
	MaxTraceExprs = 256
	// maxTracePairs bounds the occurrence pairs reported per predicate
	// level (TotalPairs still reports the uncapped count).
	maxTracePairs = 8
	// maxTracePaths bounds the per-path evidence entries per expression.
	maxTracePaths = 16
)

// PredicateEval is the stage-1 evidence for one chain level on one path:
// the predicate (paper notation), whether it produced any occurrence
// pairs, and the pairs themselves (capped at maxTracePairs).
type PredicateEval struct {
	Predicate  string       `json:"predicate"`
	Hit        bool         `json:"hit"`
	Pairs      []occur.Pair `json:"pairs,omitempty"`
	TotalPairs int          `json:"total_pairs"`
}

// PathEvidence is one path's worth of evidence for one expression. It is
// recorded only for paths where at least one chain predicate hit; a path
// contributing nothing explains nothing.
type PathEvidence struct {
	Path string `json:"path"` // /t1/t2/.../tn
	// Predicates holds one entry per chain level, in chain order.
	Predicates []PredicateEval `json:"predicates"`
	// Matched reports whether occurrence determination found a chained
	// combination on this path (after postponed filters, if any).
	Matched bool `json:"matched"`
	// MaxDepth is the longest consistent chain prefix the search reached;
	// Steps counts the occurrence pairs it visited (search effort).
	MaxDepth int `json:"max_depth"`
	Steps    int `json:"steps"`
	// FilteredOut is set when the structural chain matched but a postponed
	// attribute filter emptied a level (§5, selection postponed).
	FilteredOut bool `json:"filtered_out,omitempty"`
}

// ExprTrace explains one registered expression against the document.
type ExprTrace struct {
	SIDs    []SID  `json:"sids"`
	Expr    string `json:"expr"` // predicate-chain notation (nested: source text)
	Matched bool   `json:"matched"`
	// ViaCover is set when the expression matched but no path's direct
	// evaluation succeeded: the match came from a covering relation
	// (prefix or containment) rather than its own occurrence
	// determination.
	ViaCover bool `json:"via_cover,omitempty"`
	// Nested marks nested-path expressions, which are summarized (their
	// per-path decomposition is reported by source text only).
	Nested bool           `json:"nested,omitempty"`
	Paths  []PathEvidence `json:"paths,omitempty"`
}

// Trace is the full per-document explanation, including the nanosecond
// cost of each pipeline stage from the authoritative matching pass and of
// the explanation pass itself.
type Trace struct {
	Paths   int `json:"paths"`
	Matches int `json:"matches"`
	// Stage costs of the authoritative match, in nanoseconds. ParseNanos
	// is zero here; the engine layer fills it in (a trace matches a
	// parsed document).
	ParseNanos     int64 `json:"parse_nanos,omitempty"`
	CacheNanos     int64 `json:"cache_nanos"`
	PredMatchNanos int64 `json:"pred_match_nanos"`
	OccurNanos     int64 `json:"occur_nanos"`
	TotalNanos     int64 `json:"total_nanos"`
	TraceNanos     int64 `json:"trace_nanos"`
	// Exprs explains every registered distinct expression, capped at
	// MaxTraceExprs (TruncatedExprs reports whether the cap was hit).
	Exprs          []ExprTrace `json:"exprs"`
	TruncatedExprs bool        `json:"truncated_exprs,omitempty"`
}

// exprString renders a single-path expression's predicate chain in the
// paper's notation: {P1; P2; ...}.
func (m *Matcher) exprString(e *expr) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, pid := range e.pids {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(m.ix.Pred(pid).String())
		if e.post != nil && (len(e.post[i].Left) > 0 || len(e.post[i].Right) > 0) {
			b.WriteString("+post")
		}
	}
	b.WriteByte('}')
	return b.String()
}

// MatchDocumentTraced matches the document normally and then produces the
// explanation trace. It is the slow path by design: per-path predicate
// matching reruns without the path cache and every expression is evaluated
// directly (covering relations are reported, not exploited).
func (m *Matcher) MatchDocumentTraced(doc *xmldoc.Document) ([]SID, *Trace) {
	sids, tr, _ := m.MatchDocumentTracedBudget(doc, nil)
	return sids, tr
}

// MatchDocumentTracedBudget is MatchDocumentTraced under a budget. The
// authoritative match is charged to bud directly; the explanation pass —
// which re-evaluates every expression without covers or the path cache,
// so it can spend far more search effort than the match it explains —
// runs under bud.Fork(): the step budget resets for the second pass while
// the wall-clock deadline and cancellation carry over. Either pass
// tripping returns the typed *guard.LimitError with no partial trace. A
// nil budget is unlimited and never errors.
func (m *Matcher) MatchDocumentTracedBudget(doc *xmldoc.Document, bud *guard.Budget) ([]SID, *Trace, error) {
	t0 := time.Now()
	sids, bd, err := m.MatchDocumentBudget(doc, bud)
	if err != nil {
		return nil, nil, err
	}

	tr := &Trace{
		Paths:          len(doc.Paths),
		Matches:        len(sids),
		CacheNanos:     bd.Cache.Nanoseconds(),
		PredMatchNanos: bd.PredMatch.Nanoseconds(),
		OccurNanos:     (bd.ExprMatch + bd.Other).Nanoseconds(),
		TotalNanos:     time.Since(t0).Nanoseconds(),
	}

	t1 := time.Now()
	// Of the derived state the explanation reads the value dictionary's
	// ranks only; a registration since the match above is caught up here.
	m.ensureKernel()
	defer m.mu.RUnlock()

	matched := make(map[*expr]bool, len(sids))
	for _, sid := range sids {
		if int(sid) < len(m.sidOwner) && m.sidOwner[sid] != nil {
			matched[m.sidOwner[sid]] = true
		}
	}

	// Traced expressions: every distinct registered expression with at
	// least one live SID, in registration order, up to the cap.
	var traced []*expr
	for _, e := range m.exprs {
		if len(m.sids(e.id)) == 0 {
			continue
		}
		if len(traced) == MaxTraceExprs {
			tr.TruncatedExprs = true
			break
		}
		traced = append(traced, e)
	}

	tr.Exprs = make([]ExprTrace, len(traced))
	for i, e := range traced {
		et := &tr.Exprs[i]
		et.SIDs = append([]SID(nil), m.sids(e.id)...)
		et.Matched = matched[e]
		if e.root != nil {
			et.Nested = true
			et.Expr = e.nsrc
		} else {
			et.Expr = m.exprString(e)
		}
	}

	// Explanation pass: one fresh predicate-matching run per path, shared
	// by all traced expressions of that path.
	sc := &scratch{
		res:   predindex.NewResults(m.ix.Len()),
		byTag: make(map[string][]*xmldoc.Tuple),
	}
	tb := bud.Fork()
	directMatch := make([]bool, len(traced))
	for p := range doc.Paths {
		if !tb.CheckPoint() {
			return nil, nil, tb.Err()
		}
		pub := &doc.Paths[p]
		sc.pub = pub
		sc.byTagOK = false
		sc.res.Reset(m.ix.Len())
		m.ix.MatchPath(pub, sc.res)
		for i, e := range traced {
			if e.root != nil {
				continue
			}
			ev, direct := m.tracePath(sc, e, pub, tb)
			if tb.Exceeded() {
				return nil, nil, tb.Err()
			}
			if direct {
				directMatch[i] = true
			}
			if ev != nil && len(tr.Exprs[i].Paths) < maxTracePaths {
				tr.Exprs[i].Paths = append(tr.Exprs[i].Paths, *ev)
			}
		}
	}
	for i, e := range traced {
		if e.root == nil && tr.Exprs[i].Matched && !directMatch[i] {
			tr.Exprs[i].ViaCover = true
		}
	}
	tr.TraceNanos = time.Since(t1).Nanoseconds()
	return sids, tr, nil
}

// tracePath evaluates one single-path expression directly against one
// path's predicate results, returning the evidence (nil when no chain
// predicate hit — the path explains nothing) and whether the expression
// matched this path directly. The occurrence searches are charged to bud;
// when it trips the returned evidence is partial and the caller must
// discard it and surface bud.Err.
func (m *Matcher) tracePath(sc *scratch, e *expr, pub *xmldoc.Publication, bud *guard.Budget) (*PathEvidence, bool) {
	anyHit := false
	allHit := true
	evals := make([]PredicateEval, len(e.pids))
	chain := make([][]occur.Pair, 0, len(e.pids))
	for i, pid := range e.pids {
		pairs := sc.res.Get(pid)
		pe := &evals[i]
		pe.Predicate = m.ix.Pred(pid).String()
		pe.TotalPairs = len(pairs)
		if len(pairs) > 0 {
			pe.Hit = true
			anyHit = true
			n := len(pairs)
			if n > maxTracePairs {
				n = maxTracePairs
			}
			pe.Pairs = append([]occur.Pair(nil), pairs[:n]...)
		} else {
			allHit = false
		}
		chain = append(chain, pairs)
	}
	if !anyHit {
		return nil, false
	}
	ev := &PathEvidence{Path: pub.String(), Predicates: evals}
	if allHit {
		ok, depth, steps := occur.DetermineStepsBudget(chain, bud)
		ev.Matched, ev.MaxDepth, ev.Steps = ok, depth, steps
		if ok && e.post != nil {
			filtered, nonempty := m.filterChain(sc, e.pids, e.postTests, chain)
			if !nonempty {
				ev.Matched = false
				ev.FilteredOut = true
			} else {
				fok, fdepth, fsteps := occur.DetermineStepsBudget(filtered, bud)
				ev.Steps += fsteps
				if !fok {
					ev.Matched = false
					ev.FilteredOut = true
					ev.MaxDepth = fdepth
				}
			}
		}
	}
	return ev, ev.Matched
}
