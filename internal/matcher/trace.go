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
// comes from the served kernel (so tracing can never report a different
// answer than matching would); a second, deliberately slow pass over the
// same scan then re-evaluates every registered expression directly — no
// covering, no clustering, no path cache — and records, per candidate
// expression and per document path, which chain predicates produced
// occurrence pairs, which came up empty, and how hard occurrence
// determination had to search.
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
	// Stage costs of the authoritative match, in nanoseconds: the parse
	// and match (TotalNanos) stages MatchScanned observes, ScanDoc's Parse
	// and Match. TraceNanos, the explanation pass, is in neither.
	ParseNanos int64 `json:"parse_nanos,omitempty"`
	TotalNanos int64 `json:"total_nanos"`
	TraceNanos int64 `json:"trace_nanos"`
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

// explainer is the visitor of a traced document (ScanDoc.Explain): each
// path is matched by the served scratch first and then, unless the
// document's budget has tripped, explained in a second, deliberately slow
// pass — a fresh predicate-matching run, and every traced expression
// evaluated directly, without covers, clustering or the path cache. The
// pass runs under a fork of the budget (its own step allocation, the same
// wall clock), so its extra search can never pin a worker on a document
// the served match would have rejected, nor trip the served match.
type explainer struct {
	m      *Matcher
	sc     *scratch
	x      scratch       // the pass's predicate results and filter buffers
	bud    *guard.Budget // a fork of sc.bud
	traced []*expr       // the expressions tr.Exprs explains, in order
	direct []bool        // per traced expression: matched some path directly
	tr     *Trace
	took   time.Duration
}

// newExplainer starts a traced document: every distinct registered
// expression with at least one live SID, in registration order, up to the
// cap. Callers hold the read lock with the derived state caught up.
func (m *Matcher) newExplainer(sc *scratch) *explainer {
	x := &explainer{
		m:   m,
		sc:  sc,
		x:   scratch{res: predindex.NewResults(m.ix.Len())},
		bud: sc.bud.Fork(),
		tr:  &Trace{},
	}
	for _, e := range m.exprs {
		if len(m.sids(e.id)) == 0 {
			continue
		}
		if len(x.traced) == MaxTraceExprs {
			x.tr.TruncatedExprs = true
			break
		}
		x.traced = append(x.traced, e)
	}
	x.direct = make([]bool, len(x.traced))
	x.tr.Exprs = make([]ExprTrace, len(x.traced))
	for i, e := range x.traced {
		et := &x.tr.Exprs[i]
		et.SIDs = append([]SID(nil), m.sids(e.id)...)
		if e.root != nil {
			et.Nested = true
			et.Expr = e.nsrc
		} else {
			et.Expr = m.exprString(e)
		}
	}
	return x
}

// Path matches the path, then explains it.
func (x *explainer) Path(pub *xmldoc.Publication) {
	x.sc.Path(pub)
	if x.sc.bud.Exceeded() || !x.bud.CheckPoint() {
		return
	}
	t := time.Now()
	defer func() { x.took += time.Since(t) }()
	m := x.m
	x.x.pub = pub
	x.x.res.Reset(m.ix.Len())
	m.ix.MatchPath(pub, x.x.res, true)
	for i, e := range x.traced {
		if e.root != nil {
			continue
		}
		ev, direct := m.tracePath(&x.x, e, pub, x.bud)
		if x.bud.Exceeded() {
			return
		}
		x.direct[i] = x.direct[i] || direct
		if ev != nil && len(x.tr.Exprs[i].Paths) < maxTracePaths {
			x.tr.Exprs[i].Paths = append(x.tr.Exprs[i].Paths, *ev)
		}
	}
}

// Restart discards the evidence along with the served marks: the fallback
// explains every path again.
func (x *explainer) Restart() {
	x.sc.Restart()
	x.bud.Restart()
	x.x.res.Vals.Reset()
	clear(x.direct)
	for i := range x.tr.Exprs {
		x.tr.Exprs[i].Paths = nil
	}
}

// end completes the trace of the matched document d: each traced
// expression's verdict from d's SIDs, and d's stage costs. It returns the
// explanation pass's budget error instead, and no trace.
func (x *explainer) end(d *ScanDoc) (*Trace, error) {
	if err := x.bud.Err(); err != nil {
		return nil, err
	}
	matched := make(map[*expr]bool, len(d.SIDs))
	for _, sid := range d.SIDs {
		matched[x.m.sidOwner[sid]] = true
	}
	for i, e := range x.traced {
		et := &x.tr.Exprs[i]
		et.Matched = matched[e]
		et.ViaCover = e.root == nil && et.Matched && !x.direct[i]
	}
	tr := x.tr
	tr.Paths, tr.Matches = d.Scan.Paths, len(d.SIDs)
	tr.ParseNanos, tr.TotalNanos, tr.TraceNanos = d.Parse.Nanoseconds(), d.Match.Nanoseconds(), x.took.Nanoseconds()
	return tr, nil
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
		ok, depth, steps := occur.Determine(chain, bud, &sc.occBuf)
		ev.Matched, ev.MaxDepth, ev.Steps = ok, depth, steps
		if ok && e.post != nil {
			filtered, nonempty := m.filterChain(sc, e.pids, e.postTests, chain)
			if !nonempty {
				ev.Matched = false
				ev.FilteredOut = true
			} else {
				fok, fdepth, fsteps := occur.Determine(filtered, bud, &sc.occBuf)
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
