package bench

import (
	"fmt"
	"time"

	"predfilter/internal/fsmfilter"
	"predfilter/internal/indexfilter"
	"predfilter/internal/matcher"
	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xtrie"
	"predfilter/internal/yfilter"
)

// Algorithm names one engine configuration, in the paper's terminology.
type Algorithm string

// The algorithm configurations evaluated in §6.
const (
	AlgoBasic       Algorithm = "basic"
	AlgoPC          Algorithm = "basic-pc"
	AlgoPCAP        Algorithm = "basic-pc-ap"
	AlgoInline      Algorithm = "inline"       // basic-pc-ap with inline attribute filters
	AlgoPostponed   Algorithm = "sp"           // basic-pc-ap with selection-postponed filters
	AlgoYFilter     Algorithm = "yfilter"      // structural / selection-postponed NFA baseline
	AlgoIndexFilter Algorithm = "index-filter" // index-based baseline
	AlgoXFilterFSM  Algorithm = "xfilter-fsm"  // per-expression FSM (XFilter), no sharing
	AlgoXTrie       Algorithm = "xtrie"        // substring-trie baseline (XTrie)
)

// Result is one measured series point.
type Result struct {
	Algorithm Algorithm
	Exprs     int // registered expressions (with duplicates)

	// Per-document averages; Filter includes document parsing, matching
	// and result collection, as in the paper.
	Filter time.Duration
	Parse  time.Duration // parsing/encoding share (predicate engine only)
	Pred   time.Duration // predicate matching share (predicate engine only)
	Expr   time.Duration // expression matching share (predicate engine only)
	Other  time.Duration // result collection share (predicate engine only)

	// MatchedFrac is the average fraction of expressions matched per
	// document (the paper's "percentage of matched expressions").
	MatchedFrac float64

	// DistinctPreds is the predicate count of the shared index (predicate
	// engine only; the Figure 10 series).
	DistinctPreds int

	// Build is the total time to register all expressions (not part of
	// filter time, reported for completeness).
	Build time.Duration
}

func (r Result) String() string {
	return fmt.Sprintf("%-12s N=%-8d filter=%-12s match%%=%5.1f", r.Algorithm, r.Exprs, r.Filter, 100*r.MatchedFrac)
}

// RunPredicate measures one predicate-engine configuration over the
// workload.
func RunPredicate(variant matcher.Variant, mode predicate.AttrMode, w *Workload) (Result, error) {
	algo := Algorithm(variant.String())
	// PathCacheBytes < 0 selects the scalar loop: the figures compare the
	// paper's organizations, which only it runs.
	m := matcher.New(matcher.Options{Variant: variant, AttrMode: mode, PathCacheBytes: -1})
	b0 := time.Now()
	for _, s := range w.XPEs {
		if _, err := m.Add(s); err != nil {
			return Result{}, fmt.Errorf("bench: add %q: %w", s, err)
		}
	}
	build := time.Since(b0)

	var res Result
	var matched float64
	for _, raw := range w.Docs {
		t0 := time.Now()
		doc, err := xmldoc.Parse(raw)
		if err != nil {
			return Result{}, err
		}
		t1 := time.Now()
		sids, bd, _ := m.MatchDocument(doc, nil)
		t2 := time.Now()
		res.Parse += t1.Sub(t0)
		res.Filter += t2.Sub(t0)
		res.Pred += bd.PredMatch
		res.Expr += bd.ExprMatch
		res.Other += bd.Other
		matched += float64(len(sids))
	}
	n := time.Duration(len(w.Docs))
	res.Algorithm = algo
	res.Exprs = len(w.XPEs)
	res.Filter /= n
	res.Parse /= n
	res.Pred /= n
	res.Expr /= n
	res.Other /= n
	res.MatchedFrac = matched / float64(len(w.Docs)) / float64(len(w.XPEs))
	res.DistinctPreds = m.Stats().DistinctPredicates
	res.Build = build
	return res, nil
}

// RunYFilter measures the YFilter baseline over the workload.
func RunYFilter(w *Workload) (Result, error) {
	e := yfilter.New()
	b0 := time.Now()
	for _, s := range w.XPEs {
		if _, err := e.Add(s); err != nil {
			return Result{}, fmt.Errorf("bench: yfilter add %q: %w", s, err)
		}
	}
	build := time.Since(b0)

	var res Result
	var matched float64
	for _, raw := range w.Docs {
		t0 := time.Now()
		sids, err := e.Filter(raw)
		if err != nil {
			return Result{}, err
		}
		res.Filter += time.Since(t0)
		matched += float64(len(sids))
	}
	res.Algorithm = AlgoYFilter
	res.Exprs = len(w.XPEs)
	res.Filter /= time.Duration(len(w.Docs))
	res.MatchedFrac = matched / float64(len(w.Docs)) / float64(len(w.XPEs))
	res.Build = build
	return res, nil
}

// RunIndexFilter measures the Index-Filter baseline over the workload.
func RunIndexFilter(w *Workload) (Result, error) {
	e := indexfilter.New()
	b0 := time.Now()
	for _, s := range w.XPEs {
		if _, err := e.Add(s); err != nil {
			return Result{}, fmt.Errorf("bench: index-filter add %q: %w", s, err)
		}
	}
	build := time.Since(b0)

	var res Result
	var matched float64
	for _, raw := range w.Docs {
		t0 := time.Now()
		sids, err := e.Filter(raw)
		if err != nil {
			return Result{}, err
		}
		res.Filter += time.Since(t0)
		matched += float64(len(sids))
	}
	res.Algorithm = AlgoIndexFilter
	res.Exprs = len(w.XPEs)
	res.Filter /= time.Duration(len(w.Docs))
	res.MatchedFrac = matched / float64(len(w.Docs)) / float64(len(w.XPEs))
	res.Build = build
	return res, nil
}

// RunXFilterFSM measures the XFilter (per-expression FSM) baseline over
// the workload; it exists to quantify what expression sharing buys the
// other engines.
func RunXFilterFSM(w *Workload) (Result, error) {
	e := fsmfilter.New()
	b0 := time.Now()
	for _, s := range w.XPEs {
		if _, err := e.Add(s); err != nil {
			return Result{}, fmt.Errorf("bench: xfilter-fsm add %q: %w", s, err)
		}
	}
	build := time.Since(b0)

	var res Result
	var matched float64
	for _, raw := range w.Docs {
		t0 := time.Now()
		sids, err := e.Filter(raw)
		if err != nil {
			return Result{}, err
		}
		res.Filter += time.Since(t0)
		matched += float64(len(sids))
	}
	res.Algorithm = AlgoXFilterFSM
	res.Exprs = len(w.XPEs)
	res.Filter /= time.Duration(len(w.Docs))
	res.MatchedFrac = matched / float64(len(w.Docs)) / float64(len(w.XPEs))
	res.Build = build
	return res, nil
}

// RunXTrie measures the XTrie baseline over the workload.
func RunXTrie(w *Workload) (Result, error) {
	e := xtrie.New()
	b0 := time.Now()
	for _, s := range w.XPEs {
		if _, err := e.Add(s); err != nil {
			return Result{}, fmt.Errorf("bench: xtrie add %q: %w", s, err)
		}
	}
	build := time.Since(b0)

	var res Result
	var matched float64
	for _, raw := range w.Docs {
		t0 := time.Now()
		sids, err := e.Filter(raw)
		if err != nil {
			return Result{}, err
		}
		res.Filter += time.Since(t0)
		matched += float64(len(sids))
	}
	res.Algorithm = AlgoXTrie
	res.Exprs = len(w.XPEs)
	res.Filter /= time.Duration(len(w.Docs))
	res.MatchedFrac = matched / float64(len(w.Docs)) / float64(len(w.XPEs))
	res.Build = build
	return res, nil
}

// Run dispatches on the algorithm name.
func Run(a Algorithm, w *Workload) (Result, error) {
	switch a {
	case AlgoBasic:
		return RunPredicate(matcher.Basic, predicate.Inline, w)
	case AlgoPC:
		return RunPredicate(matcher.PrefixCover, predicate.Inline, w)
	case AlgoPCAP:
		return RunPredicate(matcher.PrefixCoverAP, predicate.Inline, w)
	case AlgoInline:
		r, err := RunPredicate(matcher.PrefixCoverAP, predicate.Inline, w)
		r.Algorithm = AlgoInline
		return r, err
	case AlgoPostponed:
		r, err := RunPredicate(matcher.PrefixCoverAP, predicate.Postponed, w)
		r.Algorithm = AlgoPostponed
		return r, err
	case AlgoYFilter:
		return RunYFilter(w)
	case AlgoIndexFilter:
		return RunIndexFilter(w)
	case AlgoXFilterFSM:
		return RunXFilterFSM(w)
	case AlgoXTrie:
		return RunXTrie(w)
	}
	return Result{}, fmt.Errorf("bench: unknown algorithm %q", a)
}
