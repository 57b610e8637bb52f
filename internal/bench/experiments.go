package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"predfilter/internal/dtd"
	"predfilter/internal/xmldoc"
)

// Scale shrinks the paper-scale experiments to laptop budgets. Docs is the
// document count per DTD (paper: 500) and Factor multiplies every
// expression count (paper: 1.0, up to 5 million expressions).
type Scale struct {
	Name   string
	Docs   int
	Factor float64
}

// The predefined scales.
var (
	// Smoke is for CI-style sanity runs.
	Smoke = Scale{Name: "smoke", Docs: 10, Factor: 0.01}
	// Default reproduces every shape at ~10% of paper scale.
	Default = Scale{Name: "default", Docs: 50, Factor: 0.1}
	// Full is the paper's scale (500 documents, millions of expressions).
	Full = Scale{Name: "full", Docs: 500, Factor: 1}
)

// ScaleByName resolves a scale name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "smoke":
		return Smoke, nil
	case "default", "":
		return Default, nil
	case "full":
		return Full, nil
	}
	return Scale{}, fmt.Errorf("bench: unknown scale %q (smoke, default, full)", name)
}

func (s Scale) exprs(n int) int {
	v := int(float64(n) * s.Factor)
	if v < 100 {
		v = 100
	}
	return v
}

// smallExprs is for experiments whose paper-scale counts are already
// laptop-friendly (Figure 6): they run at paper scale except under the
// smoke scale.
func (s Scale) smallExprs(n int) int {
	if s.Name == "smoke" {
		v := n / 50
		if v < 100 {
			v = 100
		}
		return v
	}
	return n
}

// Point is one measured series point of an experiment.
type Point struct {
	Series string
	X      float64 // expression count, probability, or filter count
	XLabel string
	R      Result
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale, progress io.Writer) ([]Point, error)
}

// Experiments is the registry, in paper order.
var Experiments = []Experiment{
	{ID: "table1", Title: "Table 1: predicate matching results for a//b/c and c//b//a over (a,b,c,a,b,c)", Run: runTable1},
	{ID: "fig6a", Title: "Figure 6(a): varying the number of distinct XPEs, NITF (25k-125k)", Run: runFig6a},
	{ID: "fig6b", Title: "Figure 6(b): varying the number of distinct XPEs, PSD (1k-10k)", Run: runFig6b},
	{ID: "fig7", Title: "Figure 7: duplicate expression workload, PSD (0.5M-5M)", Run: runFig7},
	{ID: "fig7nitf", Title: "Figure 7 (companion): duplicate expression workload, NITF (0.5M-5M)", Run: runFig7NITF},
	{ID: "fig8w", Title: "Figure 8: varying the wildcard probability, NITF, 2M expressions", Run: runFig8W},
	{ID: "fig8do", Title: "Figure 8 (companion): varying the descendant probability, NITF, 2M expressions", Run: runFig8DO},
	{ID: "fig9a", Title: "Figure 9(a): attribute filters per expression, NITF", Run: runFig9a},
	{ID: "fig9b", Title: "Figure 9(b): attribute filters per expression, PSD", Run: runFig9b},
	{ID: "fig10", Title: "Figure 10: cost breakdown of predicate vs expression matching, NITF (1M-5M)", Run: runFig10},
	{ID: "parse", Title: "§6.5: document parsing time is negligible (paper: 314/355 µs)", Run: runParse},
	{ID: "sharing", Title: "Extension: what sharing buys — per-expression FSMs (XFilter) vs shared NFA (YFilter) vs shared predicates", Run: runSharing},
	{ID: "space", Title: "Extension: the whole solution space — predicate engine vs YFilter, XTrie, Index-Filter and XFilter", Run: runSpace},
}

// ExperimentByID resolves an experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

func progressf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// sweep measures the listed algorithms over workloads with varying
// expression counts. small marks experiments whose paper counts already
// fit a laptop (they only shrink under the smoke scale).
func sweep(d *dtd.DTD, counts []int, base WorkloadConfig, algos []Algorithm, s Scale, small bool, progress io.Writer) ([]Point, error) {
	var points []Point
	for _, n := range counts {
		cfg := base
		cfg.Docs = s.Docs
		if small {
			cfg.Exprs = s.smallExprs(n)
		} else {
			cfg.Exprs = s.exprs(n)
		}
		w, err := NewWorkload(d, cfg)
		if err != nil {
			return nil, err
		}
		for _, a := range algos {
			r, err := Run(a, w)
			if err != nil {
				return nil, err
			}
			progressf(progress, "  %-14s N=%-9d filter=%v\n", a, cfg.Exprs, r.Filter)
			points = append(points, Point{Series: string(a), X: float64(cfg.Exprs), XLabel: "expressions", R: r})
		}
	}
	return points, nil
}

var fiveEngines = []Algorithm{AlgoBasic, AlgoPC, AlgoPCAP, AlgoYFilter, AlgoIndexFilter}

func runFig6a(s Scale, progress io.Writer) ([]Point, error) {
	base := DefaultWorkloadConfig(0)
	return sweep(dtd.NITF(), []int{25000, 50000, 75000, 100000, 125000}, base, fiveEngines, s, true, progress)
}

func runFig6b(s Scale, progress io.Writer) ([]Point, error) {
	base := DefaultWorkloadConfig(0)
	// PSD saturates around 10k distinct expressions (as in the paper);
	// keep counts within reach of the generator.
	return sweep(dtd.PSD(), []int{1000, 2500, 5000, 7500, 10000}, base, fiveEngines, s, true, progress)
}

func dupCounts() []int { return []int{500000, 1000000, 2000000, 3500000, 5000000} }

func runFig7(s Scale, progress io.Writer) ([]Point, error) {
	base := DefaultWorkloadConfig(0)
	base.Distinct = false
	return sweep(dtd.PSD(), dupCounts(), base, fiveEngines, s, false, progress)
}

func runFig7NITF(s Scale, progress io.Writer) ([]Point, error) {
	base := DefaultWorkloadConfig(0)
	base.Distinct = false
	return sweep(dtd.NITF(), dupCounts(), base, fiveEngines, s, false, progress)
}

// runFig8 varies one probability knob.
func runFig8(s Scale, progress io.Writer, wildcard bool, algos []Algorithm) ([]Point, error) {
	var points []Point
	probs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	for _, p := range probs {
		cfg := DefaultWorkloadConfig(s.exprs(2000000))
		cfg.Docs = s.Docs
		cfg.Distinct = false
		if wildcard {
			cfg.Wildcard = p
		} else {
			cfg.Descendant = p
		}
		w, err := NewWorkload(dtd.NITF(), cfg)
		if err != nil {
			return nil, err
		}
		for _, a := range algos {
			r, err := Run(a, w)
			if err != nil {
				return nil, err
			}
			progressf(progress, "  %-14s p=%.1f filter=%v preds=%d\n", a, p, r.Filter, r.DistinctPreds)
			points = append(points, Point{Series: string(a), X: p, XLabel: "probability", R: r})
		}
	}
	return points, nil
}

func runFig8W(s Scale, progress io.Writer) ([]Point, error) {
	// The paper excludes Index-Filter from the wildcard sweep (§6.3): its
	// original description does not handle wildcards and the naive
	// interpretation blows up the index streams.
	return runFig8(s, progress, true, []Algorithm{AlgoPCAP, AlgoYFilter})
}

func runFig8DO(s Scale, progress io.Writer) ([]Point, error) {
	return runFig8(s, progress, false, []Algorithm{AlgoPCAP, AlgoYFilter, AlgoIndexFilter})
}

// runFig9 measures inline vs selection-postponed attribute filtering with
// 1 and 2 filters per expression, against YFilter's selection-postponed
// configuration.
func runFig9(d *dtd.DTD, s Scale, progress io.Writer) ([]Point, error) {
	var points []Point
	counts := []int{250000, 500000, 1000000, 2000000}
	for _, n := range counts {
		for _, filters := range []int{1, 2} {
			cfg := DefaultWorkloadConfig(s.exprs(n))
			cfg.Docs = s.Docs
			cfg.Distinct = false
			cfg.Filters = filters
			w, err := NewWorkload(d, cfg)
			if err != nil {
				return nil, err
			}
			for _, a := range []Algorithm{AlgoInline, AlgoPostponed, AlgoYFilter} {
				r, err := Run(a, w)
				if err != nil {
					return nil, err
				}
				series := fmt.Sprintf("%s-%d", a, filters)
				progressf(progress, "  %-14s N=%-9d filter=%v\n", series, cfg.Exprs, r.Filter)
				points = append(points, Point{Series: series, X: float64(cfg.Exprs), XLabel: "expressions", R: r})
			}
		}
	}
	return points, nil
}

func runFig9a(s Scale, progress io.Writer) ([]Point, error) {
	return runFig9(dtd.NITF(), s, progress)
}

func runFig9b(s Scale, progress io.Writer) ([]Point, error) {
	return runFig9(dtd.PSD(), s, progress)
}

func runFig10(s Scale, progress io.Writer) ([]Point, error) {
	var points []Point
	for _, n := range []int{1000000, 2000000, 3000000, 4000000, 5000000} {
		cfg := DefaultWorkloadConfig(s.exprs(n))
		cfg.Docs = s.Docs
		cfg.Distinct = false
		w, err := NewWorkload(dtd.NITF(), cfg)
		if err != nil {
			return nil, err
		}
		r, err := Run(AlgoPCAP, w)
		if err != nil {
			return nil, err
		}
		progressf(progress, "  N=%-9d pred=%v expr=%v other=%v distinct-preds=%d\n",
			cfg.Exprs, r.Pred, r.Expr, r.Other, r.DistinctPreds)
		points = append(points,
			Point{Series: "predicate-matching", X: float64(cfg.Exprs), XLabel: "expressions", R: withFilter(r, r.Pred)},
			Point{Series: "expression-matching", X: float64(cfg.Exprs), XLabel: "expressions", R: withFilter(r, r.Expr)},
			Point{Series: "other", X: float64(cfg.Exprs), XLabel: "expressions", R: withFilter(r, r.Other+r.Parse)},
		)
	}
	return points, nil
}

func withFilter(r Result, d time.Duration) Result {
	r.Filter = d
	return r
}

func runParse(s Scale, progress io.Writer) ([]Point, error) {
	var points []Point
	for _, d := range []*dtd.DTD{dtd.NITF(), dtd.PSD()} {
		cfg := DefaultWorkloadConfig(100)
		cfg.Docs = s.Docs
		w, err := NewWorkload(d, cfg)
		if err != nil {
			return nil, err
		}
		var total time.Duration
		for _, raw := range w.Docs {
			t0 := time.Now()
			if _, err := xmldoc.Parse(raw); err != nil {
				return nil, err
			}
			total += time.Since(t0)
		}
		avg := total / time.Duration(len(w.Docs))
		progressf(progress, "  %-5s avg parse %v\n", d.Name, avg)
		points = append(points, Point{Series: d.Name, X: float64(s.Docs), XLabel: "documents", R: Result{Algorithm: "parse", Filter: avg}})
	}
	return points, nil
}

// runSharing contrasts the no-sharing XFilter baseline with the two
// sharing designs on the overlap-heavy NITF workload (§2's motivating
// comparison: "XFilter ... is not able to adequately handle overlap").
func runSharing(s Scale, progress io.Writer) ([]Point, error) {
	base := DefaultWorkloadConfig(0)
	return sweep(dtd.NITF(), []int{25000, 50000, 100000}, base,
		[]Algorithm{AlgoXFilterFSM, AlgoYFilter, AlgoPCAP}, s, true, progress)
}

// runSpace compares every implemented system from the paper's related
// work (§2) on both workload regimes, including XTrie — the system the
// paper's §2 notes YFilter "has been demonstrated to have better
// performance [than] on certain workloads".
func runSpace(s Scale, progress io.Writer) ([]Point, error) {
	algos := []Algorithm{AlgoPCAP, AlgoYFilter, AlgoXTrie, AlgoIndexFilter, AlgoXFilterFSM}
	base := DefaultWorkloadConfig(0)
	nitf, err := sweep(dtd.NITF(), []int{50000}, base, algos, s, true, progress)
	if err != nil {
		return nil, err
	}
	psd, err := sweep(dtd.PSD(), []int{10000}, base, algos, s, true, progress)
	if err != nil {
		return nil, err
	}
	for i := range nitf {
		nitf[i].Series = "nitf/" + nitf[i].Series
	}
	for i := range psd {
		psd[i].Series = "psd/" + psd[i].Series
	}
	return append(nitf, psd...), nil
}

// runTable1 renders Table 1 via the predicate index (also covered by
// predindex.TestTable1); it reports no timing series.
func runTable1(s Scale, progress io.Writer) ([]Point, error) {
	progressf(progress, "%s", Table1Text())
	return nil, nil
}

// PrintPoints renders points as an aligned text table, grouped by series.
func PrintPoints(w io.Writer, points []Point) {
	if len(points) == 0 {
		return
	}
	bySeries := make(map[string][]Point)
	var order []string
	for _, p := range points {
		if _, ok := bySeries[p.Series]; !ok {
			order = append(order, p.Series)
		}
		bySeries[p.Series] = append(bySeries[p.Series], p)
	}
	for _, series := range order {
		pts := bySeries[series]
		sort.SliceStable(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		fmt.Fprintf(w, "%s:\n", series)
		for _, p := range pts {
			fmt.Fprintf(w, "  %-12s %-12.4g filter=%-14v match%%=%-7.2f preds=%d\n",
				p.XLabel, p.X, p.R.Filter, 100*p.R.MatchedFrac, p.R.DistinctPreds)
		}
	}
}
