// Benchmarks, one per table and figure of the paper's evaluation (§6).
// Each benchmark times one filtered document (parse + predicate matching +
// expression matching + result collection, as in the paper) at a reduced
// but shape-preserving workload size; cmd/xfbench runs the same
// experiments as full sweeps, up to paper scale with -scale full.
package predfilter_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"predfilter"
	"predfilter/internal/bench"
	"predfilter/internal/dtd"
	"predfilter/internal/fsmfilter"
	"predfilter/internal/indexfilter"
	"predfilter/internal/matcher"
	"predfilter/internal/occur"
	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xtrie"
	"predfilter/internal/yfilter"
)

const benchDocs = 10

// benchWorkload builds a deterministic workload for benchmarks.
func benchWorkload(b *testing.B, d *dtd.DTD, exprs int, mutate func(*bench.WorkloadConfig)) *bench.Workload {
	b.Helper()
	cfg := bench.DefaultWorkloadConfig(exprs)
	cfg.Docs = benchDocs
	if mutate != nil {
		mutate(&cfg)
	}
	w, err := bench.NewWorkload(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// benchPredicate times the predicate engine, one document per iteration.
func benchPredicate(b *testing.B, w *bench.Workload, v matcher.Variant, mode predicate.AttrMode) {
	m := matcher.New(matcher.Options{Variant: v, AttrMode: mode})
	for _, s := range w.XPEs {
		if _, err := m.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	docs, err := w.ParseDocs()
	if err != nil {
		b.Fatal(err)
	}
	// Warm (freeze the organizations outside the timed loop).
	m.MatchDocument(docs[0], nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchDocument(docs[i%len(docs)], nil)
	}
}

func benchYFilter(b *testing.B, w *bench.Workload) {
	e := yfilter.New()
	for _, s := range w.XPEs {
		if _, err := e.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Filter(w.Docs[i%len(w.Docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchIndexFilter(b *testing.B, w *bench.Workload) {
	e := indexfilter.New()
	for _, s := range w.XPEs {
		if _, err := e.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Filter(w.Docs[i%len(w.Docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// fiveWays runs the five §6.2 engine configurations as sub-benchmarks.
func fiveWays(b *testing.B, w *bench.Workload) {
	b.Run("basic", func(b *testing.B) { benchPredicate(b, w, matcher.Basic, predicate.Inline) })
	b.Run("basic-pc", func(b *testing.B) { benchPredicate(b, w, matcher.PrefixCover, predicate.Inline) })
	b.Run("basic-pc-ap", func(b *testing.B) { benchPredicate(b, w, matcher.PrefixCoverAP, predicate.Inline) })
	b.Run("yfilter", func(b *testing.B) { benchYFilter(b, w) })
	b.Run("index-filter", func(b *testing.B) { benchIndexFilter(b, w) })
}

// BenchmarkFig6aNITFDistinct is Figure 6(a): distinct expressions on the
// selective NITF workload (paper: 25k-125k; here 25k).
func BenchmarkFig6aNITFDistinct(b *testing.B) {
	w := benchWorkload(b, dtd.NITF(), 25000, nil)
	fiveWays(b, w)
}

// BenchmarkFig6bPSDDistinct is Figure 6(b): distinct expressions on the
// high-match PSD workload (paper: 1k-10k; here 5k).
func BenchmarkFig6bPSDDistinct(b *testing.B) {
	w := benchWorkload(b, dtd.PSD(), 5000, nil)
	fiveWays(b, w)
}

// BenchmarkFig7PSDDuplicates is Figure 7: a duplicate-heavy workload
// (paper: 0.5M-5M; here 100k with duplicates allowed).
func BenchmarkFig7PSDDuplicates(b *testing.B) {
	w := benchWorkload(b, dtd.PSD(), 100000, func(c *bench.WorkloadConfig) { c.Distinct = false })
	fiveWays(b, w)
}

// BenchmarkFig8Wildcard is Figure 8: the wildcard probability sweep
// (paper: W 0-0.9 at 2M expressions; here three W points at 50k).
// Index-Filter is excluded, as in the paper.
func BenchmarkFig8Wildcard(b *testing.B) {
	for _, wp := range []float64{0, 0.3, 0.9} {
		w := benchWorkload(b, dtd.NITF(), 50000, func(c *bench.WorkloadConfig) {
			c.Distinct = false
			c.Wildcard = wp
		})
		b.Run(fmt.Sprintf("W=%.1f/basic-pc-ap", wp), func(b *testing.B) {
			benchPredicate(b, w, matcher.PrefixCoverAP, predicate.Inline)
		})
		b.Run(fmt.Sprintf("W=%.1f/yfilter", wp), func(b *testing.B) { benchYFilter(b, w) })
	}
}

// BenchmarkFig8Descendant is the companion descendant-operator sweep.
func BenchmarkFig8Descendant(b *testing.B) {
	for _, do := range []float64{0, 0.3, 0.9} {
		w := benchWorkload(b, dtd.NITF(), 50000, func(c *bench.WorkloadConfig) {
			c.Distinct = false
			c.Descendant = do
		})
		b.Run(fmt.Sprintf("DO=%.1f/basic-pc-ap", do), func(b *testing.B) {
			benchPredicate(b, w, matcher.PrefixCoverAP, predicate.Inline)
		})
		b.Run(fmt.Sprintf("DO=%.1f/yfilter", do), func(b *testing.B) { benchYFilter(b, w) })
		b.Run(fmt.Sprintf("DO=%.1f/index-filter", do), func(b *testing.B) { benchIndexFilter(b, w) })
	}
}

// attrWays runs the Figure 9 configurations: inline and selection
// postponed predicate evaluation against YFilter's selection-postponed
// mode, with 1 and 2 filters per expression.
func attrWays(b *testing.B, d *dtd.DTD) {
	for _, filters := range []int{1, 2} {
		w := benchWorkload(b, d, 25000, func(c *bench.WorkloadConfig) {
			c.Distinct = false
			c.Filters = filters
		})
		b.Run(fmt.Sprintf("inline-%d", filters), func(b *testing.B) {
			benchPredicate(b, w, matcher.PrefixCoverAP, predicate.Inline)
		})
		b.Run(fmt.Sprintf("sp-%d", filters), func(b *testing.B) {
			benchPredicate(b, w, matcher.PrefixCoverAP, predicate.Postponed)
		})
		b.Run(fmt.Sprintf("yfilter-%d", filters), func(b *testing.B) { benchYFilter(b, w) })
	}
}

// BenchmarkFig9aNITFFilters is Figure 9(a): attribute filters on NITF.
func BenchmarkFig9aNITFFilters(b *testing.B) { attrWays(b, dtd.NITF()) }

// BenchmarkFig9bPSDFilters is Figure 9(b): attribute filters on PSD.
func BenchmarkFig9bPSDFilters(b *testing.B) { attrWays(b, dtd.PSD()) }

// BenchmarkFig10Breakdown is Figure 10: the predicate- vs
// expression-matching cost split of the paper's scalar loop (path cache
// off, as xfbench -exp fig10 runs it), reported as custom metrics.
func BenchmarkFig10Breakdown(b *testing.B) {
	w := benchWorkload(b, dtd.NITF(), 100000, func(c *bench.WorkloadConfig) { c.Distinct = false })
	m := matcher.New(matcher.Options{Variant: matcher.PrefixCoverAP, PathCacheBytes: -1})
	for _, s := range w.XPEs {
		if _, err := m.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	docs, err := w.ParseDocs()
	if err != nil {
		b.Fatal(err)
	}
	m.MatchDocument(docs[0], nil)
	var pred, expr, other float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, bd, _ := m.MatchDocument(docs[i%len(docs)], nil)
		pred += float64(bd.PredMatch.Nanoseconds())
		expr += float64(bd.ExprMatch.Nanoseconds())
		other += float64(bd.Other.Nanoseconds())
	}
	b.ReportMetric(pred/float64(b.N), "pred-ns/op")
	b.ReportMetric(expr/float64(b.N), "expr-ns/op")
	b.ReportMetric(other/float64(b.N), "other-ns/op")
	b.ReportMetric(float64(m.Stats().DistinctPredicates), "distinct-preds")
}

// BenchmarkParseOnly is the §6.5 parsing-cost claim: document parsing and
// path encoding are a negligible share of filter time (paper: 314/355 µs
// per document).
func BenchmarkParseOnly(b *testing.B) {
	for _, d := range []*dtd.DTD{dtd.NITF(), dtd.PSD()} {
		w := benchWorkload(b, d, 100, nil)
		b.Run(d.Name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := xmldoc.Parse(w.Docs[i%len(w.Docs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1 times the predicate matching stage on the Table 1
// example (a micro-benchmark of the shared predicate index).
func BenchmarkTable1(b *testing.B) {
	ix := bench.Table1Index()
	doc := xmldoc.FromPaths([]string{"a", "b", "c", "a", "b", "c"})
	res := predindex.NewResults(ix.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Reset(ix.Len())
		ix.MatchPath(&doc.Paths[0], res, true)
	}
}

// BenchmarkAblationODFirstVsAll compares the occurrence determination
// early exit (the paper's matching semantic needs one match) against
// counting every combination (what an all-matches engine pays: a forward
// pass over saturating counts, occur.Support at the last level).
func BenchmarkAblationODFirstVsAll(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	chains := make([][][]occur.Pair, 64)
	for i := range chains {
		n := 2 + rng.Intn(4)
		chain := make([][]occur.Pair, n)
		for j := range chain {
			k := 1 + rng.Intn(6)
			for p := 0; p < k; p++ {
				chain[j] = append(chain[j], occur.Pair{A: int32(1 + rng.Intn(4)), B: int32(1 + rng.Intn(4))})
			}
		}
		chains[i] = chain
	}
	b.Run("first-match", func(b *testing.B) {
		var buf []uint64
		for i := 0; i < b.N; i++ {
			occur.Determine(chains[i%len(chains)], nil, &buf)
		}
	})
	b.Run("all-matches", func(b *testing.B) {
		var buf []uint64
		on := make([]uint64, 6)
		for i := 0; i < b.N; i++ {
			chain := chains[i%len(chains)]
			last := len(chain) - 1
			occur.Support(chain, last, on[:len(chain[last])], nil, &buf)
		}
	})
}

// BenchmarkAblationPathDedup measures the per-document effect of
// deduplicating structurally identical root-to-leaf paths (an
// implementation addition on top of the paper; see DESIGN.md).
func BenchmarkAblationPathDedup(b *testing.B) {
	w := benchWorkload(b, dtd.NITF(), 25000, nil)
	for _, dedup := range []bool{true, false} {
		name := "on"
		if !dedup {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			m := matcher.New(matcher.Options{Variant: matcher.PrefixCoverAP, DisablePathDedup: !dedup})
			for _, s := range w.XPEs {
				if _, err := m.Add(s); err != nil {
					b.Fatal(err)
				}
			}
			docs, err := w.ParseDocs()
			if err != nil {
				b.Fatal(err)
			}
			m.MatchDocument(docs[0], nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MatchDocument(docs[i%len(docs)], nil)
			}
		})
	}
}

// BenchmarkAblationRegistration measures expression registration:
// duplicate-heavy registration exercises the dedup fast path (predicate
// and expression sharing), distinct registration the slow path.
func BenchmarkAblationRegistration(b *testing.B) {
	nitf := dtd.NITF()
	w := benchWorkload(b, nitf, 50000, func(c *bench.WorkloadConfig) { c.Distinct = false })
	b.Run("duplicate-heavy", func(b *testing.B) {
		m := matcher.New(matcher.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Add(w.XPEs[i%len(w.XPEs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	wd := benchWorkload(b, nitf, 50000, nil)
	b.Run("distinct", func(b *testing.B) {
		m := matcher.New(matcher.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Add(wd.XPEs[i%len(wd.XPEs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelMatch measures concurrent filtering throughput (the
// engine is read-only during matching, so document streams parallelize).
func BenchmarkParallelMatch(b *testing.B) {
	w := benchWorkload(b, dtd.NITF(), 25000, nil)
	m := matcher.New(matcher.Options{Variant: matcher.PrefixCoverAP})
	for _, s := range w.XPEs {
		if _, err := m.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	docs, err := w.ParseDocs()
	if err != nil {
		b.Fatal(err)
	}
	m.MatchDocument(docs[0], nil)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.MatchDocument(docs[i%len(docs)], nil)
			i++
		}
	})
}

// BenchmarkMatchStream measures batch filtering throughput through the
// worker pipeline (parse + match per document, results in input order).
// One iteration filters one document.
func BenchmarkMatchStream(b *testing.B) {
	w := benchWorkload(b, dtd.NITF(), 25000, nil)
	eng := predfilter.New(predfilter.Config{})
	for _, s := range w.XPEs {
		if _, err := eng.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	// Warm (freeze the organizations outside the timed loop).
	if _, err := eng.Match(w.Docs[0]); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(w.Docs) {
				for _, r := range eng.MatchBatchContext(context.Background(), w.Docs, workers) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkMatchCounts compares the filtering semantics (first match per
// expression) against the all-matches mode.
func BenchmarkMatchCounts(b *testing.B) {
	w := benchWorkload(b, dtd.PSD(), 5000, nil)
	eng := predfilter.New(predfilter.Config{})
	if _, err := eng.AddAll(w.XPEs); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		match func(doc []byte) error
	}{
		{"first-match", func(doc []byte) error { _, err := eng.MatchContext(ctx, doc); return err }},
		{"all-matches", func(doc []byte) error { _, err := eng.MatchCountsContext(ctx, doc); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.match(w.Docs[i%len(w.Docs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSharing quantifies what expression sharing buys: the
// per-expression FSM baseline (XFilter) against the shared-NFA (YFilter)
// and shared-predicate (this paper) designs — §2's qualitative claim that
// XFilter "is not able to adequately handle overlap", measured.
func BenchmarkAblationSharing(b *testing.B) {
	w := benchWorkload(b, dtd.NITF(), 10000, nil)
	b.Run("xfilter-fsm", func(b *testing.B) {
		e := fsmfilter.New()
		for _, s := range w.XPEs {
			if _, err := e.Add(s); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Filter(w.Docs[i%len(w.Docs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("xtrie", func(b *testing.B) {
		e := xtrie.New()
		for _, s := range w.XPEs {
			if _, err := e.Add(s); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := e.Filter(w.Docs[0]); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Filter(w.Docs[i%len(w.Docs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("yfilter", func(b *testing.B) { benchYFilter(b, w) })
	b.Run("basic-pc-ap", func(b *testing.B) {
		benchPredicate(b, w, matcher.PrefixCoverAP, predicate.Inline)
	})
}
