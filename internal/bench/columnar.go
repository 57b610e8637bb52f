package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"predfilter"
	"predfilter/internal/dtd"
)

// ColumnarPoint is one measured configuration of the columnar batch
// matcher against the scalar baseline.
type ColumnarPoint struct {
	// Mode is "scalar" (ColumnarOff baseline) or "columnar".
	Mode  string `json:"mode"`
	Exprs int    `json:"exprs"`
	// Batch is the configured dispatch-group bound (Config.StreamBatch).
	// The dispatcher cuts what it takes in into several groups per worker,
	// so the group the kernel saw is AvgBatch, well below the bound.
	Batch        int     `json:"batch"`
	DocsPerSec   float64 `json:"docs_per_sec"`
	Speedup      float64 `json:"speedup_vs_scalar"`
	AllocsPerDoc float64 `json:"allocs_per_doc"`
	// Columnar-only kernel telemetry over the measured interval: the
	// effective documents per columnar batch, the fraction of
	// candidate-bitset words that held at least one candidate, and the
	// fraction of swept paths that needed scalar occurrence verification.
	AvgBatch      float64 `json:"avg_batch,omitempty"`
	Occupancy     float64 `json:"occupancy,omitempty"`
	AmbiguousFrac float64 `json:"ambiguous_frac,omitempty"`
}

// ColumnarReport compares scalar and columnar matching over NITF
// workloads with the path cache disabled — every document presents novel
// structure, so the numbers isolate raw matching cost, the regime the
// bitset kernel targets. Docs/sec includes parsing; AllocsPerDoc is the
// runtime.MemStats.Mallocs delta per document.
type ColumnarReport struct {
	Scale      string          `json:"scale"`
	DTD        string          `json:"dtd"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Docs       int             `json:"docs"`
	Rounds     int             `json:"rounds"`
	Points     []ColumnarPoint `json:"points"`
}

// DefaultColumnarBatches is the dispatch-group sweep of -exp columnar.
func DefaultColumnarBatches() []int { return []int{1, 8, 32, 64} }

// columnarExprCounts returns the expression counts of -exp columnar:
// paper-friendly absolute counts (the kernel's payoff grows with the
// expression count), shrunk only under the smoke scale.
func columnarExprCounts(s Scale) []int {
	return []int{s.smallExprs(5000), s.smallExprs(40000)}
}

// RunColumnar measures scalar MatchBatch against the columnar batch
// matcher at each dispatch-group bound, per expression count. One worker
// throughout: the comparison is word-parallelism against the scalar
// expression loop, not thread-parallelism.
func RunColumnar(s Scale, batches []int, progress io.Writer) (*ColumnarReport, error) {
	d := dtd.NITF()
	rep := &ColumnarReport{
		Scale:      s.Name,
		DTD:        d.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Docs:       s.Docs,
	}
	for _, nexpr := range columnarExprCounts(s) {
		cfg := DefaultWorkloadConfig(nexpr)
		cfg.Docs = s.Docs
		w, err := NewWorkload(d, cfg)
		if err != nil {
			return nil, err
		}
		rounds := 1
		for rounds*len(w.Docs) < 200 {
			rounds++
		}
		rep.Rounds = rounds
		total := rounds * len(w.Docs)

		measure := func(eng *predfilter.Engine) (docsPerSec, allocsPerDoc float64, err error) {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for r := 0; r < rounds; r++ {
				for _, res := range eng.MatchBatch(w.Docs, 1) {
					if res.Err != nil {
						return 0, 0, res.Err
					}
				}
			}
			elapsed := time.Since(t0)
			runtime.ReadMemStats(&m1)
			return float64(total) / elapsed.Seconds(),
				float64(m1.Mallocs-m0.Mallocs) / float64(total), nil
		}

		newEngine := func(mode predfilter.ColumnarMode, batch int) (*predfilter.Engine, error) {
			eng := predfilter.New(predfilter.Config{
				PathCacheBytes: -1, // novel structure every document
				Columnar:       mode,
				StreamBatch:    batch,
			})
			if _, err := eng.AddAll(w.XPEs); err != nil {
				return nil, fmt.Errorf("bench: %w", err)
			}
			return eng, nil
		}

		scalarEng, err := newEngine(predfilter.ColumnarOff, 32)
		if err != nil {
			return nil, err
		}
		scalarDPS, scalarAllocs, err := measure(scalarEng)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, ColumnarPoint{
			Mode: "scalar", Exprs: len(w.XPEs), Batch: 32,
			DocsPerSec: scalarDPS, Speedup: 1, AllocsPerDoc: scalarAllocs,
		})
		progressf(progress, "  N=%-7d scalar          %9.0f docs/sec  %6.0f allocs/doc\n",
			len(w.XPEs), scalarDPS, scalarAllocs)

		for _, b := range batches {
			eng, err := newEngine(predfilter.ColumnarAuto, b)
			if err != nil {
				return nil, err
			}
			c0 := eng.Stats().Columnar
			dps, allocs, err := measure(eng)
			if err != nil {
				return nil, err
			}
			c1 := eng.Stats().Columnar
			p := ColumnarPoint{
				Mode: "columnar", Exprs: len(w.XPEs), Batch: b,
				DocsPerSec: dps, Speedup: dps / scalarDPS, AllocsPerDoc: allocs,
			}
			if db := c1.Batches - c0.Batches; db > 0 {
				p.AvgBatch = float64(c1.Docs-c0.Docs) / float64(db)
			}
			if dw := c1.WordsSwept - c0.WordsSwept; dw > 0 {
				p.Occupancy = float64(c1.WordsLive-c0.WordsLive) / float64(dw)
			}
			if dp := c1.Paths - c0.Paths; dp > 0 {
				p.AmbiguousFrac = float64(c1.AmbiguousPaths-c0.AmbiguousPaths) / float64(dp)
			}
			rep.Points = append(rep.Points, p)
			progressf(progress, "  N=%-7d columnar b=%-4d %9.0f docs/sec  %6.0f allocs/doc  %5.2fx  occ=%.3f\n",
				len(w.XPEs), b, dps, allocs, p.Speedup, p.Occupancy)
		}
	}
	return rep, nil
}

// runColumnar adapts RunColumnar to the experiment registry; the JSON
// report form is produced by cmd/xfbench.
func runColumnar(s Scale, progress io.Writer) ([]Point, error) {
	rep, err := RunColumnar(s, DefaultColumnarBatches(), progress)
	if err != nil {
		return nil, err
	}
	var points []Point
	for _, p := range rep.Points {
		series := p.Mode
		if p.Mode == "columnar" {
			series = fmt.Sprintf("columnar-b%d", p.Batch)
		}
		points = append(points, Point{
			Series: series, X: float64(p.Exprs), XLabel: "exprs",
			R: Result{
				Algorithm: Algorithm(series),
				Exprs:     p.Exprs,
				Filter:    time.Duration(float64(time.Second) / p.DocsPerSec),
			},
		})
	}
	return points, nil
}
