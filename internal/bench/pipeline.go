package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"predfilter"
	"predfilter/internal/dtd"
)

// PipelinePoint is one measured configuration of the streaming pipeline.
type PipelinePoint struct {
	Workers      int     `json:"workers"`
	DocsPerSec   float64 `json:"docs_per_sec"`
	Speedup      float64 `json:"speedup_vs_sequential"`
	AllocsPerDoc float64 `json:"allocs_per_doc"`
	// EffectiveBatch is the measured documents per dispatch group
	// (stream jobs / stream batches over the interval) — how many
	// documents share one columnar scratch. A backlogged feed approaches
	// Config.StreamBatch; a trickling one stays near 1.
	EffectiveBatch float64 `json:"effective_batch,omitempty"`
}

// PipelineReport compares the sequential one-document-at-a-time API with
// the MatchStream/MatchBatch worker pipeline on one workload. Docs/sec
// includes parsing, as the paper's filter time does. AllocsPerDoc is the
// runtime.MemStats.Mallocs delta per document — the allocation-overhaul
// regression number.
type PipelineReport struct {
	Scale      string          `json:"scale"`
	DTD        string          `json:"dtd"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	Exprs      int             `json:"exprs"`
	Docs       int             `json:"docs"`
	Rounds     int             `json:"rounds"`
	Sequential PipelinePoint   `json:"sequential"`
	Stream     []PipelinePoint `json:"stream"`
	// Stages holds the engine's per-stage latency digests over the whole
	// run (warmups included); populated only with stage metrics requested
	// (xfbench -metrics).
	Stages map[string]StageSummary `json:"stages,omitempty"`
}

// RunPipeline measures sequential Match against MatchBatch at each worker
// count over a NITF workload. Rounds repeats the document set so that the
// measured interval is long enough to be meaningful at small scales. With
// stageMetrics set the report additionally carries the engine's per-stage
// latency digests.
func RunPipeline(s Scale, workers []int, progress io.Writer, stageMetrics bool) (*PipelineReport, error) {
	d := dtd.NITF()
	cfg := DefaultWorkloadConfig(s.exprs(50000))
	cfg.Docs = s.Docs
	w, err := NewWorkload(d, cfg)
	if err != nil {
		return nil, err
	}
	eng := predfilter.New(predfilter.Config{})
	for _, s := range w.XPEs {
		if _, err := eng.Add(s); err != nil {
			return nil, fmt.Errorf("bench: add %q: %w", s, err)
		}
	}

	rounds := 1
	for rounds*len(w.Docs) < 200 {
		rounds++
	}
	total := rounds * len(w.Docs)

	measure := func(run func() error) (docsPerSec, allocsPerDoc float64, err error) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			if err := run(); err != nil {
				return 0, 0, err
			}
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return float64(total) / elapsed.Seconds(),
			float64(m1.Mallocs-m0.Mallocs) / float64(total), nil
	}

	rep := &PipelineReport{
		Scale:      s.Name,
		DTD:        d.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Exprs:      len(w.XPEs),
		Docs:       len(w.Docs),
		Rounds:     rounds,
	}
	for _, n := range workers {
		if n > rep.GOMAXPROCS {
			progressf(progress, "  warning: %d workers but GOMAXPROCS=%d (NumCPU=%d); worker counts above GOMAXPROCS measure scheduling overhead, not parallelism\n",
				n, rep.GOMAXPROCS, rep.NumCPU)
			break
		}
	}

	seqDPS, seqAllocs, err := measure(func() error {
		for _, raw := range w.Docs {
			if _, err := eng.Match(raw); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Sequential = PipelinePoint{Workers: 1, DocsPerSec: seqDPS, Speedup: 1, AllocsPerDoc: seqAllocs}
	progressf(progress, "  sequential      %9.0f docs/sec  %6.0f allocs/doc\n", seqDPS, seqAllocs)

	for _, n := range workers {
		jobs0 := eng.Metrics().StreamJobs.Load()
		batches0 := eng.Metrics().StreamBatches.Load()
		dps, allocs, err := measure(func() error {
			for _, r := range eng.MatchBatch(w.Docs, n) {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p := PipelinePoint{Workers: n, DocsPerSec: dps, Speedup: dps / seqDPS, AllocsPerDoc: allocs}
		if db := eng.Metrics().StreamBatches.Load() - batches0; db > 0 {
			p.EffectiveBatch = float64(eng.Metrics().StreamJobs.Load()-jobs0) / float64(db)
		}
		rep.Stream = append(rep.Stream, p)
		progressf(progress, "  stream w=%-4d   %9.0f docs/sec  %6.0f allocs/doc  %.2fx  batch=%.1f\n",
			n, dps, allocs, p.Speedup, p.EffectiveBatch)
	}
	if stageMetrics {
		rep.Stages = stageSummaries(eng)
	}
	return rep, nil
}

// runPipeline adapts RunPipeline to the experiment registry; the JSON
// report form is produced by cmd/xfbench.
func runPipeline(s Scale, progress io.Writer) ([]Point, error) {
	rep, err := RunPipeline(s, []int{1, 2, 4}, progress, false)
	if err != nil {
		return nil, err
	}
	toResult := func(p PipelinePoint) Result {
		return Result{
			Algorithm: "pipeline",
			Exprs:     rep.Exprs,
			Filter:    time.Duration(float64(time.Second) / p.DocsPerSec),
		}
	}
	points := []Point{{Series: "sequential", X: 1, XLabel: "workers", R: toResult(rep.Sequential)}}
	for _, p := range rep.Stream {
		points = append(points, Point{Series: "stream", X: float64(p.Workers), XLabel: "workers", R: toResult(p)})
	}
	return points, nil
}
