// Command xfbench regenerates the tables and figures of the paper's
// evaluation (§6). Each experiment prints its measured series; the shapes
// — who wins, by roughly what factor, where crossovers fall — are the
// reproduction target (absolute times depend on the host).
//
// Usage:
//
//	xfbench -exp fig6a                # one experiment at the default scale
//	xfbench -exp all -scale smoke     # everything, fast sanity pass
//	xfbench -exp fig7 -scale full     # paper scale (millions of XPEs)
//	xfbench -exp chaos                # cluster fault injection: partition/flap/slow → BENCH_chaos.json
//	xfbench -list                     # list experiment ids
//	xfbench -stats                    # print workload statistics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"predfilter/internal/bench"
	"predfilter/internal/dtd"
	"predfilter/internal/metrics"
)

func main() {
	var (
		expID    = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale    = flag.String("scale", "default", "scale: smoke, default or full")
		jsonOut  = flag.String("json", "", "write results as JSON to this file (chaos default: BENCH_chaos.json)")
		list     = flag.Bool("list", false, "list experiments and exit")
		stats    = flag.Bool("stats", false, "print workload statistics and exit")
		verbose  = flag.Bool("v", true, "print per-point progress")
		validate = flag.String("validate-metrics", "", "fetch this /metrics URL, validate it against the strict Prometheus 0.0.4 checker, and exit (CI smoke)")
	)
	flag.Parse()

	if *validate != "" {
		if err := validateMetricsURL(*validate); err != nil {
			fatal(err)
		}
		fmt.Printf("ok: %s is a valid exposition\n", *validate)
		return
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	}

	s, err := bench.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}

	if *stats {
		printStats(s)
		return
	}

	progress := os.Stderr
	if !*verbose {
		progress = nil
	}

	// -exp chaos: cluster fault behavior through the deterministic
	// fault-injection proxy — partition, flap, and slow-link scenarios
	// with breaker activity and recovery times → BENCH_chaos.json.
	if *expID == "chaos" {
		out := *jsonOut
		if out == "" {
			out = "BENCH_chaos.json"
		}
		fmt.Printf("== cluster fault injection: partition, flap, slow link [scale %s]\n", s.Name)
		rep, err := bench.RunChaos(s, progress)
		if err != nil {
			fatal(err)
		}
		if err := writeJSON(out, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("-- wrote %s\n", out)
		return
	}

	var exps []bench.Experiment
	if *expID == "all" {
		exps = bench.Experiments
	} else {
		e, err := bench.ExperimentByID(*expID)
		if err != nil {
			fatal(err)
		}
		exps = []bench.Experiment{e}
	}

	var allPoints []bench.Point
	for _, e := range exps {
		fmt.Printf("== %s [scale %s: %d docs, expression factor %.2f]\n", e.Title, s.Name, s.Docs, s.Factor)
		t0 := time.Now()
		points, err := e.Run(s, progress)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		bench.PrintPoints(os.Stdout, points)
		fmt.Printf("-- %s done in %v\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
		allPoints = append(allPoints, points...)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, allPoints); err != nil {
			fatal(err)
		}
		fmt.Printf("-- wrote %s\n", *jsonOut)
	}
}

func writeJSON(name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(data, '\n'), 0o644)
}

func printStats(s bench.Scale) {
	for _, d := range []*dtd.DTD{dtd.NITF(), dtd.PSD()} {
		cfg := bench.DefaultWorkloadConfig(1000)
		cfg.Docs = s.Docs
		w, err := bench.NewWorkload(d, cfg)
		if err != nil {
			fatal(err)
		}
		st, err := w.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-5s docs=%d avg-tags=%.0f avg-bytes=%.0f avg-paths=%.0f\n",
			d.Name, st.Docs, st.AvgTags, st.AvgBytes, st.AvgPaths)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xfbench:", err)
	os.Exit(1)
}

// validateMetricsURL fetches a Prometheus exposition and runs it through
// the strict 0.0.4 validator — the CI smoke check that a live server's
// (or a cluster coordinator's rolled-up) /metrics stays scrapable.
func validateMetricsURL(url string) error {
	hc := &http.Client{Timeout: 30 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s answered %d: %s", url, resp.StatusCode, body)
	}
	return metrics.ValidateExposition(string(body))
}
