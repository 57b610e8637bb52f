// Command benchmark is the repository's served-path benchmark: it builds
// cmd/xfserve, starts it as child process(es), drives it over loopback
// HTTP, verifies every response against an in-process oracle, and reports
// the end-to-end and per-layer metrics declared in BENCHMARK.json.
//
//	go run ./benchmark -seed 1              every workload, both passes
//	go run ./benchmark -repeat 2            agreement between two sets of runs
//	go run ./benchmark -workload nitf5k_single -seed 1 -seconds 10 -trace 0
//
// With -workload it runs one pass of one workload and ends its output with
// one JSON line, which is how the PR driver calls it. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// declaration is BENCHMARK.json: the one place metric names, units, bounds
// and workload names are written down. The program prints exactly what it
// declares and fails if it computed anything else.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// pass returns the metrics one pass reports: end-to-end metrics untraced,
// per-layer metrics traced.
func (d *declaration) pass(traced bool) []metricDecl {
	if traced {
		return d.PerLayer
	}
	return d.EndToEnd
}

func loadDeclaration(root string) (*declaration, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var listed []string
	for _, sp := range specs {
		if !sp.extra {
			listed = append(listed, sp.name)
		}
	}
	if len(d.Workloads) != len(listed) {
		return nil, fmt.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(listed))
	}
	for i, w := range d.Workloads {
		if w.Name != listed[i] {
			return nil, fmt.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, listed[i])
		}
	}
	return &d, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one pass of this workload and end with the driver's JSON line (default: every workload, both passes)")
		seed         = fs.Int64("seed", 1, "input seed: expressions seed, documents seed+1, churn pool seed+2")
		seconds      = fs.Float64("seconds", 0, "measured seconds per pass (default: run_seconds of BENCHMARK.json)")
		trace        = fs.Int("trace", 0, "with -workload: 0 = end-to-end pass, 1 = traced per-layer pass")
		repeat       = fs.Int("repeat", 1, "run the end-to-end pass of every workload this many times and check the sets agree within the bounds")
		scale        = fs.String("scale", "default", "default, or smoke (≤400 expressions, for the tier-1 test)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scale != "default" && *scale != "smoke" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -scale %q\n", *scale)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{j: newJanitor()}
	defer e.j.cleanup()

	code, err := runMode(ctx, e, out, *workloadName, *seed, *seconds, *trace, *repeat, *scale == "smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

func runMode(ctx context.Context, e *env, out io.Writer, workloadName string, seed int64, seconds float64, trace, repeat int, smoke bool) (int, error) {
	var err error
	if e.root, err = moduleRoot(); err != nil {
		return 0, err
	}
	decl, err := loadDeclaration(e.root)
	if err != nil {
		return 0, err
	}
	if seconds <= 0 {
		seconds = float64(decl.RunSeconds)
	}
	if e.bin, err = buildServer(e.root); err != nil {
		return 0, err
	}
	pick := func(s spec) spec {
		if smoke {
			return s.smoke()
		}
		return s
	}
	printHeader(out, e.root, seed, seconds, smoke)

	if workloadName != "" {
		sp, ok := specByName(workloadName)
		if !ok {
			return 0, fmt.Errorf("unknown workload %q", workloadName)
		}
		res, err := runWorkload(ctx, e, pick(sp), seed, seconds, trace == 1)
		if err != nil {
			return 0, err
		}
		decls := decl.pass(trace == 1)
		if err := printPass(out, sp.name, decls, res); err != nil {
			return 0, err
		}
		return printDriverLine(out, decls, res), nil
	}

	if repeat > 1 {
		return agreement(ctx, e, out, decl, pick, seed, seconds, repeat)
	}
	code := 0
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(ctx, e, pick(sp), seed, seconds, traced)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", sp.name, err)
			}
			if err := printPass(out, sp.name, decl.pass(traced), res); err != nil {
				return 0, err
			}
			if res.failed > 0 {
				code = 1
			}
		}
	}
	return code, nil
}

func printHeader(out io.Writer, root string, seed int64, seconds float64, smoke bool) {
	sha := "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		sha = strings.TrimSpace(string(b))
	}
	scale := "default"
	if smoke {
		scale = "smoke"
	}
	fmt.Fprintf(out, "# predfilter served-path benchmark\n")
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=%d go=%s git=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sha)
	fmt.Fprintf(out, "# seed=%d scale=%s seconds=%g set-ups per run=%d\n", seed, scale, seconds, setupRuns)
	u, t := untracedShares, tracedShares
	fmt.Fprintf(out, "# untraced pass: warm %.2fs, sat %.2fs, paced %.2fs, the last two in %d alternating slices each\n", u.warm*seconds, u.sat*seconds, u.paced*seconds, roundsOf(seconds, false))
	fmt.Fprintf(out, "# traced pass:   warm %.2fs, sat %.2fs, paced %.2fs, ladder %.2fs\n", t.warm*seconds, t.sat*seconds, t.paced*seconds, t.ladder*seconds)
}

// printPass prints one pass of one workload: every declared metric of the
// pass by name with its unit, n/a where the metric does not apply.
func printPass(out io.Writer, workload string, decls []metricDecl, res *result) error {
	for _, d := range decls {
		v, ok := res.metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s is declared in BENCHMARK.json but was not measured", workload, d.Name)
		}
		val := "n/a"
		if !math.IsNaN(v) {
			val = fmt.Sprintf("%.6g", v)
		}
		void := ""
		if res.pacedVoid && strings.Contains(d.Name, "paced_p") {
			void = "  VOID: generator lag p99 exceeds the paced median"
		}
		fmt.Fprintf(out, "%-26s %-40s %14s %s%s\n", workload, d.Name, val, d.Unit, void)
	}
	fmt.Fprintf(out, "%-26s %-40s %14.6g %s  (%d failed of %d attempted)\n", workload, "failed_share", float64(res.failed)/float64(res.attempted), "share", res.failed, res.attempted)
	if res.table != nil {
		fmt.Fprintf(out, "%s self-time table\n%s", workload, res.table)
	}
	for _, n := range res.notes {
		fmt.Fprintf(out, "# %s: %s\n", workload, n)
	}
	return nil
}

// printDriverLine ends the output with the driver's result object. JSON
// has no NaN, so a metric that does not apply to the workload reads 0.
func printDriverLine(out io.Writer, decls []metricDecl, res *result) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, d := range decls {
		v := res.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil { // only floats, ints and strings: cannot fail
		panic(err)
	}
	fmt.Fprintf(out, "%s\n", b)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// agreement runs the end-to-end pass of every workload repeat times and
// prints, per metric and workload, the values, their relative difference
// and the bound. It returns 1 when a difference exceeds its bound.
func agreement(ctx context.Context, e *env, out io.Writer, decl *declaration, pick func(spec) spec, seed int64, seconds float64, repeat int) (int, error) {
	sets := make([]map[string]*result, repeat)
	for r := range sets {
		sets[r] = map[string]*result{}
		for _, sp := range specs {
			res, err := runWorkload(ctx, e, pick(sp), seed, seconds, false)
			if err != nil {
				return 0, fmt.Errorf("set %d, %s: %w", r+1, sp.name, err)
			}
			if err := printPass(out, sp.name, decl.EndToEnd, res); err != nil {
				return 0, err
			}
			sets[r][sp.name] = res
		}
	}
	code := 0
	spread := func(name string, sp spec) (vals []float64, rel float64) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range sets {
			v := s[sp.name].metrics[name]
			vals = append(vals, v)
			lo, hi = min(lo, v), max(hi, v)
		}
		return vals, (hi - lo) / lo
	}
	fmt.Fprintf(out, "\n# agreement between %d sets of runs: (max - min) / min against the bound\n", repeat)
	for _, d := range decl.EndToEnd {
		for _, sp := range specs {
			vals, rel := spread(d.Name, sp)
			verdict := "ok"
			if rel > d.Bound {
				verdict, code = "EXCEEDS BOUND", 1
			}
			fmt.Fprintf(out, "%-26s %-16s %v %s  diff %.1f%%  bound %.0f%%  %s\n", sp.name, d.Name, fmtVals(vals), d.Unit, 100*rel, 100*d.Bound, verdict)
		}
	}
	for _, sp := range specs {
		failed := 0
		for _, s := range sets {
			failed += s[sp.name].failed
		}
		if failed > 0 {
			code = 1
		}
		fmt.Fprintf(out, "%-26s %-16s %d failed requests over all sets\n", sp.name, "failed_share", failed)
	}
	fmt.Fprintf(out, "\n# tail percentiles, not gated: recorded so that a later issue can decide whether one is steady enough to promote\n")
	for _, name := range []string{"client.paced_p95_ms", "client.paced_p99_ms"} {
		for _, sp := range specs {
			vals, rel := spread(name, sp)
			fmt.Fprintf(out, "%-26s %-20s %v ms  diff %.1f%%\n", sp.name, name, fmtVals(vals), 100*rel)
		}
	}
	return code, nil
}

func fmtVals(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4g", x)
		if math.IsNaN(x) {
			s[i] = "n/a"
		}
	}
	return "[" + strings.Join(s, " ") + "]"
}
