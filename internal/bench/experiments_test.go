package bench

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentRegistry pins the registry to exactly the ids
// EXPERIMENTS.md cites, in paper order: the figures and tables of §6 and
// the two related-work extensions. System benchmarks live in benchmark/,
// so -exp all runs the paper and nothing else.
func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"table1", "fig6a", "fig6b", "fig7", "fig7nitf", "fig8w", "fig8do",
		"fig9a", "fig9b", "fig10", "parse", "sharing", "space",
	}
	var ids []string
	for _, e := range Experiments {
		ids = append(ids, e.ID)
		got, err := ExperimentByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ExperimentByID(%q) = %v, %v", e.ID, got.ID, err)
		}
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("registry ids = %v, want %v", ids, want)
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Error("ExperimentByID accepted an unknown id")
	}
}

// TestDocsCiteLiveExperiments keeps the documentation from drifting off
// the tree: every `xfbench -exp <id>` it shows must be a registered
// experiment (or chaos, or all), and every BENCH_*.json it names must be a
// committed file.
func TestDocsCiteLiveExperiments(t *testing.T) {
	expRe := regexp.MustCompile(`xfbench -exp ([a-z0-9]+)`)
	snapRe := regexp.MustCompile(`BENCH_[a-z0-9]+\.json`)
	root := filepath.Join("..", "..")
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "cmd/xfbench/main.go"} {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range expRe.FindAllStringSubmatch(string(data), -1) {
			if id := m[1]; id != "all" && id != "chaos" {
				if _, err := ExperimentByID(id); err != nil {
					t.Errorf("%s cites xfbench -exp %s: %v", name, id, err)
				}
			}
		}
		for _, snap := range snapRe.FindAllString(string(data), -1) {
			if _, err := os.Stat(filepath.Join(root, snap)); err != nil {
				t.Errorf("%s cites %s: %v", name, snap, err)
			}
		}
	}
}

// TestExperimentsSmoke runs every experiment end-to-end at the smoke
// scale: each must produce points (table1 produces text instead) and all
// timings must be positive.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke-running all experiments is slow")
	}
	tiny := Scale{Name: "smoke", Docs: 4, Factor: 0.001}
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			points, err := e.Run(tiny, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if e.ID == "table1" {
				if len(points) != 0 {
					t.Fatalf("table1 produced %d points", len(points))
				}
				return
			}
			if len(points) == 0 {
				t.Fatal("no points")
			}
			for _, p := range points {
				if p.Series == "" {
					t.Errorf("point without series: %+v", p)
				}
				if p.R.Filter <= 0 {
					t.Errorf("%s: non-positive filter time %v", p.Series, p.R.Filter)
				}
			}
		})
	}
}

// TestScaleByName covers the scale presets.
func TestScaleByName(t *testing.T) {
	for _, name := range []string{"smoke", "default", "full", ""} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
		if s.Docs <= 0 || s.Factor <= 0 {
			t.Errorf("ScaleByName(%q) = %+v", name, s)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("ScaleByName accepted an unknown scale")
	}
}

// TestTable1Text checks the rendered table contains the paper's rows.
func TestTable1Text(t *testing.T) {
	text := Table1Text()
	for _, want := range []string{
		"(d(p_a, p_b), >=, 1)", "(1,1), (1,2), (2,2)",
		"(d(p_b, p_c), =, 1)", "(1,1), (2,2)",
		"(d(p_c, p_b), >=, 1)", "(1,2)",
		"(d(p_b, p_a), >=, 1)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Table1Text missing %q:\n%s", want, text)
		}
	}
}

// TestPrintPoints covers the renderer.
func TestPrintPoints(t *testing.T) {
	var sb strings.Builder
	PrintPoints(&sb, []Point{
		{Series: "b", X: 2, XLabel: "expressions", R: Result{Filter: 5}},
		{Series: "a", X: 1, XLabel: "expressions", R: Result{Filter: 3}},
		{Series: "b", X: 1, XLabel: "expressions", R: Result{Filter: 4}},
	})
	out := sb.String()
	if !strings.Contains(out, "b:") || !strings.Contains(out, "a:") {
		t.Errorf("missing series headers:\n%s", out)
	}
	if strings.Index(out, "b:") > strings.Index(out, "a:") {
		t.Errorf("series not in first-seen order:\n%s", out)
	}
	PrintPoints(&sb, nil) // must not panic
}
