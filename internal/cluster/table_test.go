package cluster

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"predfilter/internal/metrics"
	"predfilter/internal/server"
)

// family is one declared exposition family, whatever its table.
type family struct {
	kind   string
	labels []string
}

func declare[S any](into map[string]family, rows []metrics.Row[S]) {
	for _, r := range rows {
		if r.Name != "" {
			into[r.Name] = family{r.Kind, r.Labels}
		}
	}
}

// shardFamilies declares what a shard serves: the engine's rows and the
// server's.
func shardFamilies() map[string]family {
	fams := map[string]family{}
	declare(fams, metrics.EngineRows)
	declare(fams, server.Rows)
	return fams
}

// TestCoordMetricsDeclared: after the coordinator's script, every row of
// its table is on /metrics once, with its kind and label keys; a row with
// a JSON key reads the same value on /stats; and every other family is a
// shard family rolled up under a shard label. The coordinator's /stats is
// the encoding of Stats, whose per-shard, store and scrape fields have no
// family; every other top-level key is declared.
func TestCoordMetricsDeclared(t *testing.T) {
	c, url := startScriptCluster(t)
	coordScript(t, url)
	text := getText(t, url+"/metrics")
	if err := metrics.ValidateExposition(text); err != nil {
		t.Fatal(err)
	}
	parsed, err := metrics.ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal([]byte(getText(t, url+"/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	served := map[string]*metrics.Family{}
	for _, f := range parsed {
		served[f.Name] = f
	}
	sc := coordScrape{st: c.Stats()}
	keys := map[string]bool{}
	for _, r := range coordTable {
		f := served[r.Name]
		if r.When != nil && !r.When(&sc) {
			if f != nil {
				t.Errorf("%s served while its row is absent", r.Name)
			}
			continue
		}
		if f == nil || f.Type != r.Kind || len(f.Samples) == 0 || strings.Count(text, "# TYPE "+r.Name+" ") != 1 {
			t.Errorf("%s: family %+v; want one %s family with samples", r.Name, f, r.Kind)
			continue
		}
		for _, smp := range f.Samples {
			var got []string
			for _, lp := range smp.Labels {
				if lp.Name != "le" {
					got = append(got, lp.Name)
				}
			}
			if !slices.Equal(got, r.Labels) {
				t.Errorf("%s: sample labels %v, declared %v", smp.Name, got, r.Labels)
			}
		}
		if r.JSON != "" {
			keys[r.JSON] = true
			if v := stats[r.JSON]; v != f.Samples[0].Value {
				t.Errorf("%s = %v, /stats %s = %v", r.Name, f.Samples[0].Value, r.JSON, v)
			}
		}
	}
	shard := shardFamilies()
	for name, f := range served {
		if slices.ContainsFunc(coordTable, func(r metrics.Row[coordScrape]) bool { return r.Name == name }) {
			continue
		}
		d, ok := shard[name]
		if !ok || d.kind != f.Type {
			t.Errorf("family %s (%s) is not declared", name, f.Type)
			continue
		}
		for _, smp := range f.Samples {
			if smp.Labels[0].Name != "shard" {
				t.Errorf("rolled-up %s without a leading shard label: %v", smp.Name, smp.Labels)
			}
		}
	}
	for k := range stats {
		if !keys[k] && !slices.Contains([]string{"per_shard", "next_sid", "store", "shard_snapshots", "scrape_errors"}, k) {
			t.Errorf("/stats key %s is not declared", k)
		}
	}
}

// TestHarnessNamesDeclared reads the benchmark harness as text (it is
// frozen: a metric it scrapes can only be kept, never renamed under it).
// Every "predfilter_…" name it passes — a literal, a constant, or either
// plus a histogram suffix — must be a declared family, and every label
// key passed beside it must be declared on that family (le on a
// histogram; shard on any family the coordinator rolls up). The one
// exception is a family in retiredFamilies, which must not be declared.
// Every stage label value it reads must be a series that a fresh server
// (or, for the coordinator's own families, a fresh coordinator) exposes
// after one publish, unless retiredSeries lists it; a listed series must
// not be exposed.
func TestHarnessNamesDeclared(t *testing.T) {
	fams := shardFamilies()
	declare(fams, coordTable)
	for name := range retiredFamilies {
		if fams[name].kind != "" {
			t.Errorf("%s is declared again; take it out of retiredFamilies", name)
		}
	}
	files, err := filepath.Glob("../../benchmark/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("benchmark sources: %v %v", files, err)
	}
	fset := token.NewFileSet()
	consts := map[string]string{}
	var parsed []*ast.File
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, f)
		ast.Inspect(f, func(n ast.Node) bool {
			if vs, ok := n.(*ast.ValueSpec); ok {
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if s, ok := stringValue(vs.Values[i], nil); ok {
							consts[name.Name] = s
						}
					}
				}
			}
			return true
		})
	}
	labelKeys := []string{"stage", "path", "state", "op", "shard", "le"}
	checked := 0
	stages := map[string]token.Pos{} // family{stage="value"} → where the harness reads it
	for _, f := range parsed {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var names, labels, stageValues []string
			for i, arg := range call.Args {
				s, ok := stringValue(arg, consts)
				switch {
				case ok && strings.HasPrefix(s, "predfilter_"):
					names = append(names, s)
				case ok && slices.Contains(labelKeys, s):
					if _, lit := arg.(*ast.BasicLit); lit {
						labels = append(labels, s)
					}
					if s == "stage" && i+1 < len(call.Args) {
						if v, ok := stringValue(call.Args[i+1], nil); ok {
							stageValues = append(stageValues, v)
						}
					}
				}
			}
			for _, name := range names {
				checked++
				base, d := name, fams[name]
				for _, suf := range []string{"_sum", "_count", "_bucket"} {
					if b, ok := strings.CutSuffix(name, suf); ok && (fams[b].kind == "histogram" || retiredFamilies[b]) {
						base, d = b, fams[b]
					}
				}
				if d.kind == "" {
					if !retiredFamilies[base] {
						t.Errorf("%s: %s is not a declared family", fset.Position(call.Pos()), name)
					}
					continue
				}
				for _, v := range stageValues {
					stages[base+`{stage="`+v+`"}`] = call.Pos()
				}
				for _, l := range labels {
					ok := slices.Contains(d.labels, l) || l == "le" && d.kind == "histogram" ||
						l == "shard" && !strings.HasPrefix(base, "predfilter_cluster_")
					if !ok {
						t.Errorf("%s: label %s is not declared on %s", fset.Position(call.Pos()), l, base)
					}
				}
			}
			return true
		})
	}
	if checked < 30 {
		t.Fatalf("found %d metric names in the harness; the scan is broken", checked)
	}
	exposed := exposedStages(t)
	for series, pos := range stages {
		if !exposed[series] && retiredSeries[series] == "" {
			t.Errorf("%s: %s is not exposed after a publish", fset.Position(pos), series)
		}
	}
	for series := range retiredSeries {
		if exposed[series] {
			t.Errorf("%s is exposed again; take it out of retiredSeries", series)
		}
	}
	if len(stages) < 5 {
		t.Fatalf("found %d stage series in the harness; the scan is broken", len(stages))
	}
}

// exposedStages publishes one document to a fresh server and to a fresh
// coordinator over two shards, and returns every family{stage="value"}
// series either then exposes on /metrics.
func exposedStages(t *testing.T) map[string]bool {
	t.Helper()
	srv := httptest.NewServer(server.New(server.Config{Workers: 1}))
	t.Cleanup(srv.Close)
	_, coord := startScriptCluster(t)
	out := map[string]bool{}
	for _, url := range []string{srv.URL, coord} {
		resp, err := http.Post(url+"/publish", "application/xml", strings.NewReader(`<feed><alert/></feed>`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("publish to %s: status %d", url, resp.StatusCode)
		}
		fams, err := metrics.ParseExposition(getText(t, url+"/metrics"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fams {
			for _, smp := range f.Samples {
				if v, ok := smp.Label("stage"); ok {
					out[f.Name+`{stage="`+v+`"}`] = true
				}
			}
		}
	}
	return out
}

// retiredFamilies are families removed on purpose that the frozen
// harness still scrapes; the metric it derives from each reads n/a until
// the harness drops it. Histogram names carry no suffix here.
var retiredFamilies = map[string]bool{
	// The per-document bitset-sweep clock went with the served kernel's
	// sub-stage clocks; matcher.columnar_sweep_us_per_doc reads it.
	"predfilter_columnar_sweep_duration_seconds": true,
}

// retiredSeries are stage series removed on purpose from a family that is
// still declared, which the frozen harness still reads; each reason says
// what went and what the harness derives from the series, which reads n/a
// until the harness drops it.
var retiredSeries = map[string]string{
	`predfilter_stage_duration_seconds{stage="cache"}`:           "the path-cache sub-stage clock went with the served kernel's sub-stage clocks; pathcache.stage_us_per_doc reads it",
	`predfilter_stage_duration_seconds{stage="predicate_match"}`: "the predicate-stage sub-stage clock went with the served kernel's sub-stage clocks; predindex.stage_us_per_doc reads it",
	`predfilter_stage_duration_seconds{stage="occurrence"}`:      "the occurrence-determination sub-stage clock went with the served kernel's sub-stage clocks; occur.stage_us_per_doc reads it",
}

// stringValue evaluates a string literal, a known constant, or a
// concatenation of those.
func stringValue(e ast.Expr, consts map[string]string) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			s, err := strconv.Unquote(e.Value)
			return s, err == nil
		}
	case *ast.Ident:
		s, ok := consts[e.Name]
		return s, ok
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			a, ok1 := stringValue(e.X, consts)
			b, ok2 := stringValue(e.Y, consts)
			return a + b, ok1 && ok2
		}
	}
	return "", false
}
