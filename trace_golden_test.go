package predfilter_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"predfilter"
	"predfilter/internal/server"
	"predfilter/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the trace and counts goldens under testdata/")

// traceCase is one case of testdata/trace_corpus.json: an engine
// configuration, its registrations and the documents matched against it.
type traceCase struct {
	Name      string   `json:"name"`
	Postponed bool     `json:"postponed"`
	MaxSteps  int64    `json:"max_steps"`
	Exprs     []string `json:"exprs"`
	Docs      []string `json:"docs"`
	// NumberedExprs adds //x0, //x1, ... — past MaxTraceExprs, a
	// trace is truncated. BombPaths adds workload.PathBomb(BombPaths).
	NumberedExprs int `json:"numbered_exprs"`
	BombPaths     int `json:"bomb_paths"`
}

func (c *traceCase) config() predfilter.Config {
	cfg := predfilter.Config{Limits: predfilter.Limits{MaxSteps: c.MaxSteps}}
	if c.Postponed {
		cfg.AttributeMode = predfilter.PostponedAttributes
	}
	return cfg
}

func (c *traceCase) exprs() []string {
	out := append([]string(nil), c.Exprs...)
	for i := 0; i < c.NumberedExprs; i++ {
		out = append(out, fmt.Sprintf("//x%d", i))
	}
	return out
}

func (c *traceCase) docs() [][]byte {
	var out [][]byte
	for _, d := range c.Docs {
		out = append(out, []byte(d))
	}
	if c.BombPaths > 0 {
		out = append(out, workload.PathBomb(c.BombPaths))
	}
	return out
}

func loadTraceCorpus(t *testing.T) []traceCase {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "trace_corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []traceCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

var (
	nanosMember   = regexp.MustCompile(`"([a-z_]+_nanos)":-?[0-9]+`)
	traceIDMember = regexp.MustCompile(`"trace_id":"[0-9a-f]*"`)
)

// zeroNanos rewrites every *_nanos member of a JSON text to 0 and every
// trace id to the empty string: what varies from run to run.
func zeroNanos(s string) string {
	s = nanosMember.ReplaceAllString(s, `"$1":0`)
	return traceIDMember.ReplaceAllString(s, `"trace_id":""`)
}

// TestTraceCountsGolden pins the match explanation and the combination
// counts over a fixed corpus — duplicate paths, nested expressions,
// Postponed mode, a truncated trace, documents the scanner hands to the
// encoding/xml fallback, a malformed document and a step budget the
// explanation pass trips — byte for byte: MatchTracedContext's SIDs and
// trace, the /publish?trace=1 response and MatchCountsContext's counts,
// with the timings zeroed.
func TestTraceCountsGolden(t *testing.T) {
	ctx := context.Background()
	var traces, counts strings.Builder
	for _, c := range loadTraceCorpus(t) {
		eng := predfilter.New(c.config())
		if _, err := eng.AddAll(c.exprs()); err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{Engine: c.config()})
		for _, x := range c.exprs() {
			body, _ := json.Marshal(map[string]string{"expression": x})
			rr := httptest.NewRecorder()
			srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/subscriptions", strings.NewReader(string(body))))
			if rr.Code != http.StatusCreated {
				t.Fatalf("subscribe %q: %d %s", x, rr.Code, rr.Body)
			}
		}
		for i, doc := range c.docs() {
			fmt.Fprintf(&traces, "### %s %d\n", c.Name, i)
			sids, tr, err := eng.MatchTracedContext(ctx, doc)
			switch {
			case err != nil:
				if sids != nil || tr != nil {
					t.Fatalf("%s %d: a result beside the error %v", c.Name, i, err)
				}
				fmt.Fprintf(&traces, "error: %v\n", err)
			default:
				tr.ParseNanos, tr.CacheNanos, tr.PredMatchNanos, tr.OccurNanos, tr.TotalNanos, tr.TraceNanos = 0, 0, 0, 0, 0, 0
				js, err := json.Marshal(tr)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&traces, "sids: %v\ntrace: %s\n", sids, js)
			}
			rr := httptest.NewRecorder()
			srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/publish?trace=1", strings.NewReader(string(doc))))
			fmt.Fprintf(&traces, "publish: %d %s\n", rr.Code, zeroNanos(strings.TrimSpace(rr.Body.String())))

			fmt.Fprintf(&counts, "### %s %d\n", c.Name, i)
			n, err := eng.MatchCountsContext(ctx, doc)
			if err != nil {
				fmt.Fprintf(&counts, "error: %v\n", err)
				continue
			}
			js, err := json.Marshal(n)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&counts, "counts: %s\n", js)
		}
	}
	checkGolden(t, "trace.golden", traces.String())
	checkGolden(t, "counts.golden", counts.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s differs from the golden:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
