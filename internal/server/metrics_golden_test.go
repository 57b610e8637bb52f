package server

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"predfilter/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics and JSON key goldens under testdata/")

// scriptConfig is the server the metrics script runs against: one stream
// worker (so the per-worker busy family has one member), a depth limit
// for the limit trip, and persistence when stateDir is set.
func scriptConfig(stateDir string) Config {
	cfg := Config{Workers: 1, StateDir: stateDir, NoSync: true}
	cfg.Engine.Limits.MaxDepth = 8
	return cfg
}

// metricsScript drives the fixed request sequence behind the /metrics
// golden and the declaration tests: subscribe, publish, batch publish
// (one member malformed), a document over the depth limit, and an
// on-demand snapshot (409 without persistence).
func metricsScript(t *testing.T, url string) {
	t.Helper()
	for _, x := range []string{"/feed/alert", "//item[@id=3]"} {
		drainClose(t, post(t, url+"/subscriptions", "application/json", `{"expression":"`+x+`"}`))
	}
	for _, doc := range []string{`<feed><alert/></feed>`, `<feed><item id="3"/></feed>`} {
		drainClose(t, post(t, url+"/publish", "application/xml", doc))
	}
	drainClose(t, post(t, url+"/publish/batch", "application/json",
		`{"documents":["<feed><alert/></feed>","<unclosed>","<feed><item id=\"4\"/></feed>"]}`))
	if resp := post(t, url+"/publish", "application/xml", string(workload.DepthBomb(64))); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("depth bomb: status %d, want 422", resp.StatusCode)
	} else {
		drainClose(t, resp)
	}
	drainClose(t, post(t, url+"/admin/snapshot", "application/json", ""))
}

// getText fetches one endpoint and returns its body.
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// maskTimings replaces every clock-derived sample value with "X":
// histogram buckets and sums, and the *_seconds_total counters. Names,
// labels, HELP/TYPE lines, order and every count stay as served.
func maskTimings(text string) string {
	lines := strings.SplitAfter(text, "\n")
	for i, line := range lines {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		name := line[:sp]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_seconds_total") {
			lines[i] = line[:sp] + " X\n"
		}
	}
	return strings.Join(lines, "")
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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

// keyPaths lists the dotted path of every value in a JSON document,
// sorted, one per line.
func keyPaths(t *testing.T, body string) string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var walk func(prefix string, obj map[string]any)
	walk = func(prefix string, obj map[string]any) {
		for k, v := range obj {
			if sub, ok := v.(map[string]any); ok {
				walk(prefix+k+".", sub)
			} else {
				paths = append(paths, prefix+k)
			}
		}
	}
	walk("", doc)
	sort.Strings(paths)
	return strings.Join(paths, "\n") + "\n"
}

// TestMetricsGolden: the full /metrics text after the script, with only
// the clock-derived values masked, is byte for byte the checked-in
// golden, and so are the key paths of /stats and /debug/vars. The goldens
// were captured before the surfaces were rendered from the metric table,
// so they pin every family name, label, HELP and TYPE line, the family
// order and the JSON key layout across that change; the key lists since
// gained server_panics_recovered, the server's HTTP-only panic count.
func TestMetricsGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		state bool
	}{{"memory", false}, {"state", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.state {
				dir = t.TempDir()
			}
			ts := newTestServer(t, scriptConfig(dir))
			metricsScript(t, ts.URL)
			checkGolden(t, "metrics_"+tc.name+".golden", maskTimings(getText(t, ts.URL+"/metrics")))
			checkGolden(t, "stats_"+tc.name+".keys", keyPaths(t, getText(t, ts.URL+"/stats")))
			checkGolden(t, "vars_"+tc.name+".keys", keyPaths(t, getText(t, ts.URL+"/debug/vars")))
		})
	}
}
