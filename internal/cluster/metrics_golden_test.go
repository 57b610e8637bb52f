package cluster

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predfilter/internal/server"
	"predfilter/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics golden under testdata/")

// startScriptCluster starts two in-memory shards (one stream worker, a
// depth limit) behind a coordinator with durable routing state and no
// health monitor, so every RPC the scrape reports is one the script made.
func startScriptCluster(t *testing.T) (*Coordinator, string) {
	t.Helper()
	var specs []ShardSpec
	for i := 0; i < 2; i++ {
		cfg := server.Config{Workers: 1}
		cfg.Engine.Limits.MaxDepth = 8
		ts := httptest.NewServer(server.New(cfg))
		t.Cleanup(ts.Close)
		specs = append(specs, ShardSpec{Name: fmt.Sprintf("s%d", i), Addr: ts.URL})
	}
	c, err := New(Config{
		Shards:   specs,
		Retries:  -1,
		StateDir: t.TempDir(),
		NoSync:   true,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	front := httptest.NewServer(c)
	t.Cleanup(front.Close)
	return c, front.URL
}

// coordScript drives the coordinator's share of the metrics script:
// subscribe, publish, and a document over the shards' depth limit (the
// coordinator has no batch or snapshot endpoint).
func coordScript(t *testing.T, url string) {
	t.Helper()
	send := func(path, ct, body string) int {
		resp, err := http.Post(url+path, ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, x := range []string{"/feed/alert", "//item[@id=3]", "/feed/item"} {
		if code := send("/subscriptions", "application/json", `{"expression":"`+x+`"}`); code != http.StatusCreated {
			t.Fatalf("subscribe %s: status %d", x, code)
		}
	}
	for _, doc := range []string{`<feed><alert/></feed>`, `<feed><item id="3"/></feed>`} {
		if code := send("/publish", "application/xml", doc); code != http.StatusOK {
			t.Fatalf("publish: status %d", code)
		}
	}
	send("/publish", "application/xml", string(workload.DepthBomb(64)))
}

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
// histogram buckets and sums, and the *_seconds_total counters.
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

// TestCoordMetricsGolden: the coordinator's /metrics (its own families
// plus the shard rollup) after the script, clock-derived values masked,
// is byte for byte the golden captured before the exposition was
// rendered from the metric table.
func TestCoordMetricsGolden(t *testing.T) {
	_, url := startScriptCluster(t)
	coordScript(t, url)
	got := maskTimings(getText(t, url+"/metrics"))
	path := filepath.Join("testdata", "metrics_coordinator.golden")
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
