package server

import (
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"predfilter/internal/metrics"
)

// TestMetricsEndpoint: GET /metrics is always on and serves valid
// Prometheus text exposition carrying the per-stage histograms and the
// engine and server counters.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	subscribe(t, ts, "/feed/alert")
	publish(t, ts, `<feed><alert/></feed>`)
	publish(t, ts, `<feed><other/></feed>`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if err := metrics.ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		`predfilter_stage_duration_seconds_count{stage="parse"} 2`,
		`predfilter_stage_duration_seconds_count{stage="predicate_match"} 2`,
		`predfilter_stage_duration_seconds_count{stage="occurrence"} 2`,
		`predfilter_stage_duration_seconds_count{stage="cache"} 2`,
		`predfilter_stage_duration_seconds_count{stage="match"} 2`,
		"predfilter_docs_total 2",
		"predfilter_matches_total 1",
		"predfilter_server_docs_published_total 2",
		"predfilter_expressions 1",
		"predfilter_path_cache_misses_total",
		"# TYPE predfilter_stage_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsEndpointStore: with persistence on, /metrics additionally
// reports the store gauges and the WAL-append histogram records.
func TestMetricsEndpointStore(t *testing.T) {
	ts := newTestServer(t, Config{StateDir: t.TempDir(), NoSync: true})
	subscribe(t, ts, "/a/b")
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if err := metrics.ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"predfilter_store_live_subscriptions 1",
		"predfilter_store_appends_total 1",
		`predfilter_store_duration_seconds_count{op="wal_append"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPublishTraced: POST /publish?trace=1 returns the normal response
// plus a trace explaining at least one matched and one missed expression.
func TestPublishTraced(t *testing.T) {
	ts := newTestServer(t, Config{})
	hit := subscribe(t, ts, "/feed/alert")
	miss := subscribe(t, ts, "/feed/trade")

	resp, err := http.Post(ts.URL+"/publish?trace=1", "application/xml",
		strings.NewReader(`<feed><alert/></feed>`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/publish?trace=1: status %d", resp.StatusCode)
	}
	out := decodeBody(t, resp)
	if out["matches"].(float64) != 1 {
		t.Fatalf("matches = %v, want 1", out["matches"])
	}
	tr, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace in response: %v", out)
	}
	if tr["total_nanos"].(float64) <= 0 {
		t.Fatalf("trace lacks stage costs: %v", tr)
	}
	exprs := tr["exprs"].([]any)
	byID := make(map[float64]map[string]any)
	for _, e := range exprs {
		et := e.(map[string]any)
		for _, id := range et["sids"].([]any) {
			byID[id.(float64)] = et
		}
	}
	h := byID[float64(hit)]
	if h == nil || h["matched"] != true {
		t.Fatalf("hit not explained: %v", h)
	}
	if len(h["paths"].([]any)) == 0 {
		t.Fatalf("hit lacks path evidence: %v", h)
	}
	m := byID[float64(miss)]
	if m == nil || m["matched"] != false {
		t.Fatalf("miss not explained: %v", m)
	}
	// The miss still saw the (length, …) and p_feed predicates hit, so it
	// carries evidence showing exactly which predicate came up empty.
	mp := m["paths"].([]any)
	if len(mp) == 0 {
		t.Fatalf("miss lacks path evidence: %v", m)
	}
	preds := mp[0].(map[string]any)["predicates"].([]any)
	var sawMiss bool
	for _, p := range preds {
		if p.(map[string]any)["hit"] == false {
			sawMiss = true
		}
	}
	if !sawMiss {
		t.Fatalf("miss evidence shows no failing predicate: %v", preds)
	}

	// An untraced publish must not carry a trace.
	out = publish(t, ts, `<feed><alert/></feed>`)
	if _, ok := out["trace"]; ok {
		t.Fatalf("untraced publish returned a trace: %v", out)
	}
}

// TestDebugVarsConcurrentPublish hammers /publish while polling
// /debug/vars, checking that every response is valid JSON with mutually
// consistent counters. Run with -race this also exercises the
// TestPublishTracedTimedLikeUntraced: a traced publish is observed as one
// document of each pipeline stage, the explanation pass in neither, and is
// counted as slow past the threshold like any other document.
func TestPublishTracedTimedLikeUntraced(t *testing.T) {
	cfg := Config{}
	cfg.Engine.SlowDocThreshold = time.Nanosecond
	cfg.Engine.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := newTestServer(t, cfg)
	subscribe(t, ts, "/feed/alert")
	scrape := func() map[string]string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		out := make(map[string]string)
		for _, line := range strings.Split(string(body), "\n") {
			if k, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				out[k] = v
			}
		}
		return out
	}
	before := scrape()
	resp, err := http.Post(ts.URL+"/publish?trace=1", "application/xml", strings.NewReader(`<feed><alert/><other/></feed>`))
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); body["trace"] == nil {
		t.Fatalf("no trace in %v", body)
	}
	after := scrape()
	for _, k := range []string{
		`predfilter_stage_duration_seconds_count{stage="parse"}`,
		`predfilter_stage_duration_seconds_count{stage="match"}`,
		"predfilter_slow_docs_total",
	} {
		b, _ := strconv.Atoi(before[k])
		a, err := strconv.Atoi(after[k])
		if err != nil || a-b != 1 {
			t.Errorf("%s: %q → %q, want one more", k, before[k], after[k])
		}
	}
}

// snapshot-once counter reads against the publish-path writers.
func TestDebugVarsConcurrentPublish(t *testing.T) {
	ts := newTestServer(t, Config{})
	subscribe(t, ts, "//alert")

	const publishers = 4
	const perPublisher = 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(publishers)
	for p := 0; p < publishers; p++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				resp, err := http.Post(ts.URL+"/publish", "application/xml",
					strings.NewReader(`<feed><alert/></feed>`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	go func() { wg.Wait(); close(stop) }()

	polls := 0
	for {
		select {
		case <-stop:
			if polls == 0 {
				t.Fatal("no /debug/vars polls overlapped the publishes")
			}
			// Final poll after all publishes settled: exact counts.
			resp, err := http.Get(ts.URL + "/debug/vars")
			if err != nil {
				t.Fatal(err)
			}
			vars := decodeBody(t, resp)
			want := float64(publishers * perPublisher)
			if vars["docs_published"].(float64) != want {
				t.Fatalf("docs_published = %v, want %v", vars["docs_published"], want)
			}
			if vars["matches_total"].(float64) != want {
				t.Fatalf("matches_total = %v, want %v", vars["matches_total"], want)
			}
			return
		default:
		}
		resp, err := http.Get(ts.URL + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/vars: status %d", resp.StatusCode)
		}
		// decodeBody fails the test on malformed JSON — the regression
		// this test exists for.
		vars := decodeBody(t, resp)
		docs := vars["docs_published"].(float64)
		matches := vars["matches_total"].(float64)
		if matches < docs-float64(publishers) || docs < 0 {
			// Every published document matches exactly one subscription;
			// matches may trail docs only by publishes between the two
			// counter loads (bounded by the in-flight publisher count).
			t.Fatalf("inconsistent snapshot: docs=%v matches=%v", docs, matches)
		}
		polls++
	}
}
