package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"predfilter"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return out
}

func subscribe(t *testing.T, ts *httptest.Server, xpe string) int {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/subscriptions", map[string]string{"expression": xpe})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe %q: status %d body %v", xpe, resp.StatusCode, body)
	}
	return int(body["id"].(float64))
}

func publish(t *testing.T, ts *httptest.Server, doc string) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+"/publish", "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body := decodeBody(t, resp)
		t.Fatalf("publish: status %d body %v", resp.StatusCode, body)
	}
	return decodeBody(t, resp)
}

func TestSubscribePublishDeliver(t *testing.T) {
	ts := newTestServer(t, Config{})
	alerts := subscribe(t, ts, "//alert[@kind=weather]")
	trades := subscribe(t, ts, "/feed/trade[@sym=ACME]")
	all := subscribe(t, ts, "/feed/*")

	out := publish(t, ts, `<feed><alert kind="weather"><msg/></alert></feed>`)
	if out["matches"].(float64) != 2 {
		t.Fatalf("matches = %v, want 2", out["matches"])
	}
	out = publish(t, ts, `<feed><trade sym="ACME"><px/></trade></feed>`)
	if out["matches"].(float64) != 2 {
		t.Fatalf("matches = %v, want 2", out["matches"])
	}
	out = publish(t, ts, `<note/>`)
	if out["matches"].(float64) != 0 {
		t.Fatalf("matches = %v, want 0", out["matches"])
	}

	// Drain deliveries.
	drain := func(id int) []any {
		resp, err := http.Get(fmt.Sprintf("%s/deliveries/%d?max=10", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deliveries: status %d", resp.StatusCode)
		}
		return decodeBody(t, resp)["documents"].([]any)
	}
	if docs := drain(alerts); len(docs) != 1 || !strings.Contains(docs[0].(string), "alert") {
		t.Errorf("alerts deliveries = %v", docs)
	}
	if docs := drain(trades); len(docs) != 1 || !strings.Contains(docs[0].(string), "trade") {
		t.Errorf("trades deliveries = %v", docs)
	}
	if docs := drain(all); len(docs) != 2 {
		t.Errorf("all deliveries = %d, want 2", len(docs))
	}
	// Drained: second read is empty.
	if docs := drain(all); len(docs) != 0 {
		t.Errorf("second drain = %d, want 0", len(docs))
	}
}

func TestUnsubscribe(t *testing.T) {
	ts := newTestServer(t, Config{})
	id := subscribe(t, ts, "/a")
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/subscriptions/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	out := publish(t, ts, `<a/>`)
	if out["matches"].(float64) != 0 {
		t.Errorf("matches after unsubscribe = %v", out["matches"])
	}
	// Deleting again is a 404.
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("second delete: status %d, want 404", resp2.StatusCode)
	}
}

func TestSubscriptionInfoAndStats(t *testing.T) {
	ts := newTestServer(t, Config{})
	id := subscribe(t, ts, "/a/b")
	subscribe(t, ts, "/a/b") // duplicate shares the engine entry
	publish(t, ts, `<a><b/></a>`)

	resp, err := http.Get(fmt.Sprintf("%s/subscriptions/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody(t, resp)
	if info["expression"] != "/a/b" || info["delivered"].(float64) != 1 || info["pending"].(float64) != 1 {
		t.Errorf("info = %v", info)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody(t, resp)
	if stats["subscriptions"].(float64) != 2 {
		t.Errorf("stats subscriptions = %v", stats["subscriptions"])
	}
	if stats["distinct_expressions"].(float64) != 1 {
		t.Errorf("stats distinct_expressions = %v", stats["distinct_expressions"])
	}
}

func TestQueueOverflowDropsOldest(t *testing.T) {
	ts := newTestServer(t, Config{QueueLimit: 2})
	id := subscribe(t, ts, "/m")
	publish(t, ts, `<m v="1"/>`)
	publish(t, ts, `<m v="2"/>`)
	publish(t, ts, `<m v="3"/>`)

	resp, err := http.Get(fmt.Sprintf("%s/deliveries/%d?max=10", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody(t, resp)
	docs := body["documents"].([]any)
	if len(docs) != 2 {
		t.Fatalf("kept %d documents, want 2", len(docs))
	}
	if !strings.Contains(docs[0].(string), `v="2"`) || !strings.Contains(docs[1].(string), `v="3"`) {
		t.Errorf("oldest not dropped: %v", docs)
	}

	resp, err = http.Get(fmt.Sprintf("%s/subscriptions/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody(t, resp)
	if info["dropped"].(float64) != 1 {
		t.Errorf("dropped = %v, want 1", info["dropped"])
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{MaxDocumentBytes: 64})
	cases := []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"bad-json", func() *http.Response {
			resp, _ := http.Post(ts.URL+"/subscriptions", "application/json", strings.NewReader("{"))
			return resp
		}, http.StatusBadRequest},
		{"empty-expression", func() *http.Response {
			resp, _ := postJSONResp(ts.URL+"/subscriptions", map[string]string{"expression": "  "})
			return resp
		}, http.StatusBadRequest},
		{"bad-expression", func() *http.Response {
			resp, _ := postJSONResp(ts.URL+"/subscriptions", map[string]string{"expression": "]["})
			return resp
		}, http.StatusUnprocessableEntity},
		{"bad-xml", func() *http.Response {
			resp, _ := http.Post(ts.URL+"/publish", "application/xml", strings.NewReader("<a><b></a>"))
			return resp
		}, http.StatusUnprocessableEntity},
		{"too-large", func() *http.Response {
			resp, _ := http.Post(ts.URL+"/publish", "application/xml", strings.NewReader("<a>"+strings.Repeat("x", 100)+"</a>"))
			return resp
		}, http.StatusRequestEntityTooLarge},
		{"too-large-chunked", func() *http.Response {
			resp, _ := http.Post(ts.URL+"/publish", "application/xml", io.MultiReader(strings.NewReader("<a>"+strings.Repeat("x", 100)+"</a>")))
			return resp
		}, http.StatusRequestEntityTooLarge},
		{"chunked", func() *http.Response { // no declared length: the growing read
			resp, _ := http.Post(ts.URL+"/publish", "application/xml", io.MultiReader(strings.NewReader("<a><b/></a>")))
			return resp
		}, http.StatusOK},
		{"declared-length", func() *http.Response { // the exact-size read
			resp, _ := http.Post(ts.URL+"/publish", "application/xml", strings.NewReader("<a><b/></a>"))
			return resp
		}, http.StatusOK},
		{"unknown-subscription", func() *http.Response {
			resp, _ := http.Get(ts.URL + "/deliveries/999")
			return resp
		}, http.StatusNotFound},
		{"bad-id", func() *http.Response {
			resp, _ := http.Get(ts.URL + "/deliveries/xyz")
			return resp
		}, http.StatusBadRequest},
		{"bad-max", func() *http.Response {
			id := subscribe(t, ts, "/q")
			resp, _ := http.Get(fmt.Sprintf("%s/deliveries/%d?max=-1", ts.URL, id))
			return resp
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestPublishShortBody: a body that ends before its declared length is a
// bad request, not a document.
func TestPublishShortBody(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/publish", strings.NewReader("<a><b/>"))
	req.ContentLength = 11 // what <a><b/></a> would have declared
	rec := httptest.NewRecorder()
	New(Config{}).ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "read body") {
		t.Fatalf("short body: status %d %s, want 400 read body", rec.Code, rec.Body)
	}
}

func postJSONResp(url string, body any) (*http.Response, error) {
	data, _ := json.Marshal(body)
	return http.Post(url, "application/json", bytes.NewReader(data))
}

// TestConcurrentPublish hammers publish from several goroutines while
// subscriptions are added; counts must be coherent.
func TestConcurrentPublish(t *testing.T) {
	ts := newTestServer(t, Config{QueueLimit: 10000, Engine: predfilter.Config{}})
	id := subscribe(t, ts, "/doc")
	const (
		workers = 8
		per     = 20
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp, err := http.Post(ts.URL+"/publish", "application/xml", strings.NewReader("<doc/>"))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	resp, err := http.Get(fmt.Sprintf("%s/subscriptions/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody(t, resp)
	if got := info["delivered"].(float64); got != workers*per {
		t.Errorf("delivered = %v, want %d", got, workers*per)
	}
}

func TestPreload(t *testing.T) {
	srv := New(Config{})
	ids, err := srv.Preload([]string{"/a/b", "//c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	out := publish(t, ts, `<a><b/><c/></a>`)
	if out["matches"].(float64) != 2 {
		t.Errorf("matches = %v, want 2", out["matches"])
	}
	if _, err := srv.Preload([]string{"]["}); err == nil {
		t.Error("Preload accepted garbage")
	}
}

func TestPublishBatch(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	alerts := subscribe(t, ts, "//alert")
	subscribe(t, ts, "/feed/trade")

	resp, body := postJSON(t, ts.URL+"/publish/batch", map[string]any{
		"documents": []string{
			`<feed><alert/></feed>`,
			`<unclosed>`,
			`<feed><trade/><alert/></feed>`,
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %v", resp.StatusCode, body)
	}
	if body["published"].(float64) != 2 {
		t.Fatalf("published = %v, want 2", body["published"])
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	r0 := results[0].(map[string]any)
	r1 := results[1].(map[string]any)
	r2 := results[2].(map[string]any)
	if r0["matches"].(float64) != 1 || r2["matches"].(float64) != 2 {
		t.Fatalf("matches = %v / %v, want 1 / 2", r0["matches"], r2["matches"])
	}
	if r1["error"] == nil || r1["error"].(string) == "" {
		t.Fatalf("malformed document did not report an error: %v", r1)
	}

	// Matched documents were queued for delivery, in batch order.
	resp, err := http.Get(fmt.Sprintf("%s/deliveries/%d?max=10", ts.URL, alerts))
	if err != nil {
		t.Fatal(err)
	}
	docs := decodeBody(t, resp)["documents"].([]any)
	if len(docs) != 2 {
		t.Fatalf("alert deliveries = %d, want 2", len(docs))
	}
	if !strings.Contains(docs[1].(string), "trade") {
		t.Fatalf("deliveries out of batch order: %v", docs)
	}
}

func TestPublishBatchValidation(t *testing.T) {
	ts := newTestServer(t, Config{MaxDocumentBytes: 32})
	resp, _ := postJSON(t, ts.URL+"/publish/batch", map[string]any{"documents": []string{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/publish/batch", map[string]any{
		"documents": []string{"<a>" + strings.Repeat("x", 64) + "</a>"},
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized document: status %d, want 413", resp.StatusCode)
	}
}

func TestDebugEndpoints(t *testing.T) {
	// pprof is off by default: the profiling surface must not leak into
	// production. /debug/vars is observability, not profiling, and stays
	// on unconditionally.
	ts := newTestServer(t, Config{})
	resp0, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without Debug: status %d, want 404", resp0.StatusCode)
	}
	resp0, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars without Debug: status %d, want 200 (always on)", resp0.StatusCode)
	}

	dbg := newTestServer(t, Config{Debug: true})
	subscribe(t, dbg, "//alert")
	publish(t, dbg, `<feed><alert/></feed>`)
	resp, err := http.Get(dbg.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", resp.StatusCode)
	}
	vars := decodeBody(t, resp)
	if vars["docs_published"].(float64) != 1 {
		t.Fatalf("docs_published = %v, want 1", vars["docs_published"])
	}
	if vars["matches_total"].(float64) != 1 {
		t.Fatalf("matches_total = %v, want 1", vars["matches_total"])
	}
	if vars["gomaxprocs"].(float64) < 1 {
		t.Fatalf("gomaxprocs = %v", vars["gomaxprocs"])
	}
	resp, err = http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: status %d", resp.StatusCode)
	}
}

func TestStatsReportPathCache(t *testing.T) {
	ts := newTestServer(t, Config{Debug: true})
	subscribe(t, ts, "/a/b")
	publish(t, ts, `<a><b/></a>`)
	publish(t, ts, `<a><b/></a>`) // second publish rides the path cache

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody(t, resp)
	pc, ok := stats["path_cache"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing path_cache: %v", stats)
	}
	if pc["hits"].(float64) < 1 {
		t.Errorf("path_cache hits = %v, want >= 1", pc["hits"])
	}
	if pc["entries"].(float64) < 1 || pc["max_bytes"].(float64) <= 0 {
		t.Errorf("path_cache residency = %v", pc)
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars := decodeBody(t, resp)
	if _, ok := vars["path_cache"].(map[string]any); !ok {
		t.Fatalf("debug vars missing path_cache: %v", vars)
	}
}

func TestStatsOmitDisabledPathCache(t *testing.T) {
	ts := newTestServer(t, Config{Engine: predfilter.Config{PathCacheBytes: -1}})
	subscribe(t, ts, "/a/b")
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody(t, resp)
	if _, ok := stats["path_cache"]; ok {
		t.Fatalf("path_cache reported despite being disabled: %v", stats)
	}
}

// lockedBuffer collects log output written from several goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestSlowMatchCounted: slow-document accounting must see match time, not
// only parse time, on /publish and on /publish/batch alike. The threshold
// is one nanosecond, so every document is slow and no wall-clock margin
// decides the count; the logged records then show the total is parse plus
// match. The document parses in microseconds and matches in tens of
// milliseconds (an ambiguous path with no chained combination: exhaustive
// occurrence determination), so its match time is nonzero on any clock.
func TestSlowMatchCounted(t *testing.T) {
	var logged lockedBuffer
	ts := newTestServer(t, Config{Workers: 2, Engine: predfilter.Config{
		PathCacheBytes:   -1,
		SlowDocThreshold: time.Nanosecond,
		Logger:           slog.New(slog.NewJSONHandler(&logged, nil)),
	}})
	subscribe(t, ts, strings.Repeat("//a", 20))
	slow := strings.Repeat("<a>", 18) + strings.Repeat("</a>", 18)
	slowDocs := func() float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		return decodeBody(t, resp)["slow_docs"].(float64)
	}

	publish(t, ts, slow)
	if got := slowDocs(); got != 1 {
		t.Fatalf("slow_docs after a publish = %v, want 1", got)
	}
	resp, body := postJSON(t, ts.URL+"/publish/batch", map[string]any{"documents": []string{slow, slow}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %v", resp.StatusCode, body)
	}
	if got := slowDocs(); got != 3 {
		t.Fatalf("slow_docs after a batch of two = %v, want 3", got)
	}
	records := strings.Split(strings.TrimSpace(logged.String()), "\n")
	if len(records) != 3 {
		t.Fatalf("%d slow-document records, want 3:\n%s", len(records), logged.String())
	}
	for _, line := range records {
		var rec struct {
			Total int64 `json:"total_ns"`
			Parse int64 `json:"parse_ns"`
			Match int64 `json:"match_ns"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Match <= 0 || rec.Total != rec.Parse+rec.Match {
			t.Fatalf("slow-document record leaves out the match: %s", line)
		}
	}
}

// A subscription the engine rejects leaves publishing as it was: 422 on
// the subscribe, then /publish and /publish/batch of a document that
// reaches the rejected expression's decomposition answer with the
// registered expression's id, not a recovered panic.
func TestRejectedSubscribeKeepsPublishing(t *testing.T) {
	s := New(Config{})
	do := func(path, body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rr
	}
	rr := do("/subscriptions", `{"expression":"/a//b"}`)
	if rr.Code != http.StatusCreated {
		t.Fatalf("subscribe /a//b: %d %s", rr.Code, rr.Body)
	}
	var sub struct {
		ID predfilter.SID `json:"id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if rr := do("/publish", "<z/>"); rr.Code != http.StatusOK {
		t.Fatalf("first publish: %d %s", rr.Code, rr.Body)
	}
	if rr := do("/subscriptions", `{"expression":"/a[b]/*[c]"}`); rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("subscribe /a[b]/*[c]: %d %s, want 422", rr.Code, rr.Body)
	}
	ids := fmt.Sprintf(`"ids":[%d]`, sub.ID)
	if rr := do("/publish", "<a><b/></a>"); rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), ids) {
		t.Fatalf("publish after the rejected subscribe = %d %s, want 200 with %s", rr.Code, rr.Body, ids)
	}
	rr = do("/publish/batch", `{"documents":["<a><b/><c/></a>"]}`)
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), ids) {
		t.Fatalf("batch after the rejected subscribe = %d %s, want 200 with %s", rr.Code, rr.Body, ids)
	}
}
