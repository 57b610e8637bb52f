package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"predfilter/workload"
)

// post issues a POST without the success assertion of publish().
func post(t *testing.T, url, contentType, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainClose(t *testing.T, resp *http.Response) string {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestPublishLimitErrors(t *testing.T) {
	cfg := Config{}
	cfg.Engine.Limits.MaxDepth = 16
	cfg.Engine.Limits.MaxDocBytes = 1 << 16
	ts := newTestServer(t, cfg)
	subscribe(t, ts, "//d")

	// A depth bomb is unprocessable: 422 naming the tripped bound.
	resp := post(t, ts.URL+"/publish", "application/xml", string(workload.DepthBomb(64)))
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("depth bomb: status %d body %s, want 422", resp.StatusCode, body)
	}
	if !strings.Contains(body, "depth") {
		t.Fatalf("depth bomb error does not name the limit: %s", body)
	}

	// An oversized document (engine's MaxDocBytes) is 413.
	resp = post(t, ts.URL+"/publish", "application/xml", string(workload.PathBomb(1<<15)))
	body = drainClose(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("doc-bytes bomb: status %d body %s, want 413", resp.StatusCode, body)
	}

	// The trips are visible in /stats.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody(t, sresp)
	if stats["limit_stopped"].(float64) != 2 {
		t.Fatalf("limit_stopped = %v, want 2", stats["limit_stopped"])
	}
	trips, ok := stats["limit_trips"].(map[string]any)
	if !ok || trips["depth"].(float64) != 1 || trips["doc_bytes"].(float64) != 1 {
		t.Fatalf("limit_trips = %v, want depth:1 doc_bytes:1", stats["limit_trips"])
	}
}

func TestPublishRequestTimeout(t *testing.T) {
	doc, expr := workload.OccurrenceBomb(800, 806)
	cfg := Config{RequestTimeout: 100 * time.Millisecond, MaxDocumentBytes: 1 << 20}
	ts := newTestServer(t, cfg)
	subscribe(t, ts, expr)

	t0 := time.Now()
	resp := post(t, ts.URL+"/publish", "application/xml", string(doc))
	took := time.Since(t0)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out publish: status %d body %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timed-out publish carries no Retry-After")
	}
	if took > 10*time.Second {
		t.Fatalf("request deadline stop took %v", took)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody(t, sresp)
	if stats["timed_out"].(float64) < 1 {
		t.Fatalf("timed_out = %v, want >= 1", stats["timed_out"])
	}
}

// TestPublishBatchDeadlineCounted: a batch whose request deadline passes
// before its documents are matched reports every item as timed out, and
// counts each in timed_out and limit_stopped, as /publish counts one
// document with the same deadline.
func TestPublishBatchDeadlineCounted(t *testing.T) {
	ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond, Workers: 2})
	subscribe(t, ts, "//a")
	docs := make([]string, 32)
	for i := range docs {
		docs[i] = "<a/>"
	}
	resp, body := postJSON(t, ts.URL+"/publish/batch", map[string]any{"documents": docs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %v", resp.StatusCode, body)
	}
	results, _ := body["results"].([]any)
	if len(results) != len(docs) {
		t.Fatalf("%d results for %d documents", len(results), len(docs))
	}
	for i, r := range results {
		if msg, _ := r.(map[string]any)["error"].(string); !strings.Contains(msg, "deadline") {
			t.Fatalf("item %d: %v, want a deadline error", i, r)
		}
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody(t, sresp)
	for _, k := range []string{"timed_out", "limit_stopped"} {
		if stats[k].(float64) != float64(len(docs)) {
			t.Fatalf("%s = %v, want %d", k, stats[k], len(docs))
		}
	}
}

func TestPublishTracedGoverned(t *testing.T) {
	// The ?trace=1 path runs the deliberately slow explaining match; it
	// must observe the same request deadline and engine limits as the
	// normal path, so a blowup document with trace enabled cannot pin a
	// worker (and its MaxInflight slot) forever.
	doc, expr := workload.OccurrenceBomb(800, 806)
	cfg := Config{RequestTimeout: 100 * time.Millisecond, MaxDocumentBytes: 1 << 20}
	ts := newTestServer(t, cfg)
	subscribe(t, ts, expr)

	t0 := time.Now()
	resp := post(t, ts.URL+"/publish?trace=1", "application/xml", string(doc))
	took := time.Since(t0)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("traced timed-out publish: status %d body %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("traced timed-out publish carries no Retry-After")
	}
	if took > 10*time.Second {
		t.Fatalf("traced deadline stop took %v", took)
	}

	// Structural limits govern the traced parse too.
	cfg2 := Config{}
	cfg2.Engine.Limits.MaxDepth = 16
	ts2 := newTestServer(t, cfg2)
	subscribe(t, ts2, "//d")
	resp = post(t, ts2.URL+"/publish?trace=1", "application/xml", string(workload.DepthBomb(64)))
	body = drainClose(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("traced depth bomb: status %d body %s, want 422", resp.StatusCode, body)
	}
}

func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	// One slot, no queue beyond one waiter. The slot and the queue are
	// held by occurrence bombs that run until the 1s engine deadline, so
	// the third publish must be shed with 429 + Retry-After while the two
	// in-flight requests still run to completion.
	doc, expr := workload.OccurrenceBomb(1000, 1006)
	cfg := Config{MaxInflight: 1, MaxQueued: 1, MaxDocumentBytes: 1 << 20}
	cfg.Engine.Limits.MatchDeadline = time.Second
	ts := newTestServer(t, cfg)
	subscribe(t, ts, expr)

	type outcome struct {
		status int
		retry  string
	}
	results := make(chan outcome, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/publish", "application/xml", strings.NewReader(string(doc)))
			if err != nil {
				results <- outcome{status: -1}
				return
			}
			drainClose(t, resp)
			results <- outcome{status: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
		}()
	}

	// Wait until the slot and the wait queue are actually occupied before
	// probing, polling /debug/vars rather than sleeping a guess.
	saturated := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		vresp, err := http.Get(ts.URL + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		vars := decodeBody(t, vresp)
		if vars["inflight_queued"].(float64) >= 1 {
			saturated = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !saturated {
		t.Fatal("wait queue never filled")
	}

	resp := post(t, ts.URL+"/publish", "application/xml", string(doc))
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated publish: status %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response carries no Retry-After")
	}

	// The in-flight requests complete (with the deadline's 503 — the
	// bomb cannot match — but complete: admission shed only the overflow).
	wg.Wait()
	close(results)
	for o := range results {
		if o.status != http.StatusServiceUnavailable {
			t.Fatalf("in-flight publish finished with %d, want the deadline's 503", o.status)
		}
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody(t, sresp)
	if stats["shed"].(float64) != 1 {
		t.Fatalf("shed = %v, want 1", stats["shed"])
	}
}

func TestDrainingRefusesPublishes(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	subscribe(t, ts, "//a")

	srv.BeginDrain()
	resp := post(t, ts.URL+"/publish", "application/xml", "<a/>")
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining publish: status %d body %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining response carries no Retry-After")
	}
	resp = post(t, ts.URL+"/publish/batch", "application/json", `{"documents":["<a/>"]}`)
	if drainClose(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining batch publish: status %d, want 503", resp.StatusCode)
	}
}

func TestSubscribeBodyTooLarge(t *testing.T) {
	ts := newTestServer(t, Config{MaxRequestBytes: 1024})
	big := fmt.Sprintf(`{"expression":"//a[@k=%s]"}`, strings.Repeat("x", 4096))
	resp := post(t, ts.URL+"/subscriptions", "application/json", big)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized subscribe: status %d body %s, want 413", resp.StatusCode, body)
	}
	// A normal subscription still fits.
	subscribe(t, ts, "//a")
}

func TestPublishBatchBodyTooLarge(t *testing.T) {
	ts := newTestServer(t, Config{MaxRequestBytes: 1024})
	subscribe(t, ts, "//a")
	big := fmt.Sprintf(`{"documents":["<a>%s</a>"]}`, strings.Repeat("x", 4096))
	resp := post(t, ts.URL+"/publish/batch", "application/json", big)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d body %s, want 413", resp.StatusCode, body)
	}
	// A batch under the bound still publishes.
	resp = post(t, ts.URL+"/publish/batch", "application/json", `{"documents":["<a/>"]}`)
	if drainClose(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("small batch: status %d, want 200", resp.StatusCode)
	}
}

// batchRequest is a POST /publish/batch declaring a Content-Length of
// declared; a negative one sends the body chunked.
func batchRequest(body string, declared int64) *http.Request {
	r := httptest.NewRequest("POST", "/publish/batch", strings.NewReader(body))
	r.ContentLength = declared
	return r
}

// TestPublishBatchRequestRead: the batch body is read once under
// MaxRequestBytes. A body of exactly the bound publishes, declared or
// chunked; one byte more is 413 either way, and so is a body over the
// bound whose JSON object ends early; a body shorter than its
// Content-Length is 400.
func TestPublishBatchRequestRead(t *testing.T) {
	const max = 1024
	srv := New(Config{MaxRequestBytes: max})
	if _, err := srv.Preload([]string{"//a"}); err != nil {
		t.Fatal(err)
	}
	const obj = `{"documents":["<a/>"]}`
	exact := obj + strings.Repeat(" ", max-len(obj))
	tooLarge := fmt.Sprintf(`{"error":"request body exceeds %d bytes"}`+"\n", max)
	for _, c := range []struct {
		name     string
		body     string
		declared int64
		code     int
		resp     string
	}{
		{"exactly the bound", exact, max, http.StatusOK, `{"results":[{"ids":[0],"matches":1}],"published":1}` + "\n"},
		{"exactly the bound, chunked", exact, -1, http.StatusOK, `{"results":[{"ids":[0],"matches":1}],"published":1}` + "\n"},
		{"one byte over", exact + " ", max + 1, http.StatusRequestEntityTooLarge, tooLarge},
		{"one byte over, chunked", exact + " ", -1, http.StatusRequestEntityTooLarge, tooLarge},
		{"over the bound after the object", obj + strings.Repeat("x", max), -1, http.StatusRequestEntityTooLarge, tooLarge},
		{"declared over the bound", obj, max + 1, http.StatusRequestEntityTooLarge, tooLarge},
		{"shorter than declared", obj, int64(len(obj)) + 1, http.StatusBadRequest, `{"error":"read body: unexpected EOF"}` + "\n"},
	} {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, batchRequest(c.body, c.declared))
		if rr.Code != c.code || rr.Body.String() != c.resp {
			t.Errorf("%s: status %d body %s, want %d %s", c.name, rr.Code, rr.Body, c.code, c.resp)
		}
	}
}

// TestPublishBatchDeclaredLengthNotTrusted: a request that declares
// MaxRequestBytes (64 MiB by default) and sends 20 bytes costs a bounded
// read buffer, not the declared size.
func TestPublishBatchDeclaredLengthNotTrusted(t *testing.T) {
	srv := New(Config{})
	const body = `{"documents":["<a/>"` // 20 bytes
	run := func() {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, batchRequest(body, srv.cfg.MaxRequestBytes))
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, run) // and one warm-up run
	runtime.ReadMemStats(&after)
	perRun := int64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if allocs > 100 || perRun > srv.cfg.MaxRequestBytes/16 {
		t.Fatalf("a 20-byte body declaring %d bytes costs %v allocations and %d bytes", srv.cfg.MaxRequestBytes, allocs, perRun)
	}
}

func TestHandlerPanicRecovered(t *testing.T) {
	srv := New(Config{})
	// White-box: register a panicking route behind the ServeHTTP recover
	// middleware, standing in for any handler bug.
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d body %s, want 500", resp.StatusCode, body)
	}
	if !strings.Contains(body, "recovered") {
		t.Fatalf("panic response does not say recovered: %s", body)
	}

	// The server keeps serving, and the panic is counted.
	subscribe(t, ts, "//a")
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody(t, sresp)
	if stats["panics_recovered"].(float64) != 1 {
		t.Fatalf("panics_recovered = %v, want 1", stats["panics_recovered"])
	}
}

func TestBatchLimitErrorsPerDocument(t *testing.T) {
	// Governance failures inside a batch are per-result: healthy siblings
	// still match and the batch itself is 200.
	cfg := Config{MaxDocumentBytes: 1 << 20}
	cfg.Engine.Limits.MaxDepth = 8
	ts := newTestServer(t, cfg)
	subscribe(t, ts, "//d")

	bomb := string(workload.DepthBomb(64))
	req := fmt.Sprintf(`{"documents":["<d/>",%q,"<d/>"]}`, bomb)
	resp := post(t, ts.URL+"/publish/batch", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with one bomb: status %d, want 200", resp.StatusCode)
	}
	body := decodeBody(t, resp)
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, i := range []int{0, 2} {
		r := results[i].(map[string]any)
		if r["error"] != nil || r["matches"].(float64) != 1 {
			t.Fatalf("healthy doc %d: %v", i, r)
		}
	}
	mid := results[1].(map[string]any)
	errStr, _ := mid["error"].(string)
	if !strings.Contains(errStr, "depth") {
		t.Fatalf("bomb result does not name the tripped limit: %v", mid)
	}
}
