//go:build !race

// The race detector's instrumentation changes allocation behavior, so the
// AllocsPerRun assertions only run in the regular test legs.

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predfilter"
)

// wideServer has n subscriptions that every <x/> document matches, with
// their queues already full.
func wideServer(t *testing.T, n int) *Server {
	t.Helper()
	srv := New(Config{QueueLimit: 16, Workers: 2})
	exprs := make([]string, n)
	for i := range exprs {
		exprs[i] = "//x"
	}
	if _, err := srv.Preload(exprs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		if rr := serve(srv, "POST", "/publish", "<x/>"); rr.Code != http.StatusOK {
			t.Fatalf("publish: status %d", rr.Code)
		}
	}
	return srv
}

// TestDeliverAllocs pins the steady-state cost of the delivery pass: one
// document's emitted ids committed to 8 192 full queues allocates its
// queue record and nothing per subscription (about 500 allocations when
// every full queue re-grew its slice).
func TestDeliverAllocs(t *testing.T) {
	const n = 8192
	srv := wideServer(t, n)
	sids := make([]predfilter.SID, n)
	for i := range sids {
		sids[i] = predfilter.SID(i)
	}
	em := new(predfilter.Emitted)
	em.SetSIDs(sids)
	res := PublishResult{Emit: em}
	doc := []byte("<x/>")
	buf, _ := appendPublishResult(nil, srv, &document{doc}, &res)
	got := testing.AllocsPerRun(20, func() {
		var delivered int
		buf, delivered = appendPublishResult(buf[:0], srv, &document{doc}, &res)
		if delivered != n {
			t.Fatalf("delivered to %d, want %d", delivered, n)
		}
	})
	if got > 4 {
		t.Fatalf("delivery pass allocs = %v, want <= 4", got)
	}
}

// TestDecodeBatchAllocs pins the one-pass request decode: a 32-document
// body as json.Marshal spells it costs one allocation per document, its
// exactly sized bytes, plus the slice holding them.
func TestDecodeBatchAllocs(t *testing.T) {
	docs := make([]string, 32)
	for i := range docs {
		docs[i] = fmt.Sprintf(`<feed n="%d"><item>a &amp; b</item><alert/></feed>`, i)
	}
	body := []byte(marshalBatch(docs...))
	got := testing.AllocsPerRun(20, func() {
		if out, ok := decodeDocuments(body); !ok || len(out) != len(docs) {
			t.Fatalf("decoded %d documents, ok %v", len(out), ok)
		}
	})
	if got > float64(len(docs)+1) {
		t.Fatalf("decoding %d documents allocates %v times, want <= %d", len(docs), got, len(docs)+1)
	}
}

// TestPublishBatchAllocs bounds a whole /publish/batch request of 32
// documents with 8 192 matches each, through ServeHTTP: request decoding,
// parsing, matching, delivery and the response. Go 1.24 measures 157–166
// allocations (median 160) with the ids emitted; 190 when each document's
// ids came as a []SID, 235 when encoding/json decoded the request into
// strings that were then copied. The bound is the median plus 10 %.
func TestPublishBatchAllocs(t *testing.T) {
	srv := wideServer(t, 8192)
	body := `{"documents":["<x/>"` + strings.Repeat(`,"<x/>"`, 31) + `]}`
	post := func() {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest("POST", "/publish/batch", strings.NewReader(body)))
		if rr.Code != http.StatusOK || rr.Body.Len() < 32*8192*4 {
			t.Fatalf("batch: status %d, %d bytes", rr.Code, rr.Body.Len())
		}
	}
	post()
	if got := testing.AllocsPerRun(10, post); got >= 176 {
		t.Fatalf("batch request allocs = %v, want < 176", got)
	}
}

// TestPublishAllocs pins a single /publish through ServeHTTP: three
// subscriptions and a 3-element document, request and recorder included.
// The batch runner matches a one-document batch with its result on the
// stack; while that result escaped, the count was one higher.
func TestPublishAllocs(t *testing.T) {
	srv := New(Config{})
	if _, err := srv.Preload([]string{"/a/b", "//c", "/a[@x=1]/c"}); err != nil {
		t.Fatal(err)
	}
	post := func() {
		if rr := serve(srv, "POST", "/publish", `<a x="1"><b/><c/></a>`); rr.Code != http.StatusOK {
			t.Fatalf("publish: status %d", rr.Code)
		}
	}
	post()
	if got := testing.AllocsPerRun(200, post); got > 28 {
		t.Fatalf("publish allocs = %v, want <= 28", got)
	}
}
