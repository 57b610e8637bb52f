package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"predfilter"
)

// modelSub is the delivery queue as it was before the ring: a plain slice
// that drops its head when full and is re-sliced by a poll. The ring must
// be indistinguishable from it through the API.
type modelSub struct {
	queue              [][]byte
	delivered, dropped int
}

func (m *modelSub) deliver(doc []byte, limit int) {
	if len(m.queue) >= limit {
		m.queue = m.queue[1:]
		m.dropped++
	}
	m.queue = append(m.queue, doc)
	m.delivered++
}

func (m *modelSub) poll(max int) (docs [][]byte, remaining int) {
	n := min(len(m.queue), max)
	docs, m.queue = m.queue[:n], m.queue[n:]
	return docs, len(m.queue)
}

// pendingDocs lists a subscription's queued documents oldest first without
// dequeuing them.
func pendingDocs(s *Server, sid int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := &s.reg
	out, r := []string{}, g.rings[sid]
	for i := 0; i < int(r.n); i++ {
		out = append(out, string(g.slab[(int(r.chunk)-1)*g.q+(int(r.head)+i)%g.q].body))
	}
	for i := range g.size {
		if e := g.at(i); e.has(sid) {
			out = append(out, string(e.doc.body))
		}
	}
	return out[len(out)-g.pending(sid):]
}

// serve runs one request through the handler in process.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rr
}

func toStrings(docs [][]byte) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = string(d)
	}
	return out
}

// TestQueueRingMatchesModel drives the server and the slice model with the
// same random deliver / poll / unsubscribe / re-subscribe history. After
// every step each live subscription's queued documents, counters and poll
// results must agree.
func TestQueueRingMatchesModel(t *testing.T) {
	const nsubs = 5
	for _, limit := range []int{1, 2, 16, 128} {
		t.Run(fmt.Sprint("limit=", limit), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(limit)))
			srv := New(Config{QueueLimit: limit})
			model := make(map[int]*modelSub)
			subscribe := func(sid int) {
				body := fmt.Sprintf(`{"expression":"/m/s%d","id":%d}`, sid, sid)
				doReq(t, srv, "POST", "/subscriptions", body, http.StatusCreated, nil)
				model[sid] = &modelSub{}
			}
			for sid := 0; sid < nsubs; sid++ {
				subscribe(sid)
			}
			for step := 0; step < 40*limit+400; step++ {
				sid := rng.Intn(nsubs)
				switch op := rng.Intn(20); {
				case op < 14: // publish to a random subset, live or not
					doc := fmt.Sprintf(`<m n="%d">`, step)
					var hit []int
					for i := 0; i < nsubs; i++ {
						if rng.Intn(3) > 0 {
							doc += fmt.Sprintf("<s%d/>", i)
							hit = append(hit, i)
						}
					}
					doc += "</m>"
					want := []float64{}
					for _, i := range hit {
						if m := model[i]; m != nil {
							m.deliver([]byte(doc), limit)
							want = append(want, float64(i))
						}
					}
					if got := publishIDs(t, srv, doc); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: publish ids %v, want %v", step, got, want)
					}
				case op < 18: // poll
					max := []int{1, 2, 3, 10, limit + 5}[rng.Intn(5)]
					path := fmt.Sprintf("/deliveries/%d?max=%d", sid, max)
					m := model[sid]
					if m == nil {
						doReq(t, srv, "GET", path, "", http.StatusNotFound, nil)
						continue
					}
					var got struct {
						Documents []string `json:"documents"`
						Remaining int      `json:"remaining"`
					}
					doReq(t, srv, "GET", path, "", http.StatusOK, &got)
					docs, remaining := m.poll(max)
					if !reflect.DeepEqual(got.Documents, toStrings(docs)) || got.Remaining != remaining {
						t.Fatalf("step %d: poll(%d) = %d docs, %d remaining; want %d, %d",
							step, max, len(got.Documents), got.Remaining, len(docs), remaining)
					}
				case model[sid] != nil:
					doReq(t, srv, "DELETE", fmt.Sprint("/subscriptions/", sid), "", http.StatusNoContent, nil)
					delete(model, sid)
				default:
					subscribe(sid)
				}
				for sid, m := range model {
					var info struct{ Delivered, Dropped, Pending int }
					doReq(t, srv, "GET", fmt.Sprint("/subscriptions/", sid), "", http.StatusOK, &info)
					if info.Delivered != m.delivered || info.Dropped != m.dropped || info.Pending != len(m.queue) {
						t.Fatalf("step %d: sid %d reports %+v, model delivered %d dropped %d pending %d",
							step, sid, info, m.delivered, m.dropped, len(m.queue))
					}
					if got, want := pendingDocs(srv, sid), toStrings(m.queue); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: sid %d queue order differs from the model:\n got %v\nwant %v", step, sid, got, want)
					}
				}
			}
		})
	}
}

// TestDeliverPollUnsubscribeRace runs publishers, a poller and an
// unsubscriber/re-subscriber over the same ids; the race detector checks
// that the queues, the counters and "remaining" are only touched under the
// registry lock.
func TestDeliverPollUnsubscribeRace(t *testing.T) {
	srv := New(Config{QueueLimit: 4, Workers: 2})
	const nsubs = 8
	for sid := 0; sid < nsubs; sid++ {
		doReq(t, srv, "POST", "/subscriptions", fmt.Sprintf(`{"expression":"//x","id":%d}`, sid), http.StatusCreated, nil)
	}
	const rounds = 200
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	serve := func(method, path, body string) int { return serve(srv, method, path, body).Code }
	run(func(i int) {
		if code := serve("POST", "/publish", fmt.Sprintf(`<a n="%d"><x/></a>`, i)); code != http.StatusOK {
			t.Errorf("publish: status %d", code)
		}
	})
	run(func(i int) {
		body := fmt.Sprintf(`{"documents":["<x n=\"%d\"/>","<y/>","<a><x/></a>"]}`, i)
		if code := serve("POST", "/publish/batch", body); code != http.StatusOK {
			t.Errorf("publish/batch: status %d", code)
		}
	})
	run(func(i int) {
		if code := serve("GET", fmt.Sprintf("/deliveries/%d?max=3", i%nsubs), ""); code != http.StatusOK && code != http.StatusNotFound {
			t.Errorf("deliveries: status %d", code)
		}
		serve("GET", fmt.Sprint("/subscriptions/", i%nsubs), "")
	})
	run(func(i int) {
		sid := (i / 2) % nsubs
		if i%2 == 0 {
			serve("DELETE", fmt.Sprint("/subscriptions/", sid), "")
		} else {
			serve("POST", "/subscriptions", fmt.Sprintf(`{"expression":"//x","id":%d}`, sid))
		}
	})
	wg.Wait()
}

// oldBatchItem and the maps below are the publish response shapes as
// encoding/json spelled them before the fused encoder.
type oldBatchItem struct {
	Matches int              `json:"matches"`
	IDs     []predfilter.SID `json:"ids,omitempty"`
	Error   string           `json:"error,omitempty"`
}

func decodeAny(t *testing.T, data []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("invalid JSON: %v\n%.200s", err, data)
	}
	return v
}

func oldJSON(t *testing.T, v any) any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return decodeAny(t, data)
}

func randomSIDs(rng *rand.Rand, n int) []predfilter.SID {
	sids := make([]predfilter.SID, n)
	for i := range sids {
		// Every digit count, 1 to 10.
		sids[i] = predfilter.SID(rng.Int63n(1 << uint(1+rng.Intn(31))))
	}
	return sids
}

// TestPublishResponseGolden: for random result sets the encoder's bytes
// and encoding/json's rendering of the old response shapes decode to equal
// values, and the benchmark client's structs accept them.
func TestPublishResponseGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	errs := []string{"plain", `quote " and \ backslash`, "line\nbreak\ttab", "bad utf8 \xff\xfe end", "<tag> &  "}
	trace := &predfilter.MatchTrace{ParseNanos: 7, TotalNanos: 11}
	for _, n := range []int{0, 1, 2, 9, 8000 + rng.Intn(500)} {
		sids := randomSIDs(rng, n)

		// POST /publish, untraced and traced, and the coordinator's.
		for _, c := range []struct {
			name string
			res  PublishResult
			old  map[string]any
		}{
			{"single", PublishResult{}, map[string]any{}},
			{"traced", PublishResult{Trace: trace, TraceID: "00ab"}, map[string]any{"trace": trace, "trace_id": "00ab"}},
			{"trace id only", PublishResult{TraceID: "ff"}, map[string]any{"trace_id": "ff"}},
			{"degraded", PublishResult{Degraded: true, Skipped: []string{"s\"1", "s2"}, TraceID: "1"},
				map[string]any{"degraded": true, "skipped": []string{"s\"1", "s2"}, "trace_id": "1"}},
			{"degraded, nobody named", PublishResult{Degraded: true}, map[string]any{"degraded": true, "skipped": []string(nil)}},
		} {
			c.res.SIDs = sids
			c.old["matches"], c.old["ids"] = n, sids
			body, reported := appendPublishResult(nil, nil, nil, &c.res)
			if reported != n {
				t.Fatalf("%s, %d ids: reported %d", c.name, n, reported)
			}
			if got, want := decodeAny(t, body), oldJSON(t, c.old); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d ids: decodes to %.300v, want %.300v", c.name, n, got, want)
			}
			var client struct {
				IDs []int `json:"ids"`
			}
			if err := json.Unmarshal(body, &client); err != nil || len(client.IDs) != n {
				t.Fatalf("%s, %d ids: client struct got %d ids, err %v", c.name, n, len(client.IDs), err)
			}
			for i, id := range client.IDs {
				if id != int(sids[i]) {
					t.Fatalf("%s: id %d is %d, want %d", c.name, i, id, sids[i])
				}
			}
		}

		// A /publish/batch element with ids, and one per error string.
		items := []PublishResult{{SIDs: sids, Item: true}}
		old := []oldBatchItem{{Matches: n, IDs: sids}}
		for _, e := range errs {
			items = append(items, PublishResult{SIDs: sids, Item: true, Err: errors.New(e)})
			old = append(old, oldBatchItem{Error: e})
		}
		for i := range items {
			body, _ := appendPublishResult([]byte("  "), nil, nil, &items[i])
			if got, want := decodeAny(t, body), oldJSON(t, old[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch item %d, %d ids: decodes to %.300v, want %.300v", i, n, got, want)
			}
			type clientItem struct {
				IDs   []int  `json:"ids"`
				Error string `json:"error"`
			}
			var client, oldClient clientItem
			oldBody, _ := json.Marshal(old[i])
			if err := json.Unmarshal(oldBody, &oldClient); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(body, &client); err != nil || !reflect.DeepEqual(client, oldClient) {
				t.Fatalf("batch item %d: client struct reads error %q, %d ids (%v); want %q, %d",
					i, client.Error, len(client.IDs), err, oldClient.Error, len(oldClient.IDs))
			}
		}
	}
}

// TestPublishResponseBatchEnvelope: a whole /publish/batch response — a
// match, a parse failure, an empty match — decodes to what the old
// envelope did.
func TestPublishResponseBatchEnvelope(t *testing.T) {
	srv := New(Config{Workers: 2})
	ids, err := srv.Preload([]string{"//alert", "/feed/trade"})
	if err != nil {
		t.Fatal(err)
	}
	rr := serve(srv, "POST", "/publish/batch",
		`{"documents":["<feed><trade/><alert/></feed>","<unclosed>","<other/>"]}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	got := decodeAny(t, rr.Body.Bytes())
	perr := got.(map[string]any)["results"].([]any)[1].(map[string]any)["error"].(string)
	want := oldJSON(t, map[string]any{"published": 2, "results": []oldBatchItem{
		{Matches: 2, IDs: ids}, {Error: perr}, {},
	}})
	if perr == "" || !reflect.DeepEqual(got, want) {
		t.Fatalf("batch response decodes to %v, want %v", got, want)
	}
}

// TestDeliverSkipsRemoved: an id removed between match and delivery is
// neither reported nor delivered to, and a batch item left with no id
// omits "ids" like one that never matched.
func TestDeliverSkipsRemoved(t *testing.T) {
	srv := New(Config{})
	if _, err := srv.Preload([]string{"/a", "/a", "/a"}); err != nil {
		t.Fatal(err)
	}
	if err := srv.ApplyRemove(1); err != nil {
		t.Fatal(err)
	}
	d := &document{[]byte("<a/>")}
	body, n := appendPublishResult(nil, srv, d, &PublishResult{SIDs: []predfilter.SID{0, 1, 2, 7}})
	if n != 2 || string(body) != `{"ids":[0,2],"matches":2}` {
		t.Fatalf("delivered %d, body %s", n, body)
	}
	if got := pendingDocs(srv, 2); len(got) != 1 || got[0] != "<a/>" {
		t.Fatalf("sid 2 queue = %v", got)
	}
	body, n = appendPublishResult(nil, srv, d, &PublishResult{SIDs: []predfilter.SID{1}, Item: true})
	if n != 0 || string(body) != `{"matches":0}` {
		t.Fatalf("delivered %d, body %s", n, body)
	}
}
