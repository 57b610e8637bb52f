package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"weak"

	"predfilter"
)

// historyPool is the id space of the delivery histories: 140 ids, so the
// log's bitsets span three words, plus the last id whose digits are
// pre-rendered and the first one rendered by putDecimal.
var historyPool = func() []int {
	pool := make([]int, 0, 142)
	for id := 0; id < 140; id++ {
		pool = append(pool, id)
	}
	return append(pool, 999_999, 1_000_000)
}()

// historyTags is how many element names the history documents draw from;
// id i subscribes to /h/t(i mod historyTags), so several ids share an
// expression and a publish reports them in bind order.
const historyTags = 12

// deliveryHistory drives a server and the slice model (modelSub) with one
// history of publishes, polls, unsubscribes and re-subscribes, and compares
// response bytes, subscription info, queued documents and poll results
// after every step.
type deliveryHistory struct {
	t     *testing.T
	srv   *Server
	q     int
	step  int
	model map[int]*modelSub
	// fallbackIDs counts reported ids whose digits putDecimal rendered.
	fallbackIDs int
}

func newDeliveryHistory(t *testing.T, q int) *deliveryHistory {
	h := &deliveryHistory{t: t, srv: New(Config{QueueLimit: q, Workers: 1}), q: q, model: map[int]*modelSub{}}
	// Half the pool to begin with: the rest registers after log entries
	// exist, beyond the bitsets those entries were logged with.
	for _, id := range historyPool[:70] {
		h.toggle(id)
	}
	return h
}

// toggle unsubscribes a live id and subscribes one that is not.
func (h *deliveryHistory) toggle(id int) {
	if h.model[id] != nil {
		doReq(h.t, h.srv, "DELETE", fmt.Sprint("/subscriptions/", id), "", http.StatusNoContent, nil)
		delete(h.model, id)
		return
	}
	body := fmt.Sprintf(`{"expression":"/h/t%d","id":%d}`, id%historyTags, id)
	doReq(h.t, h.srv, "POST", "/subscriptions", body, http.StatusCreated, nil)
	h.model[id] = &modelSub{}
}

// expect delivers doc to the model for each of ids that is live there and
// returns the publish result those ids should produce.
func (h *deliveryHistory) expect(doc string, ids []int, item bool) string {
	var live []string
	for _, id := range ids {
		if m := h.model[id]; m != nil {
			m.deliver([]byte(doc), h.q)
			live = append(live, strconv.Itoa(id))
			if id >= 1e6 {
				h.fallbackIDs++
			}
		}
	}
	switch {
	case len(live) > 0:
		return `{"ids":[` + strings.Join(live, ",") + `],"matches":` + strconv.Itoa(len(live)) + `}`
	case item:
		return `{"matches":0}`
	}
	return `{"ids":[],"matches":0}`
}

// document returns a distinct document holding the tags that rate selects.
func (h *deliveryHistory) document(rate, salt byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<h n="%d">`, h.step)
	for tag := 0; tag < historyTags; tag++ {
		if byte(tag*37+int(salt)*11) < rate {
			fmt.Fprintf(&b, "<t%d/>", tag)
		}
	}
	return b.String() + "</h>"
}

// engineIDs is the match the server's publish should report, before
// delivery drops any id.
func (h *deliveryHistory) engineIDs(doc string) []int {
	sids, err := h.srv.eng.MatchContext(context.Background(), []byte(doc))
	if err != nil {
		h.t.Fatal(err)
	}
	ids := make([]int, len(sids))
	for i, sid := range sids {
		ids[i] = int(sid)
	}
	return ids
}

// run decodes one op from three bytes and checks the server against the
// model afterwards.
func (h *deliveryHistory) run(op, a, b byte) {
	h.step++
	id := historyPool[int(a)%len(historyPool)]
	switch op % 8 {
	case 0, 1, 2: // the delivery pass over an id list: rate a, order b, dead ids included
		doc := fmt.Sprintf("<d n=%q/>", strconv.Itoa(h.step))
		var ids []int
		for i := range historyPool {
			j := (i + int(b)) % len(historyPool)
			if b&1 != 0 {
				j = len(historyPool) - 1 - j
			}
			if byte(historyPool[j]*53+h.step*29) < a {
				ids = append(ids, historyPool[j])
			}
		}
		sids := make([]predfilter.SID, len(ids))
		for i, id := range ids {
			sids[i] = predfilter.SID(id)
		}
		body, _ := appendPublishResult(nil, h.srv, &document{[]byte(doc)}, &PublishResult{SIDs: sids})
		if want := h.expect(doc, ids, false); string(body) != want {
			h.t.Fatalf("step %d: deliver wrote %s, want %s", h.step, body, want)
		}
	case 3: // POST /publish
		doc := h.document(a, b)
		want := h.expect(doc, h.engineIDs(doc), false) + "\n"
		if rr := serve(h.srv, "POST", "/publish", doc); rr.Code != http.StatusOK || rr.Body.String() != want {
			h.t.Fatalf("step %d: publish = %d %s, want %s", h.step, rr.Code, rr.Body, want)
		}
	case 4: // POST /publish/batch of three documents
		docs := []string{h.document(a, b), h.document(a, b+1) + " ", h.document(^a, b)}
		var results []string
		for _, doc := range docs {
			results = append(results, h.expect(doc, h.engineIDs(doc), true))
		}
		want := `{"results":[` + strings.Join(results, ",") + `],"published":3}` + "\n"
		if rr := serve(h.srv, "POST", "/publish/batch", marshalBatch(docs...)); rr.Code != http.StatusOK || rr.Body.String() != want {
			h.t.Fatalf("step %d: batch = %d %s, want %s", h.step, rr.Code, rr.Body, want)
		}
	case 5, 6: // poll
		max := []int{1, 2, 3, h.q + 5}[b%4]
		path := fmt.Sprintf("/deliveries/%d?max=%d", id, max)
		m := h.model[id]
		if m == nil {
			doReq(h.t, h.srv, "GET", path, "", http.StatusNotFound, nil)
			break
		}
		var got struct {
			Documents []string `json:"documents"`
			Remaining int      `json:"remaining"`
		}
		doReq(h.t, h.srv, "GET", path, "", http.StatusOK, &got)
		docs, remaining := m.poll(max)
		if !reflect.DeepEqual(got.Documents, toStrings(docs)) || got.Remaining != remaining {
			h.t.Fatalf("step %d: sid %d poll(%d) = %q, %d remaining; want %q, %d",
				h.step, id, max, got.Documents, got.Remaining, toStrings(docs), remaining)
		}
	default:
		h.toggle(id)
	}
	h.check(id)
}

// check compares every live id's counters and queued documents with the
// model, and id's GET /subscriptions/{id} response.
func (h *deliveryHistory) check(id int) {
	if m := h.model[id]; m != nil {
		var info map[string]any
		doReq(h.t, h.srv, "GET", fmt.Sprint("/subscriptions/", id), "", http.StatusOK, &info)
		want := map[string]any{"expression": fmt.Sprintf("/h/t%d", id%historyTags),
			"delivered": float64(m.delivered), "dropped": float64(m.dropped), "pending": float64(len(m.queue))}
		if !reflect.DeepEqual(info, want) {
			h.t.Fatalf("step %d: GET /subscriptions/%d = %v, want %v", h.step, id, info, want)
		}
	}
	for id, m := range h.model {
		h.srv.mu.Lock()
		info := h.srv.reg.info(id)
		h.srv.mu.Unlock()
		if info.Delivered != int64(m.delivered) || info.Dropped != int64(m.dropped) || info.Pending != len(m.queue) {
			h.t.Fatalf("step %d: sid %d reports %+v, model delivered %d dropped %d pending %d",
				h.step, id, info, m.delivered, m.dropped, len(m.queue))
		}
		if got, want := pendingDocs(h.srv, id), toStrings(m.queue); !reflect.DeepEqual(got, want) {
			h.t.Fatalf("step %d: sid %d queue differs from the model:\n got %q\nwant %q", h.step, id, got, want)
		}
	}
}

var historyLimits = []int{1, 2, 3, 16}

// runDeliveryHistory runs the history data encodes: its first byte picks
// the queue limit, every further three bytes one op.
func runDeliveryHistory(t *testing.T, data []byte) *deliveryHistory {
	if len(data) == 0 {
		return nil
	}
	h := newDeliveryHistory(t, historyLimits[int(data[0])%len(historyLimits)])
	for i := 1; i+2 < len(data) && h.step < 400; i += 3 {
		h.run(data[i], data[i+1], data[i+2])
	}
	return h
}

// FuzzDeliveryHistory holds the delivery log, its rings and its counters
// to the slice model over histories decoded from bytes.
func FuzzDeliveryHistory(f *testing.F) {
	f.Add([]byte{0, 0, 255, 0, 0, 200, 1, 5, 0, 3})
	f.Add([]byte{3, 2, 250, 7, 2, 251, 8, 2, 252, 9, 7, 140, 0, 0, 255, 2, 5, 141, 0, 6, 3, 3})
	f.Add([]byte{1, 4, 128, 0, 3, 255, 1, 7, 5, 0, 0, 10, 2, 6, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		runDeliveryHistory(t, data)
	})
}

// TestDeliveryHistoryWide runs long seeded histories at every queue limit
// and checks that they exercised what the fuzz target cannot promise: both
// eviction arms, and ids rendered by putDecimal.
func TestDeliveryHistoryWide(t *testing.T) {
	for i, q := range historyLimits {
		t.Run(fmt.Sprint("limit=", q), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(q)))
			data := []byte{byte(i)}
			for step := 0; step < 400; step++ {
				op, a, b := byte(rng.Intn(8)), byte(rng.Intn(256)), byte(rng.Intn(256))
				if step%50 < 25 && op < 3 {
					a = 255 - a/8 // a run of wide matches, so windows pass q
				}
				switch step {
				case 100, 101:
					op, a = 7, byte(140+step-100) // subscribe 999 999 and 1 000 000
				case 150, 151, 152, 153:
					op, a = 7, 5 // id 5 leaves and returns while its bits are in the log
				}
				data = append(data, op, a, b)
			}
			h := runDeliveryHistory(t, data)
			if g := &h.srv.reg; g.ringPushes == 0 || g.passed == 0 || h.fallbackIDs == 0 {
				t.Fatalf("history left an arm untested: %d ring pushes, %d bits passed over, %d ids past 10⁶",
					g.ringPushes, g.passed, h.fallbackIDs)
			}
		})
	}
}

// TestDeliveryRetention: the log and the rings keep a document reachable
// only while some live subscription has it pending, plus the at most
// 2 × QueueLimit entries still in the log.
func TestDeliveryRetention(t *testing.T) {
	srv := New(Config{QueueLimit: 1}) // a log of two entries
	if _, err := srv.Preload([]string{"/a", "/a", "/b"}); err != nil {
		t.Fatal(err)
	}
	publish := func(sids ...predfilter.SID) weak.Pointer[document] {
		d := &document{[]byte("<a/>")}
		appendPublishResult(nil, srv, d, &PublishResult{SIDs: sids})
		return weak.Make(d)
	}
	poll := func(id int) { doReq(t, srv, "GET", fmt.Sprintf("/deliveries/%d?max=5", id), "", http.StatusOK, nil) }
	reachable := func(what string, p weak.Pointer[document], want bool) {
		t.Helper()
		runtime.GC()
		if got := p.Value() != nil; got != want {
			t.Fatalf("%s: reachable = %v, want %v", what, got, want)
		}
	}

	d := publish(0)
	poll(0)
	reachable("a polled document", d, false)

	d = publish(0, 1)
	poll(0)
	reachable("a document still pending for sid 1", d, true)
	if err := srv.ApplyRemove(1); err != nil {
		t.Fatal(err)
	}
	reachable("a document every sid polled or unsubscribed", d, false)
	if err := srv.ApplyAdd(1, "/a"); err != nil {
		t.Fatal(err)
	}

	reachable("a document that matched no live sid", publish(5, 9), false)
	reachable("a document that matched nothing", publish(), false)

	d = publish(0)
	publish(1)
	publish(1) // d leaves the log pending for sid 0
	reachable("a pending document out of the log", d, true)
	if got := pendingDocs(srv, 0); len(got) != 1 || srv.reg.rings[0].n != 1 {
		t.Fatalf("sid 0 has %d pending, %d in its ring; want 1 and 1", len(got), srv.reg.rings[0].n)
	}
	displaced := publish(0) // displaces d: QueueLimit is 1
	publish(1)
	publish(1) // ...and d is released once the entry that displaced it leaves the log
	reachable("a ring document drop-oldest displaced", d, false)
	reachable("the document that displaced it", displaced, true)
	poll(0)
	reachable("the displacing document, polled", displaced, false)

	d = publish(0)
	publish(1)
	publish(1) // d is in sid 0's ring
	publish(0)
	publish(0) // two newer documents for sid 0 displace d
	publish(0) // the older of them leaves the log passed over, and d with it
	reachable("a ring document displaced, its sid passed over at eviction", d, false)

	if srv.reg.rings[2].chunk != 0 || srv.reg.rings[0].chunk == 0 {
		t.Fatalf("ring chunks: sid 2 (never matched) %d, sid 0 %d", srv.reg.rings[2].chunk, srv.reg.rings[0].chunk)
	}
}

// TestSubscribeIDOutOfRange: an explicit id beyond int32 is refused, not
// wrapped onto another id.
func TestSubscribeIDOutOfRange(t *testing.T) {
	srv := New(Config{})
	for _, id := range []string{"4294967301", "2147483648", "-1"} {
		rr := serve(srv, "POST", "/subscriptions", `{"expression":"/a","id":`+id+`}`)
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("id %s: status %d (%s), want 400", id, rr.Code, rr.Body)
		}
	}
	var list struct{ Count int }
	doReq(t, srv, "GET", "/subscriptions", "", http.StatusOK, &list)
	doReq(t, srv, "GET", "/subscriptions/5", "", http.StatusNotFound, nil)
	if list.Count != 0 {
		t.Fatalf("%d subscriptions registered, want 0", list.Count)
	}
	var ack struct{ ID int }
	doReq(t, srv, "POST", "/subscriptions", `{"expression":"/a","id":5}`, http.StatusCreated, &ack)
	if ack.ID != 5 {
		t.Fatalf("acknowledged id %d, want 5", ack.ID)
	}
}
