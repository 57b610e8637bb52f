package server

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestCommitAfterResubscribe changes subscriptions between a served
// publish's match and its commit (testHookCommit): it unsubscribes one id
// for good, unsubscribes two and subscribes them again under the same ids,
// one with its expression and one with another, and subscribes a new id.
// The emitted ids still name the removed one, so the commit takes its slow
// path; without that removal every emitted id is live again and it takes
// the fast one. Either way the response, GET /subscriptions/{id} and the
// polls must be what the delivery pass over the match's []SID gives (the
// slice model of delivery_test.go): ids live at the commit are reported and
// delivered to in match order, the rest skipped.
func TestCommitAfterResubscribe(t *testing.T) {
	for _, route := range []string{"/publish", "/publish/batch"} {
		for _, removeOne := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s,remove=%v", strings.ReplaceAll(route[1:], "/", "-"), removeOne), func(t *testing.T) {
				testCommitAfterResubscribe(t, route, removeOne)
			})
		}
	}
}

func testCommitAfterResubscribe(t *testing.T, route string, removeOne bool) {
	h := newDeliveryHistory(t, 2) // ids 0–69 on /h/t(id mod 12)
	expr := map[int]string{}
	for id := range h.model {
		expr[id] = fmt.Sprintf("/h/t%d", id%historyTags)
	}
	publish := func(docs []string, mutate func()) {
		t.Helper()
		matched := make([][]int, len(docs))
		for i, doc := range docs {
			matched[i] = h.engineIDs(doc)
		}
		calls := 0
		testHookCommit = func() {
			// The last document's commit: every document is matched by now.
			if calls++; calls == len(docs) && mutate != nil {
				mutate()
			}
		}
		defer func() { testHookCommit = nil }()
		var rr = serve(h.srv, "POST", route, docs[0])
		if route == "/publish/batch" {
			rr = serve(h.srv, "POST", route, marshalBatch(docs...))
		}
		var want []string
		for i, doc := range docs {
			if i == len(docs)-1 && mutate != nil {
				h.mutateModel(expr, removeOne)
			}
			want = append(want, h.expect(doc, matched[i], route != "/publish"))
		}
		body := want[0] + "\n"
		if route != "/publish" {
			body = `{"results":[` + strings.Join(want, ",") + fmt.Sprintf(`],"published":%d}`, len(docs)) + "\n"
		}
		if rr.Code != http.StatusOK || rr.Body.String() != body {
			t.Fatalf("%s = %d %s, want %s", route, rr.Code, rr.Body, body)
		}
	}
	docs := func(n int) []string {
		if route == "/publish" {
			n = 1
		}
		var out []string
		for i := 0; i < n; i++ {
			h.step++
			out = append(out, h.document(255, byte(i)))
		}
		return out
	}
	publish(docs(2), nil)
	publish(docs(3), func() {
		if removeOne {
			doReq(t, h.srv, "DELETE", "/subscriptions/3", "", http.StatusNoContent, nil)
		}
		for _, re := range []struct{ id, tag int }{{7, 7}, {20, 9}} {
			doReq(t, h.srv, "DELETE", fmt.Sprint("/subscriptions/", re.id), "", http.StatusNoContent, nil)
			doReq(t, h.srv, "POST", "/subscriptions", fmt.Sprintf(`{"expression":"/h/t%d","id":%d}`, re.tag, re.id), http.StatusCreated, nil)
		}
		doReq(t, h.srv, "POST", "/subscriptions", `{"expression":"/h/t1","id":500}`, http.StatusCreated, nil)
	})
	check := func(step string) {
		t.Helper()
		for id, m := range h.model {
			var info map[string]any
			doReq(t, h.srv, "GET", fmt.Sprint("/subscriptions/", id), "", http.StatusOK, &info)
			want := map[string]any{"expression": expr[id], "delivered": float64(m.delivered),
				"dropped": float64(m.dropped), "pending": float64(len(m.queue))}
			if !reflect.DeepEqual(info, want) {
				t.Fatalf("%s: GET /subscriptions/%d = %v, want %v", step, id, info, want)
			}
		}
		if removeOne {
			doReq(t, h.srv, "GET", "/subscriptions/3", "", http.StatusNotFound, nil)
		}
	}
	check("after the interleaved publish")
	publish(docs(2), nil) // the new expressions match now, and the log evicts
	check("after the next publish")
	for id, m := range h.model {
		var got struct {
			Documents []string `json:"documents"`
			Remaining int      `json:"remaining"`
		}
		doReq(t, h.srv, "GET", fmt.Sprintf("/deliveries/%d?max=1", id), "", http.StatusOK, &got)
		docs, remaining := m.poll(1)
		if !reflect.DeepEqual(got.Documents, toStrings(docs)) || got.Remaining != remaining {
			t.Fatalf("poll %d = %q, %d remaining; want %q, %d", id, got.Documents, got.Remaining, toStrings(docs), remaining)
		}
	}
	check("after a poll of each")
}

// mutateModel applies testCommitAfterResubscribe's subscription changes to
// the model.
func (h *deliveryHistory) mutateModel(expr map[int]string, removeOne bool) {
	if removeOne {
		delete(h.model, 3)
		delete(expr, 3)
	}
	h.model[7], h.model[20], h.model[500] = &modelSub{}, &modelSub{}, &modelSub{}
	expr[20], expr[500] = "/h/t9", "/h/t1"
}
