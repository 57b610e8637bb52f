package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"predfilter"
)

// The result path: from the ids the engine emits to the bytes of the
// publish response. The engine hands over each document's ids as text and
// as a bitset (predfilter.Emitted); one commit per document
// (appendPublishResult) logs the document once with that bitset
// (delivery.go) and copies the text into a pooled response buffer,
// skipping subscriptions removed since the match. DESIGN.md, "Result
// path", has the layout and the reasons.

// PublishResult is one document's outcome as a publish response reports
// it: a whole /publish response, or one element of a /publish/batch
// response's results.
type PublishResult struct {
	// Emit is the engine's emitted form of the ids; without it they are
	// SIDs, which are rendered into that form first.
	Emit *predfilter.Emitted
	SIDs []predfilter.SID
	// Item marks a /publish/batch element, which leaves ids out when it
	// has none; Err is its per-document failure.
	Item bool
	Err  error
	// Trace is the ?trace=1 match explanation, TraceID the distributed
	// trace the publish ran under.
	Trace   *predfilter.MatchTrace
	TraceID string
	// Degraded and Skipped are the coordinator's: the match set is partial,
	// and these shards are the ones it lacks.
	Degraded bool
	Skipped  []string
}

// appendPublishResult appends r to buf as one JSON object and returns the
// number of ids it reported:
//
//	{"ids":[3,17],"matches":2}    ids in match order
//	{"ids":[],"matches":0}        a publish that matched nothing
//	{"matches":0}                 a batch item that matched nothing
//	{"matches":0,"error":"…"}     a batch item that failed
//
// followed, inside the braces, by "trace", "trace_id", "degraded" and
// "skipped" where r carries them.
//
// With d set it is also the delivery pass, under s.mu: an id whose
// subscription was removed since the match is neither reported nor
// delivered to, every other one has d logged for it. The coordinator,
// whose shards have delivered already, passes neither s nor d.
func appendPublishResult(buf []byte, s *Server, d *document, r *PublishResult) ([]byte, int) {
	buf = append(buf, '{')
	n := 0
	if r.Err == nil {
		em := r.Emit
		if em == nil {
			em = emits.Get().(*predfilter.Emitted)
			defer emits.Put(em)
			em.SetSIDs(r.SIDs)
		}
		mark := len(buf)
		buf = append(buf, `"ids":[`...)
		if d != nil {
			s.mu.Lock()
			buf, n = s.reg.commit(buf, d, em)
			s.mu.Unlock()
		} else {
			buf, n = append(buf, em.Text...), em.N
		}
		switch {
		case n > 0:
			buf[len(buf)-1] = ']'
			buf = append(buf, ',')
		case r.Item:
			buf = buf[:mark]
		default:
			buf = append(buf, "],"...)
		}
	}
	buf = append(buf, `"matches":`...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	if r.Err != nil {
		buf = appendMember(buf, "error", r.Err.Error())
	}
	if r.Trace != nil {
		buf = appendMember(buf, "trace", r.Trace)
	}
	if r.TraceID != "" {
		buf = appendMember(buf, "trace_id", r.TraceID)
	}
	if r.Degraded {
		buf = appendMember(buf, "degraded", true)
		buf = appendMember(buf, "skipped", r.Skipped)
	}
	return append(buf, '}'), n
}

// appendMember appends ,"name":v with v encoded by encoding/json: the
// members it is used for are rare, and their strings need its escaping.
func appendMember(buf []byte, name string, v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		enc, _ = json.Marshal(err.Error())
	}
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return append(buf, enc...)
}

// emits recycles the emitted form of ids that arrive as SIDs.
var emits = sync.Pool{New: func() any { return new(predfilter.Emitted) }}

// publishBodies recycles publish response buffers: a batch response is
// over a megabyte on a high-selectivity workload.
var publishBodies = sync.Pool{New: func() any { return new([]byte) }}

// writePublishBody sends body, which was built in the pooled buffer bp, as
// a 200 JSON response and returns the buffer to the pool.
func writePublishBody(w http.ResponseWriter, bp *[]byte, body []byte) {
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	*bp = body[:0]
	publishBodies.Put(bp)
}

// WritePublishResponse answers a /publish request with r: the
// coordinator's way into the encoder the shards' own publish paths use.
func WritePublishResponse(w http.ResponseWriter, r *PublishResult) {
	bp := publishBodies.Get().(*[]byte)
	body, _ := appendPublishResult((*bp)[:0], nil, nil, r)
	writePublishBody(w, bp, body)
}
