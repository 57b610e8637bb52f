package server

import (
	"encoding/json"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"predfilter"
)

// The result path: from the []SID the engine returns to the bytes of the
// publish response. One pass per document (appendPublishResult) skips
// concurrently removed subscriptions, logs the document once with the bits
// of the remaining ones (delivery.go) and writes their decimal digits into
// a pooled response buffer; DESIGN.md, "Result path", has the layout and
// the reasons.

// PublishResult is one document's outcome as a publish response reports
// it: a whole /publish response, or one element of a /publish/batch
// response's results.
type PublishResult struct {
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
		mark := len(buf)
		buf = append(buf, `"ids":[`...)
		// 10 digits and a comma per id, written in place.
		buf = slices.Grow(buf, 11*len(r.SIDs))
		b, p := buf[:cap(buf)], len(buf)
		if d != nil {
			s.mu.Lock()
			p, n = s.reg.deliver(b, p, d, r.SIDs)
			s.mu.Unlock()
		} else {
			for _, sid := range r.SIDs {
				p = putDecimal(b, p, uint32(sid))
				b[p] = ','
				p++
			}
			n = len(r.SIDs)
		}
		switch {
		case n > 0:
			b[p-1] = ']'
			buf = append(b[:p], ',')
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

const digitPairs = "0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243444546474849" +
	"5051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// pow10[n] is the smallest value with n+1 digits (0 for n = 0, so that 0
// has one digit).
var pow10 = [...]uint32{0, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// putDecimal writes v in decimal at b[p:], two digits per division, and
// returns the position after it. b needs 10 bytes of room at p.
func putDecimal(b []byte, p int, v uint32) int {
	n := bits.Len32(v) * 1233 >> 12 // ⌊log10 v⌋, or one more
	if v >= pow10[n] {
		n++
	}
	end := p + n
	i := end
	for v >= 100 {
		q := v / 100
		r := 2 * (v - 100*q)
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		v = q
	}
	if v >= 10 {
		b[i-2], b[i-1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		b[i-1] = '0' + byte(v)
	}
	return end
}

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
