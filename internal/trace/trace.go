// Package trace is the cluster's publish-scoped distributed tracing
// core: 128-bit trace identifiers, a small append-only span tree, an
// HTTP propagation header, and a lock-free flight recorder (flight.go)
// that retains the span trees of the last K anomalous operations.
//
// The package is stdlib-only and follows the same always-on cost
// contract as internal/metrics: every method is safe on a nil *Trace
// and performs zero heap allocations in that case, so instrumented hot
// paths (the coordinator's scatter/gather publish, the server's publish
// handler) pay nothing when tracing is off. A trace is enabled
// per-operation — by an incoming X-Predfilter-Trace header, an explicit
// ?trace=1, or a trace-everything configuration switch — and allocates
// only then.
//
// Span identifiers are sequential within a trace (the trace ID carries
// all the entropy); spans form a tree through Parent references, and
// every span records its start offset from the trace's start so a span
// tree is also a timeline.
package trace

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// HeaderName is the HTTP header that propagates a trace across the
// cluster: "trace-id-hex32-span-id-hex16", injected by the coordinator
// into every per-shard RPC and echoed by shards in responses.
const HeaderName = "X-Predfilter-Trace"

// ResponseHeaderName carries the trace ID back to the publisher on the
// coordinator's (and a traced shard's) publish response.
const ResponseHeaderName = "X-Predfilter-Trace-Id"

// ID is a 128-bit trace identifier. The zero value means "no trace".
type ID struct {
	Hi, Lo uint64
}

// NewID returns a random, non-zero trace identifier. Randomness is
// statistical (math/rand/v2), not cryptographic — trace IDs are
// correlation keys, not secrets.
func NewID() ID {
	for {
		id := ID{Hi: rand.Uint64(), Lo: rand.Uint64()}
		if !id.IsZero() {
			return id
		}
	}
}

// IsZero reports whether the ID is the absent-trace sentinel.
func (id ID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (id ID) String() string {
	return fmt.Sprintf("%016x%016x", id.Hi, id.Lo)
}

// ParseID parses the 32-hex-digit form produced by String.
func ParseID(s string) (ID, bool) {
	if len(s) != 32 {
		return ID{}, false
	}
	hi, err1 := strconv.ParseUint(s[:16], 16, 64)
	lo, err2 := strconv.ParseUint(s[16:], 16, 64)
	if err1 != nil || err2 != nil {
		return ID{}, false
	}
	id := ID{Hi: hi, Lo: lo}
	return id, !id.IsZero()
}

// SpanID identifies one span within a trace. 0 means "no parent" (a
// root span).
type SpanID uint64

// String renders the span ID as 16 hex digits.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// FormatHeader renders the propagation header value for one outgoing
// call: the trace ID and the caller's span ID joined by a dash.
func FormatHeader(id ID, span SpanID) string {
	return id.String() + "-" + span.String()
}

// ParseHeader parses a propagation header value. It accepts the bare
// trace-ID form too (no span suffix), for clients that only want to
// name the trace.
func ParseHeader(v string) (ID, SpanID, bool) {
	if len(v) < 32 {
		return ID{}, 0, false
	}
	id, ok := ParseID(v[:32])
	if !ok {
		return ID{}, 0, false
	}
	if len(v) == 32 {
		return id, 0, true
	}
	if v[32] != '-' || len(v) != 32+1+16 {
		return ID{}, 0, false
	}
	span, err := strconv.ParseUint(v[33:], 16, 64)
	if err != nil {
		return ID{}, 0, false
	}
	return id, SpanID(span), true
}

// SpanRecord is one completed (or in-flight) span as it appears in a
// trace snapshot and in flight-recorder dumps. Offsets are relative to
// the trace's start, so a span tree doubles as a timeline.
type SpanRecord struct {
	ID            SpanID `json:"id"`
	Parent        SpanID `json:"parent,omitempty"`
	Name          string `json:"name"`
	Shard         string `json:"shard,omitempty"`
	StartNanos    int64  `json:"start_ns"`
	DurationNanos int64  `json:"duration_ns"`
	Retries       int    `json:"retries,omitempty"`
	Error         string `json:"error,omitempty"`
}

// Trace is one operation-scoped trace: an identifier plus an
// append-only span tree. All methods are safe for concurrent use and
// safe on a nil receiver (every recording call is then a no-op that
// performs no allocation — the disabled-tracing contract).
type Trace struct {
	id     ID
	parent SpanID // remote parent for root spans (propagated traces)
	start  time.Time

	mu     sync.Mutex
	nextID SpanID
	spans  []SpanRecord
}

// New starts a trace with a fresh random ID anchored at time.Now().
func New() *Trace { return NewAt(time.Now()) }

// NewAt starts a trace with a fresh random ID anchored at start. It
// exists so a caller that decides to record only after the fact (the
// flight recorder's anomaly path) can synthesize a trace whose span
// offsets are measured from the operation's true start.
func NewAt(start time.Time) *Trace {
	return &Trace{id: NewID(), start: start}
}

// Join continues a propagated trace: spans started here become
// children of the remote caller's span.
func Join(id ID, parent SpanID) *Trace {
	if id.IsZero() {
		return New()
	}
	return &Trace{id: id, parent: parent, start: time.Now()}
}

// ID returns the trace identifier (zero on a nil trace).
func (t *Trace) ID() ID {
	if t == nil {
		return ID{}
	}
	return t.id
}

// Enabled reports whether recording is on (non-nil receiver).
func (t *Trace) Enabled() bool { return t != nil }

// Start returns the trace's anchor time (zero on a nil trace).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Span is a handle on one live span. The zero value (from a nil trace)
// is inert: every method is a no-op and Header returns "".
type Span struct {
	t   *Trace
	idx int
	id  SpanID
	t0  time.Time
}

// StartSpan opens a span under the given parent (0 parents a root span
// under the trace's remote parent, if any).
func (t *Trace) StartSpan(name string, parent SpanID) Span {
	if t == nil {
		return Span{}
	}
	now := time.Now()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	if parent == 0 {
		parent = t.parent
	}
	idx := len(t.spans)
	t.spans = append(t.spans, SpanRecord{
		ID:         id,
		Parent:     parent,
		Name:       name,
		StartNanos: now.Sub(t.start).Nanoseconds(),
	})
	t.mu.Unlock()
	return Span{t: t, idx: idx, id: id, t0: now}
}

// ID returns the span's identifier (0 for an inert span).
func (s Span) ID() SpanID { return s.id }

// Header renders the propagation header value naming this span as the
// remote parent, or "" for an inert span.
func (s Span) Header() string {
	if s.t == nil {
		return ""
	}
	return FormatHeader(s.t.id, s.id)
}

// SetShard attributes the span to a shard.
func (s Span) SetShard(shard string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.idx].Shard = shard
	s.t.mu.Unlock()
}

// SetError records the span's failure.
func (s Span) SetError(err error) {
	if s.t == nil || err == nil {
		return
	}
	msg := err.Error()
	s.t.mu.Lock()
	s.t.spans[s.idx].Error = msg
	s.t.mu.Unlock()
}

// SetRetries records how many times the span's operation was retried.
func (s Span) SetRetries(n int) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.idx].Retries = n
	s.t.mu.Unlock()
}

// End closes the span, fixing its duration. It returns the duration so
// callers can feed the same measurement into a latency histogram.
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.t.mu.Lock()
	s.t.spans[s.idx].DurationNanos = d.Nanoseconds()
	s.t.mu.Unlock()
	return d
}

// AddCompleted appends an already-measured span — the synthesis path
// used when an untraced operation turns out anomalous and its recorded
// timings are reconstructed into a span tree after the fact. start is
// the span's absolute start time; offsets are computed against the
// trace's anchor.
func (t *Trace) AddCompleted(name, shard string, parent SpanID, start time.Time, d time.Duration, retries int, errMsg string) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	if parent == 0 {
		parent = t.parent
	}
	t.spans = append(t.spans, SpanRecord{
		ID:            id,
		Parent:        parent,
		Name:          name,
		Shard:         shard,
		StartNanos:    start.Sub(t.start).Nanoseconds(),
		DurationNanos: d.Nanoseconds(),
		Retries:       retries,
		Error:         errMsg,
	})
	return id
}

// Snapshot copies the span tree (nil on a nil trace).
func (t *Trace) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}
