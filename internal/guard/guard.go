// Package guard is the engine's resource-governance layer: per-document
// structural limits enforced while parsing, and a per-document match
// budget (occurrence-determination steps, wall-clock deadline,
// cancellation) enforced while matching.
//
// Occurrence determination (§4.2.1) is one pass over the occurrence
// pairs, but nested-path recombination and combination counting enumerate
// every chained combination, a search whose dead ends can grow
// exponentially in a path's depth; and path extraction (§3.3)
// materializes every root-to-leaf path — so one adversarial document
// (deeply nested, massively wide, or occurrence-heavy) can stall an
// engine that otherwise serves millions of subscriptions. Production
// filtering engines in the same lineage (YFilter, ONYX) treat
// per-document bounds and load shedding as first class; this package is
// that layer.
//
// Every governance stop is a typed *LimitError saying which limit
// tripped, the configured bound, and how far the document got. Partial
// work is never reported as "no match": the pipeline returns the error
// instead of a result.
package guard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// Kind identifies which limit a LimitError reports.
type Kind int

const (
	// Depth is the maximum open-element nesting depth (Limits.MaxDepth).
	Depth Kind = iota
	// Paths is the maximum root-to-leaf path count (Limits.MaxPaths).
	Paths
	// Tuples is the maximum total path-tuple count (Limits.MaxTuples).
	Tuples
	// DocBytes is the maximum document size (Limits.MaxDocBytes).
	DocBytes
	// Steps is the occurrence-determination step budget (Limits.MaxSteps).
	Steps
	// Deadline is the wall-clock budget: Limits.MatchDeadline or a
	// deadline carried by the caller's context.
	Deadline
	// Canceled reports context cancellation (the caller gave up; nothing
	// about the document itself exceeded a bound).
	Canceled

	// NumKinds is the number of limit kinds; counters indexed by Kind are
	// sized by it.
	NumKinds
)

// String returns the kind's stable snake_case name (used as the metric
// label value).
func (k Kind) String() string {
	switch k {
	case Depth:
		return "depth"
	case Paths:
		return "paths"
	case Tuples:
		return "tuples"
	case DocBytes:
		return "doc_bytes"
	case Steps:
		return "steps"
	case Deadline:
		return "deadline"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// LimitError reports a governance stop: which limit tripped, the
// configured bound, and how far the document got before tripping it. It
// is returned (never panicked) by every budgeted pipeline entry point,
// and inspectable with errors.As; Deadline and Canceled errors
// additionally unwrap to the matching context error, so
// errors.Is(err, context.DeadlineExceeded) keeps working.
type LimitError struct {
	// Kind says which limit tripped.
	Kind Kind
	// Limit is the configured bound (0 for Canceled, which has none).
	Limit int64
	// Got is the observed value when the limit tripped: the depth/path/
	// tuple/byte count reached, the steps consumed, or — for Deadline and
	// Canceled — the elapsed match time in nanoseconds.
	Got int64
	// Stage is the pipeline stage that tripped: "parse" or "match".
	Stage string

	cause error // context error for Deadline/Canceled, nil otherwise
}

// Error implements error.
func (e *LimitError) Error() string {
	switch e.Kind {
	case Canceled:
		return fmt.Sprintf("guard: %s canceled after %v", e.Stage, time.Duration(e.Got))
	case Deadline:
		return fmt.Sprintf("guard: %s deadline exceeded after %v (budget %v)",
			e.Stage, time.Duration(e.Got), time.Duration(e.Limit))
	}
	return fmt.Sprintf("guard: %s %s limit exceeded: %d > %d", e.Stage, e.Kind, e.Got, e.Limit)
}

// Unwrap exposes the underlying context error of Deadline/Canceled stops.
func (e *LimitError) Unwrap() error { return e.cause }

// Limits bounds per-document resource use. The zero value enforces
// nothing; each field is independent and zero disables that bound.
type Limits struct {
	// MaxDepth bounds the open-element nesting depth while parsing
	// (defense against depth bombs).
	MaxDepth int
	// MaxPaths bounds the number of root-to-leaf paths extracted from one
	// document (defense against wide path-explosion documents).
	MaxPaths int
	// MaxTuples bounds the total tuple count across all extracted paths —
	// the document's decomposed size, which grows as depth × paths and is
	// the real memory bound for pathological trees.
	MaxTuples int
	// MaxDocBytes bounds the raw XML size, checked before (byte-slice
	// input) or while (stream input) parsing.
	MaxDocBytes int64
	// MaxSteps bounds the occurrence effort per document: every
	// occurrence pair that determination or enumeration visits, summed
	// over all paths and expressions, counts one step.
	MaxSteps int64
	// MatchDeadline bounds the wall-clock match time per document,
	// measured from budget creation (document entry to the match stage;
	// where matching runs inside the scan, the start of the scan).
	MatchDeadline time.Duration
}

// Zero reports whether the limits enforce nothing.
func (l Limits) Zero() bool { return l == Limits{} }

// bounded reports whether any match-stage bound is set (parse-stage
// bounds are enforced by the parser, not the budget).
func (l Limits) bounded() bool { return l.MaxSteps > 0 || l.MatchDeadline > 0 }

// checkMask makes the budget re-check the clock and the context every
// 4096 steps: rare enough to stay off the search's critical path, frequent
// enough that a runaway search overshoots a deadline by microseconds.
const checkMask = 1<<12 - 1

// Budget is the per-document match accounting threaded through the
// matching pipeline. It is single-goroutine state; a nil *Budget means
// unlimited and is accepted by the pipeline everywhere.
type Budget struct {
	ctx      context.Context
	maxSteps int64
	steps    int64
	deadline time.Time // zero when no wall-clock bound applies
	start    time.Time
	err      *LimitError // sticky: once set, every check fails
	lim      Limits      // retained for Fork
}

// NewBudget returns a budget enforcing the limits' match-stage bounds and
// the context's deadline/cancellation. It returns nil — the unlimited
// budget — when there is nothing to enforce: no step bound, no deadline
// (neither configured nor on the context) and a non-cancellable context.
func NewBudget(ctx context.Context, lim Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	_, hasCtxDeadline := ctx.Deadline()
	if !lim.bounded() && !hasCtxDeadline && ctx.Done() == nil {
		return nil
	}
	b := &Budget{ctx: ctx, maxSteps: math.MaxInt64, start: time.Now(), lim: lim}
	if lim.MaxSteps > 0 {
		b.maxSteps = lim.MaxSteps
	}
	if lim.MatchDeadline > 0 {
		b.deadline = b.start.Add(lim.MatchDeadline)
	}
	return b
}

// Fork returns a fresh budget with the same limits and context, for a
// second pass over the same document (the trace explanation pass): steps
// reset, so the fork may spend the full step budget, while the wall-clock
// anchor and deadline carry over unchanged — the whole document still has
// to finish within the original MatchDeadline. Fork of a nil budget is nil.
func (b *Budget) Fork() *Budget {
	if b == nil {
		return nil
	}
	f := &Budget{
		ctx:      b.ctx,
		maxSteps: math.MaxInt64,
		deadline: b.deadline,
		start:    b.start,
		lim:      b.lim,
	}
	if b.lim.MaxSteps > 0 {
		f.maxSteps = b.lim.MaxSteps
	}
	return f
}

// Restart forgets the steps spent and any trip, keeping the wall-clock
// anchor: a scan that falls back to encoding/xml matches the document again
// from its first path, and the discarded pass must not count against it. A
// nil budget stays nil.
func (b *Budget) Restart() {
	if b != nil {
		b.steps, b.err = 0, nil
	}
}

// Step consumes one unit of occurrence-determination effort. It returns
// false once the budget is exhausted — step bound hit, deadline passed,
// or context done — and the budget's error is set; the caller must stop
// searching and surface Err, never a partial result. The clock and the
// context are consulted every 4096 steps.
func (b *Budget) Step() bool {
	if b.err != nil {
		return false
	}
	b.steps++
	if b.steps > b.maxSteps {
		b.err = &LimitError{Kind: Steps, Limit: b.maxSteps, Got: b.steps, Stage: "match"}
		return false
	}
	if b.steps&checkMask == 0 {
		return b.checkNow()
	}
	return true
}

// StepN consumes n units of matching effort at once — the bulk
// counterpart of Step for the columnar sweep, which charges one unit per
// block of bitset word operations rather than per occurrence pair. The
// clock and the context are consulted on every call (StepN runs once per
// path, far below Step's 4096-step cadence), and the sticky error is the
// same Steps/Deadline/Canceled *LimitError that Step reports. A nil
// budget is unlimited, matching the rest of the pipeline.
func (b *Budget) StepN(n int64) bool {
	if b == nil {
		return true
	}
	if b.err != nil {
		return false
	}
	b.steps += n
	if b.steps > b.maxSteps {
		b.err = &LimitError{Kind: Steps, Limit: b.maxSteps, Got: b.steps, Stage: "match"}
		return false
	}
	return b.checkNow()
}

// CheckPoint is the between-paths check: context done and deadline only,
// no step consumed. It returns false once the budget is exhausted.
func (b *Budget) CheckPoint() bool {
	if b == nil {
		return true
	}
	if b.err != nil {
		return false
	}
	return b.checkNow()
}

// checkNow consults the context and the wall clock, recording the first
// failure as the sticky error.
func (b *Budget) checkNow() bool {
	if err := b.ctx.Err(); err != nil {
		kind := Canceled
		if errors.Is(err, context.DeadlineExceeded) {
			kind = Deadline
		}
		b.err = &LimitError{
			Kind:  kind,
			Limit: int64(b.lim.MatchDeadline),
			Got:   int64(time.Since(b.start)),
			Stage: "match",
			cause: err,
		}
		return false
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		b.err = &LimitError{
			Kind:  Deadline,
			Limit: int64(b.lim.MatchDeadline),
			Got:   int64(time.Since(b.start)),
			Stage: "match",
			cause: context.DeadlineExceeded,
		}
		return false
	}
	return true
}

// Steps returns the occurrence-determination steps consumed so far.
func (b *Budget) Steps() int64 {
	if b == nil {
		return 0
	}
	return b.steps
}

// Exceeded reports whether the budget has tripped.
func (b *Budget) Exceeded() bool { return b != nil && b.err != nil }

// Err returns the sticky *LimitError as an error, or nil while the budget
// holds. The concrete type is always *LimitError.
func (b *Budget) Err() error {
	if b == nil || b.err == nil {
		return nil
	}
	return b.err
}

// ParseError builds the typed error for a parse-stage structural trip.
func ParseError(kind Kind, limit, got int64) *LimitError {
	return &LimitError{Kind: kind, Limit: limit, Got: got, Stage: "parse"}
}
