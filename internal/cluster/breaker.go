package cluster

import (
	"errors"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Per-shard circuit breaker. A shard that keeps failing transiently —
// connection refused, timeouts, 5xx — trips its breaker after
// Config.BreakerThreshold consecutive failures; from then on calls
// short-circuit immediately (publishes mark the shard Skipped/Degraded
// without burning PublishTimeout on it) until the cooldown elapses, at
// which point exactly one probe call is let through. A successful probe
// closes the breaker; a failed one reopens it for another cooldown.
// The health monitor's /healthz probes feed the same breaker, so a
// coordinator with the monitor running recovers a healed shard within
// one health interval even when no publish traffic is probing.
//
// A deliberate shard answer counts as success even when it is an error
// status: a 409 or 422 proves the shard is alive and reasoning about
// the request, and 429 is backpressure from a live shard — opening the
// breaker on those would turn application answers into outages.

// errShardBreakerOpen is returned by callWithRetry when a shard's
// breaker refused the call before any attempt was made. It is not a
// *shardError: the publish path treats it like an exhausted transient
// failure (skip + degrade), and the subscribe path knows that no RPC
// was issued, so the sid is verifiably free — no cleanup, no burn.
var errShardBreakerOpen = errors.New("cluster: shard breaker open")

// errProbeFailed stands in for a failed /healthz probe when feeding the
// breaker (the probe API reports a bool, not an error).
var errProbeFailed = errors.New("cluster: health probe failed")

const (
	breakerClosed int32 = iota
	breakerHalfOpen
	breakerOpen
)

var breakerStateNames = [...]string{"closed", "half_open", "open"}

// breaker is one shard's circuit breaker. A nil *breaker is a disabled
// breaker: allow always grants, feedback is a no-op — the
// Config.BreakerThreshold < 0 opt-out costs one nil check.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    int32
	fails    int       // consecutive transient failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight

	opens     atomic.Int64 // closed/half-open → open transitions
	fastFails atomic.Int64 // calls refused without touching the network
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a call may proceed. While open it refuses
// everything until cooldown has elapsed, then grants a single probe
// (half-open); concurrent callers keep getting refused until that probe
// reports back through success or failure.
func (b *breaker) allow(now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown && !b.probing {
			b.state = breakerHalfOpen
			b.probing = true
			return true
		}
	case breakerHalfOpen:
		if !b.probing {
			b.probing = true
			return true
		}
	}
	b.fastFails.Add(1)
	return false
}

// success records a call the shard answered deliberately (any status).
// It closes the breaker from any state and reports whether it was open
// or half-open before — the caller logs the recovery exactly once.
func (b *breaker) success() (reclosed bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	reclosed = b.state != breakerClosed
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
	return reclosed
}

// failure records a transient failure and reports whether it opened the
// breaker. A failed half-open probe reopens immediately; a closed
// breaker opens at the threshold. Failures while already open (calls
// that were in flight when it tripped) keep it open without extending
// the cooldown.
func (b *breaker) failure(now time.Time) (opened bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
		b.opens.Add(1)
		return true
	case breakerOpen:
		b.probing = false
		return false
	default:
		b.fails++
		if b.fails >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			b.opens.Add(1)
			return true
		}
		return false
	}
}

// snapshot returns the state name and the lifetime counters.
func (b *breaker) snapshot() (state string, opens, fastFails int64) {
	if b == nil {
		return "disabled", 0, 0
	}
	b.mu.Lock()
	s := b.state
	b.mu.Unlock()
	return breakerStateNames[s], b.opens.Load(), b.fastFails.Load()
}

// recordOutcome classifies one finished shard call into the breaker.
// err == nil and deliberate shard answers — non-transient statuses and
// 429 backpressure — are successes (the shard is alive); transport
// failures and gateway statuses (502/503/504) are failures.
func (b *breaker) recordOutcome(err error, now time.Time) (reclosed, opened bool) {
	if b == nil {
		return false, false
	}
	if err == nil {
		return b.success(), false
	}
	var se *shardError
	if errors.As(err, &se) && (!se.transient || se.status == http.StatusTooManyRequests) {
		return b.success(), false
	}
	return false, b.failure(now)
}

// backoffFor computes the sleep before retry attempt k (k ≥ 1):
// exponential growth from Config.RetryBackoff, capped at
// Config.RetryBackoffMax, with full jitter — a uniform draw from
// (0, cap] so a thundering herd of retries decorrelates instead of
// synchronizing on the failure instant. When the last failure was a 429
// carrying Retry-After, that becomes the floor: the shard asked for
// breathing room, and retrying sooner would only burn the attempt.
func (c *Coordinator) backoffFor(attempt int, lastErr error) time.Duration {
	d := c.cfg.RetryBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.cfg.RetryBackoffMax {
			d = c.cfg.RetryBackoffMax
			break
		}
	}
	if d > c.cfg.RetryBackoffMax {
		d = c.cfg.RetryBackoffMax
	}
	d = time.Duration(rand.Int64N(int64(d))) + 1
	var se *shardError
	if errors.As(lastErr, &se) && se.status == http.StatusTooManyRequests && se.retryAfter > 0 {
		if floor := time.Duration(se.retryAfter) * time.Second; d < floor {
			d = floor
		}
	}
	return d
}
