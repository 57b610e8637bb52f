package cluster

import (
	"errors"
	"net/http"
	"testing"
	"time"
)

// Breaker state machine: every transition the publish path and health
// monitor rely on, exercised directly with a controlled clock.

func TestBreakerOpensAtThreshold(t *testing.T) {
	b := newBreaker(3, time.Second)
	now := time.Unix(0, 0)
	for i := 0; i < 2; i++ {
		if !b.allow(now) {
			t.Fatalf("closed breaker refused call %d", i)
		}
		if opened := b.failure(now); opened {
			t.Fatalf("breaker opened after %d failures, threshold 3", i+1)
		}
	}
	if !b.allow(now) {
		t.Fatal("closed breaker refused the threshold call")
	}
	if !b.failure(now) {
		t.Fatal("breaker did not open at the threshold")
	}
	if st, opens, _ := b.snapshot(); st != "open" || opens != 1 {
		t.Fatalf("state %q, opens %d after threshold", st, opens)
	}
	// Open: everything inside the cooldown is refused without touching
	// the network.
	if b.allow(now.Add(time.Second - time.Millisecond)) {
		t.Fatal("open breaker granted a call inside the cooldown")
	}
	if _, _, fastFails := b.snapshot(); fastFails == 0 {
		t.Fatal("refused call not counted as a fast-fail")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := newBreaker(3, time.Second)
	now := time.Unix(0, 0)
	b.failure(now)
	b.failure(now)
	b.success() // streak broken
	b.failure(now)
	b.failure(now)
	if st, _, _ := b.snapshot(); st != "closed" {
		t.Fatalf("breaker %q after interleaved successes; consecutive-failure counting is broken", st)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := newBreaker(1, time.Second)
	now := time.Unix(0, 0)
	b.failure(now) // open
	probeTime := now.Add(time.Second)
	if !b.allow(probeTime) {
		t.Fatal("cooldown elapsed but probe refused")
	}
	// Exactly one probe: concurrent callers are refused until it reports.
	if b.allow(probeTime) {
		t.Fatal("second concurrent probe granted")
	}
	if st, _, _ := b.snapshot(); st != "half_open" {
		t.Fatalf("state %q during probe, want half_open", st)
	}
	if reclosed := b.success(); !reclosed {
		t.Fatal("successful probe did not report reclosing")
	}
	if st, _, _ := b.snapshot(); st != "closed" {
		t.Fatalf("state %q after successful probe, want closed", st)
	}
	if !b.allow(probeTime) {
		t.Fatal("reclosed breaker refused a call")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b := newBreaker(1, time.Second)
	now := time.Unix(0, 0)
	b.failure(now)
	probeTime := now.Add(time.Second)
	if !b.allow(probeTime) {
		t.Fatal("probe refused")
	}
	if opened := b.failure(probeTime); !opened {
		t.Fatal("failed probe did not report reopening")
	}
	// The cooldown restarts from the failed probe.
	if b.allow(probeTime.Add(500 * time.Millisecond)) {
		t.Fatal("reopened breaker granted a call before the new cooldown elapsed")
	}
	if !b.allow(probeTime.Add(time.Second)) {
		t.Fatal("reopened breaker refused the next probe after its cooldown")
	}
	if _, opens, _ := b.snapshot(); opens != 2 {
		t.Fatalf("opens = %d, want 2 (threshold + failed probe)", opens)
	}
}

func TestBreakerInFlightFailureWhileOpenKeepsCooldown(t *testing.T) {
	b := newBreaker(1, time.Second)
	now := time.Unix(0, 0)
	b.failure(now) // open at t=0
	// A call that was already in flight when the breaker tripped fails
	// late; it must not push the cooldown out.
	b.failure(now.Add(900 * time.Millisecond))
	if !b.allow(now.Add(time.Second)) {
		t.Fatal("late in-flight failure extended the cooldown")
	}
}

func TestBreakerNilDisabled(t *testing.T) {
	var b *breaker
	now := time.Unix(0, 0)
	if !b.allow(now) {
		t.Fatal("nil breaker refused a call")
	}
	b.failure(now)
	b.success()
	if reclosed, opened := b.recordOutcome(errors.New("x"), now); reclosed || opened {
		t.Fatal("nil breaker reported a transition")
	}
	if st, opens, fastFails := b.snapshot(); st != "disabled" || opens != 0 || fastFails != 0 {
		t.Fatalf("nil snapshot = %q/%d/%d", st, opens, fastFails)
	}
	if st, _, _ := b.snapshot(); breakerGauge(st) != 0 {
		t.Fatal("nil breaker gauge != 0")
	}
}

// TestBreakerOutcomeClassification: deliberate shard answers — even
// error statuses, and 429 backpressure in particular — are successes;
// transport errors and transient gateway statuses are failures.
func TestBreakerOutcomeClassification(t *testing.T) {
	now := time.Unix(0, 0)
	cases := []struct {
		name    string
		err     error
		failure bool
	}{
		{"nil", nil, false},
		{"conflict 409", &shardError{status: http.StatusConflict, transient: false}, false},
		{"backpressure 429", &shardError{status: http.StatusTooManyRequests, transient: true, retryAfter: 1}, false},
		{"network", &shardError{status: 0, transient: true, msg: "dial refused"}, true},
		{"bad gateway 503", &shardError{status: http.StatusServiceUnavailable, transient: true}, true},
		{"plain error", errors.New("context deadline exceeded"), true},
	}
	for _, tc := range cases {
		b := newBreaker(1, time.Second)
		b.recordOutcome(tc.err, now)
		st, _, _ := b.snapshot()
		if tc.failure && st != "open" {
			t.Errorf("%s: breaker %q, want open (failure)", tc.name, st)
		}
		if !tc.failure && st != "closed" {
			t.Errorf("%s: breaker %q, want closed (success)", tc.name, st)
		}
	}
}

// TestBackoffBounds: attempt k draws from (0, min(base·2^(k-1), max)],
// and a 429 Retry-After raises the floor to the shard's ask.
func TestBackoffBounds(t *testing.T) {
	c := &Coordinator{cfg: Config{
		RetryBackoff:    10 * time.Millisecond,
		RetryBackoffMax: 80 * time.Millisecond,
	}}
	for attempt := 1; attempt <= 6; attempt++ {
		cap := 10 * time.Millisecond << (attempt - 1)
		if cap > 80*time.Millisecond {
			cap = 80 * time.Millisecond
		}
		for i := 0; i < 200; i++ {
			d := c.backoffFor(attempt, errors.New("transient"))
			if d <= 0 || d > cap {
				t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, cap)
			}
		}
	}
	// Full jitter means the draws actually vary.
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[c.backoffFor(4, nil)] = true
	}
	if len(seen) < 2 {
		t.Fatal("backoff draws show no jitter")
	}
	// Retry-After floor: the shard asked for 1s; a draw from an 80ms cap
	// must be raised to it.
	floor := c.backoffFor(1, &shardError{status: http.StatusTooManyRequests, transient: true, retryAfter: 1})
	if floor < time.Second {
		t.Fatalf("429 Retry-After floor ignored: backoff %v", floor)
	}
}
