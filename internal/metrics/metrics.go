// Package metrics is the engine's observability core: lock-free
// counters, gauges and fixed-bucket latency histograms cheap enough to
// stay on permanently, a hand-rolled Prometheus text-exposition writer
// (expo.go), and the metric table (table.go): each metric is declared
// once, as a row, and one renderer writes /metrics, /stats and
// /debug/vars from the rows. Its only non-stdlib import is internal/guard,
// for the limit names.
//
// The recording contract is zero heap allocations per operation:
// Counter.Add, Gauge.Set and Histogram.Observe touch only preallocated
// atomics, so instrumented hot paths (per-document, per-path) keep their
// allocation profile with metrics enabled. Histograms are sharded into
// cache-line-padded stripes to keep concurrent recorders (the stream
// worker pool, concurrent publish requests) off one contended line; stripe
// selection is a multiplicative hash of the observed value, so no extra
// shared state is touched to pick a stripe.
//
// Buckets are fixed at construction: powers of two from 256ns to ~17s
// (2^8..2^34 ns) plus an overflow bucket. Bucket i < NumBuckets-1 counts
// observations in [2^(7+i), 2^(8+i)) ns — bucket 0 absorbs everything
// below 256ns — and the last bucket absorbs the rest. Quantiles are
// estimated by linear interpolation inside the selected bucket, which
// bounds the relative error by the bucket width (a factor of two).
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add adds n (n must be non-negative for Prometheus counter semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depths, resident sizes).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// NumBuckets is the number of histogram buckets, including the overflow
// bucket.
const NumBuckets = 28

// minBucketBits is the exponent of the first finite upper bound: bucket 0
// counts durations below 2^minBucketBits nanoseconds.
const minBucketBits = 8

// numStripes shards each histogram's buckets to spread concurrent
// recorders; a power of two so stripe selection is a shift.
const numStripes = 8

// stripe is one shard of a histogram, padded out to its own cache lines
// so recorders hashing to different stripes never share a line.
type stripe struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [NumBuckets]atomic.Uint64
	_       [16]byte // pad the 240-byte payload to 256
}

// Histogram is a fixed-bucket latency histogram. The zero value is ready
// to use; Observe never allocates.
type Histogram struct {
	stripes [numStripes]stripe
}

// bucketIdx maps a nanosecond value to its bucket.
func bucketIdx(ns uint64) int {
	l := bits.Len64(ns)
	if l <= minBucketBits {
		return 0
	}
	i := l - minBucketBits
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// stripeIdx picks a stripe from the observed value: a golden-ratio
// multiplicative hash whose top bits depend on every input bit, so nearby
// durations spread across stripes without any shared round-robin state.
func stripeIdx(ns uint64) int {
	return int((ns * 0x9E3779B97F4A7C15) >> (64 - 3)) // 2^3 == numStripes
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	st := &h.stripes[stripeIdx(uint64(ns))]
	st.count.Add(1)
	st.sum.Add(uint64(ns))
	st.buckets[bucketIdx(uint64(ns))].Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram's counts. Buckets
// holds per-bucket (non-cumulative) counts.
type HistSnapshot struct {
	Count    uint64
	SumNanos uint64
	Buckets  [NumBuckets]uint64
}

// Snapshot folds the stripes into one consistent-enough copy (each atomic
// is read once; concurrent Observes may land between reads, which skews a
// snapshot by at most the in-flight operations — the usual monitoring
// contract).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		s.Count += st.count.Load()
		s.SumNanos += st.sum.Load()
		for b := range st.buckets {
			s.Buckets[b] += st.buckets[b].Load()
		}
	}
	return s
}

// Merge returns the bucket-wise sum of s and o. Because every histogram
// in the process (and across cluster shards) shares the same fixed
// power-of-two bucket bounds, merging is exact: no rebinning, and the
// operation is associative and commutative with HistSnapshot{} as
// identity — the property the coordinator's cluster-wide metrics rollup
// relies on.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + o.Count, SumNanos: s.SumNanos + o.SumNanos}
	for i := range out.Buckets {
		out.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return out
}

// BucketUpperNanos returns bucket i's inclusive-exclusive upper bound in
// nanoseconds, or +Inf for the overflow bucket.
func BucketUpperNanos(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1) << (minBucketBits + i))
}

// bucketLowerNanos returns bucket i's lower bound in nanoseconds.
func bucketLowerNanos(i int) float64 {
	if i == 0 {
		return 0
	}
	return float64(uint64(1) << (minBucketBits + i - 1))
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds by linear
// interpolation within the bucket holding the target rank. It returns 0
// for an empty histogram. The overflow bucket reports its lower bound.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo, hi := bucketLowerNanos(i), BucketUpperNanos(i)
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return bucketLowerNanos(NumBuckets - 1)
}
