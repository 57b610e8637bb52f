package metrics

import (
	"time"

	"predfilter/internal/guard"
)

// MaxStreamWorkers bounds the per-worker busy-time counter vector of the
// stream pipeline; workers beyond the bound share the last slot.
const MaxStreamWorkers = 32

// NumLimitKinds sizes the per-limit trip counter vector: one slot per
// guard.Kind.
const NumLimitKinds = int(guard.NumKinds)

// Set is the engine-wide pipeline metric set: one instance per Engine,
// always on, shared by every stage (parse, predicate matching, occurrence
// determination, cache, store, stream pipeline). All fields follow the
// zero-allocation recording contract; a nil *Set is accepted by every
// helper so bare components (a standalone Matcher in tests) can skip
// instrumentation without branching at each site.
type Set struct {
	// Document-level counters.
	DocsTotal     Counter // documents matched (all entry points)
	DocErrors     Counter // documents rejected by the parser
	DocBytes      Counter // XML bytes parsed
	PathsTotal    Counter // root-to-leaf paths matched
	PathsDistinct Counter // paths that survived per-document dedup
	AttrTests     Counter // attribute tests hit programs decided
	OccurEvals    Counter // units the served kernel sent through occurrence determination
	OccurPairs    Counter // occurrence pairs determination and combination counting visited
	MatchesTotal  Counter // matching SIDs reported
	EmitBytes     Counter // bytes of SID text emitted for them
	SlowDocs      Counter // documents over the slow-document threshold

	// Parse-path counters: documents served end-to-end by the zero-copy
	// scanner fast path, and documents the fast path handed to the
	// encoding/xml fallback (out-of-subset or malformed input). Documents
	// parsed with the stdlib parser selected outright count in neither.
	ParseScanDocs     Counter
	ParseFallbackDocs Counter

	// Per-document stage latency histograms. Parse covers XML parsing plus
	// path extraction; Match the matching, which the work counters above
	// break down.
	Parse Histogram
	Match Histogram

	// Durable-store stage histograms.
	WALAppend Histogram
	Snapshot  Histogram

	// Stream pipeline instrumentation.
	StreamQueueDepth Gauge   // documents dispatched but not yet picked up
	StreamJobs       Counter // documents that entered the worker pool
	StreamBatches    Counter // dispatch groups delivered to workers (effective batch size = StreamJobs / StreamBatches)
	streamBusy       [MaxStreamWorkers]Counter

	// Columnar batch-matcher instrumentation (the bitset kernel in
	// internal/matcher): batches and documents it evaluated, paths swept,
	// candidate bits surviving the per-path fold, paths that needed scalar
	// occurrence verification (a tag repeated on the path), and the
	// occupancy pair — candidate-bitset words scanned vs words holding at
	// least one candidate.
	ColBatches    Counter
	ColDocs       Counter
	ColPaths      Counter
	ColCandidates Counter
	ColAmbiguous  Counter
	ColWords      Counter
	ColWordsLive  Counter

	// Resource-governance counters: documents stopped by each limit kind
	// (indexed by guard.Kind) and panics recovered by the isolation layer
	// (stream workers, HTTP handlers).
	limitTrips [NumLimitKinds]Counter
	Panics     Counter

	// ReadGauges, installed by the engine, reads the registration state
	// (expression table, path cache) into each Scrape; nil for a bare Set.
	ReadGauges func(*Scrape)
}

// Scrape is one reading of a Set: every counter and histogram loaded
// once, plus the engine's registration state. Every surface of one
// request renders from one Scrape, so a value reported twice is reported
// equal.
type Scrape struct {
	DocsTotal, DocErrors, DocBytes, PathsTotal, MatchesTotal, SlowDocs int64
	PathsDistinct, AttrTests, OccurEvals, OccurPairs                   int64
	EmitBytes                                                          int64
	ParseScanDocs, ParseFallbackDocs                                   int64
	Parse, Match, WALAppend, Snapshot                                  HistSnapshot
	StreamQueueDepth, StreamJobs, StreamBatches                        int64
	StreamBusy                                                         []int64 // per worker, nanoseconds
	Columnar                                                           Columnar
	LimitTrips                                                         [NumLimitKinds]int64
	Panics                                                             int64

	Expressions, DistinctExpressions, DistinctPredicates, NestedExpressions int
	PathCache                                                               PathCache
}

// Columnar summarizes the columnar batch matcher (the bitset kernel; the
// Col* fields of Set): how many batches and documents it evaluated, the
// paths swept, the candidate bits that survived the per-path fold, the
// paths that needed scalar occurrence verification because a tag
// repeated, and the occupancy pair — candidate-bitset words scanned vs
// words that held at least one candidate (low occupancy means the
// word-parallel fold is doing its job: most expressions are dismissed 64
// at a time). It is predfilter.ColumnarStats.
type Columnar struct {
	Batches        int64
	Docs           int64
	Paths          int64
	Candidates     int64
	AmbiguousPaths int64
	WordsSwept     int64
	WordsLive      int64
}

// PathCache summarizes the structural path-signature cache; zero-valued
// with Enabled false when the engine runs without it. It is
// predfilter.PathCacheStats.
type PathCache struct {
	Enabled       bool
	Hits          int64
	Misses        int64
	Evictions     int64 // entries dropped: capacity, a new expression that can match them, stale after a flush
	Invalidations int64 // whole-cache flushes (bulk load, nested-path expression)
	Entries       int   // resident distinct path signatures
	Bytes         int64 // resident byte estimate
	MaxBytes      int64 // configured bound
}

// Occupancy returns WordsLive / WordsSwept, or 0 before any sweep.
func (c Columnar) Occupancy() float64 { return Ratio(c.WordsLive, float64(c.WordsSwept)) }

// AvgBatch returns the average documents per batch, or 0.
func (c Columnar) AvgBatch() float64 { return Ratio(c.Docs, float64(c.Batches)) }

// HitRate returns hits / (hits + misses), or 0 before any lookup. The sum
// is taken in floating point so counters near the int64 limit cannot
// overflow into a negative total.
func (c PathCache) HitRate() float64 { return Ratio(c.Hits, float64(c.Hits)+float64(c.Misses)) }

// Ratio returns num / den, or 0 while den is 0.
func Ratio(num int64, den float64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / den
}

// Scrape reads the set once.
func (s *Set) Scrape() Scrape {
	sc := Scrape{
		DocsTotal: s.DocsTotal.Load(), DocErrors: s.DocErrors.Load(), DocBytes: s.DocBytes.Load(),
		PathsTotal: s.PathsTotal.Load(), MatchesTotal: s.MatchesTotal.Load(), SlowDocs: s.SlowDocs.Load(),
		PathsDistinct: s.PathsDistinct.Load(), AttrTests: s.AttrTests.Load(), OccurEvals: s.OccurEvals.Load(),
		OccurPairs: s.OccurPairs.Load(), EmitBytes: s.EmitBytes.Load(), ParseScanDocs: s.ParseScanDocs.Load(), ParseFallbackDocs: s.ParseFallbackDocs.Load(),
		Parse: s.Parse.Snapshot(), Match: s.Match.Snapshot(), WALAppend: s.WALAppend.Snapshot(), Snapshot: s.Snapshot.Snapshot(),
		StreamQueueDepth: s.StreamQueueDepth.Load(), StreamJobs: s.StreamJobs.Load(),
		StreamBatches: s.StreamBatches.Load(),
		Columnar: Columnar{s.ColBatches.Load(), s.ColDocs.Load(), s.ColPaths.Load(), s.ColCandidates.Load(),
			s.ColAmbiguous.Load(), s.ColWords.Load(), s.ColWordsLive.Load()},
		Panics: s.Panics.Load(),
	}
	for i := range sc.LimitTrips {
		sc.LimitTrips[i] = s.limitTrips[i].Load()
	}
	var busy [MaxStreamWorkers]int64
	for i := range busy {
		if busy[i] = s.streamBusy[i].Load(); busy[i] > 0 {
			sc.StreamBusy = busy[: i+1 : i+1] // up to the highest worker that recorded anything
		}
	}
	if s.ReadGauges != nil {
		s.ReadGauges(&sc)
	}
	return sc
}

// NewSet returns a ready-to-record metric set.
func NewSet() *Set { return &Set{} }

// ObserveParse records one parse outcome: duration and input size, or a
// parse failure. Path counts are recorded by the matcher (PathsTotal), so
// parse-only callers do not double-count them. Safe on a nil receiver.
func (s *Set) ObserveParse(d time.Duration, bytes int, err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.DocErrors.Inc()
		return
	}
	s.Parse.Observe(d)
	s.DocBytes.Add(int64(bytes))
}

// ObserveParsePath records which parser served one document: scanOK means
// the zero-copy scanner fast path handled it end to end, fellBack means
// the encoding/xml fallback ran (whatever its outcome). Safe on a nil
// receiver.
func (s *Set) ObserveParsePath(scanOK, fellBack bool) {
	if s == nil {
		return
	}
	if scanOK {
		s.ParseScanDocs.Inc()
	}
	if fellBack {
		s.ParseFallbackDocs.Inc()
	}
}

// ObserveWALAppend records one durable WAL append. Safe on a nil receiver.
func (s *Set) ObserveWALAppend(d time.Duration) {
	if s == nil {
		return
	}
	s.WALAppend.Observe(d)
}

// ObserveSnapshot records one snapshot write. Safe on a nil receiver.
func (s *Set) ObserveSnapshot(d time.Duration) {
	if s == nil {
		return
	}
	s.Snapshot.Observe(d)
}

// ObserveLimitTrip counts one governance stop of the given limit kind
// (guard.Kind values; out-of-range kinds clamp to the last slot). Safe on
// a nil receiver.
func (s *Set) ObserveLimitTrip(kind int) {
	if s == nil {
		return
	}
	if kind < 0 {
		kind = 0
	}
	if kind >= NumLimitKinds {
		kind = NumLimitKinds - 1
	}
	s.limitTrips[kind].Inc()
}

// ObservePanic counts one recovered panic. Safe on a nil receiver.
func (s *Set) ObservePanic() {
	if s == nil {
		return
	}
	s.Panics.Inc()
}

// StreamBusy returns worker w's cumulative busy-time counter
// (nanoseconds), clamping out-of-range workers to the last slot.
func (s *Set) StreamBusy(w int) *Counter {
	if w < 0 {
		w = 0
	}
	if w >= MaxStreamWorkers {
		w = MaxStreamWorkers - 1
	}
	return &s.streamBusy[w]
}
