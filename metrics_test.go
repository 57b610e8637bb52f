package predfilter_test

import (
	"bytes"
	"context"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"predfilter"
	"predfilter/internal/metrics"
)

// TestHitRateEdgeCases pins the PathCacheStats.HitRate contract: 0 before
// any lookup, and overflow-free near the int64 limit (a naive
// hits+misses sum would wrap negative and return a rate outside [0,1]).
func TestHitRateEdgeCases(t *testing.T) {
	var zero predfilter.PathCacheStats
	if got := zero.HitRate(); got != 0 {
		t.Fatalf("HitRate with zero lookups = %v, want 0", got)
	}
	huge := predfilter.PathCacheStats{Hits: math.MaxInt64 - 1, Misses: math.MaxInt64 - 1}
	got := huge.HitRate()
	if got < 0 || got > 1 || math.IsNaN(got) {
		t.Fatalf("HitRate near MaxInt64 = %v, want within [0,1]", got)
	}
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("HitRate with equal huge counts = %v, want 0.5", got)
	}
	allHits := predfilter.PathCacheStats{Hits: math.MaxInt64}
	if got := allHits.HitRate(); got != 1 {
		t.Fatalf("HitRate with MaxInt64 hits only = %v, want 1", got)
	}
}

// TestStatsSnapshotDuringMatches reads Stats while matchers run: every
// snapshot must be sane (non-negative, monotone counters), and the final
// quiescent snapshot exact. The counters are loaded one by one, not
// atomically as a set, so cross-counter inequalities are only asserted at
// quiescence. Run with -race this also checks the counter loads against
// the hot-path writers.
func TestStatsSnapshotDuringMatches(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	if _, err := eng.Add("/order/items/item"); err != nil {
		t.Fatal(err)
	}
	doc := []byte(sampleDoc)

	const matchers = 4
	const perMatcher = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(matchers)
	for i := 0; i < matchers; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < perMatcher; j++ {
				if _, err := eng.Match(doc); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(stop) }()

	var lastDocs int64
	for alive := true; alive; {
		select {
		case <-stop:
			alive = false
		default:
		}
		st := eng.Stats()
		if st.Documents < lastDocs {
			t.Fatalf("Documents went backwards: %d -> %d", lastDocs, st.Documents)
		}
		lastDocs = st.Documents
		if st.Matches < 0 || st.Paths < 0 || st.DocBytes < 0 {
			t.Fatalf("negative counter in snapshot: %+v", st)
		}
		if st.Matches > int64(matchers*perMatcher) {
			t.Fatalf("matches %d exceed total work %d", st.Matches, matchers*perMatcher)
		}
	}

	st := eng.Stats()
	want := int64(matchers * perMatcher)
	if st.Documents != want || st.Matches != want {
		t.Fatalf("final counters docs=%d matches=%d, want %d each", st.Documents, st.Matches, want)
	}
	if st.Stages.Match.Count != uint64(want) || st.Stages.Parse.Count != uint64(want) {
		t.Fatalf("final histogram counts %+v, want %d", st.Stages, want)
	}
	if st.Stages.Match.P50Nanos <= 0 || st.Stages.Match.TotalNanos <= 0 {
		t.Fatalf("match stage summary lacks timings: %+v", st.Stages.Match)
	}
}

// TestSlowDocLogging: with a 1ns threshold every document is slow; the
// record must land on the configured logger with the stage attributes,
// and the SlowDocs counter must advance. A disabled threshold logs
// nothing.
func TestSlowDocLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	h := slog.NewJSONHandler(lockedWriter{&buf, &mu}, &slog.HandlerOptions{Level: slog.LevelWarn})
	eng := predfilter.New(predfilter.Config{
		SlowDocThreshold: time.Nanosecond,
		Logger:           slog.New(h),
	})
	if _, err := eng.Add("/order/items/item"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Match([]byte(sampleDoc)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"slow document", "total_ns", "parse_ns", "match_ns", "pred_match_ns", `"paths":`} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-doc record missing %q:\n%s", want, out)
		}
	}
	if got := eng.Stats().SlowDocs; got != 1 {
		t.Fatalf("SlowDocs = %d, want 1", got)
	}

	// The streaming path logs too, with the same per-stage breakdown.
	buf.Reset()
	for _, r := range eng.MatchBatchContext(context.Background(), [][]byte{[]byte(sampleDoc)}, 2) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if out := buf.String(); !strings.Contains(out, "slow document") || !strings.Contains(out, "pred_match_ns") {
		t.Fatalf("streaming slow document not logged with its breakdown:\n%s", out)
	}
	if got := eng.Stats().SlowDocs; got != 2 {
		t.Fatalf("SlowDocs after batch = %d, want 2", got)
	}

	quiet := predfilter.New(predfilter.Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	buf.Reset()
	if _, err := quiet.Add("/order/items/item"); err != nil {
		t.Fatal(err)
	}
	if _, err := quiet.Match([]byte(sampleDoc)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("threshold disabled but logged: %s", buf.String())
	}
	if got := quiet.Stats().SlowDocs; got != 0 {
		t.Fatalf("SlowDocs without threshold = %d, want 0", got)
	}
}

// lockedWriter serializes handler writes: the streaming branch logs from
// worker goroutines.
type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestMatchTracedPublicAPI exercises the trace through the engine: the
// authoritative result agrees with Match, the parse stage is costed, and
// both a hit and a miss carry predicate-level evidence.
func TestMatchTracedPublicAPI(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	hit, err := eng.Add("/order/customer[@tier=gold]")
	if err != nil {
		t.Fatal(err)
	}
	miss, err := eng.Add("/order/customer[@tier=iron]")
	if err != nil {
		t.Fatal(err)
	}
	sids, tr, err := eng.MatchTracedContext(context.Background(), []byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(sids) != 1 || sids[0] != hit {
		t.Fatalf("traced sids = %v, want [%d]", sids, hit)
	}
	if tr.ParseNanos <= 0 || tr.TotalNanos <= 0 {
		t.Fatalf("trace lacks stage costs: %+v", tr)
	}
	var sawHit, sawMiss bool
	for _, e := range tr.Exprs {
		for _, s := range e.SIDs {
			if s == hit && e.Matched {
				sawHit = true
				if len(e.Paths) == 0 {
					t.Fatalf("hit without path evidence: %+v", e)
				}
			}
			if s == miss && !e.Matched {
				sawMiss = true
			}
		}
	}
	if !sawHit || !sawMiss {
		t.Fatalf("trace explains hit=%v miss=%v, want both: %+v", sawHit, sawMiss, tr.Exprs)
	}
}

// TestStreamMetricsObserved: after a batch, the stream instrumentation
// must account for every document (jobs counter, busy time) and the queue
// gauge must read zero again.
func TestStreamMetricsObserved(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	if _, err := eng.Add("/order/items/item"); err != nil {
		t.Fatal(err)
	}
	docs := make([][]byte, 20)
	for i := range docs {
		docs[i] = []byte(sampleDoc)
	}
	for _, r := range eng.MatchBatchContext(context.Background(), docs, 3) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	mx := eng.Metrics()
	if got := mx.StreamJobs.Load(); got != int64(len(docs)) {
		t.Fatalf("StreamJobs = %d, want %d", got, len(docs))
	}
	if got := mx.StreamQueueDepth.Load(); got != 0 {
		t.Fatalf("StreamQueueDepth after drain = %d, want 0", got)
	}
	var busy int64
	for _, b := range mx.Scrape().StreamBusy {
		busy += b
	}
	if busy <= 0 {
		t.Fatalf("total stream busy nanos = %d, want > 0", busy)
	}
	if got := mx.DocsTotal.Load(); got != int64(len(docs)) {
		t.Fatalf("DocsTotal = %d, want %d", got, len(docs))
	}
}

// TestWriteMetricsValid: the engine-level exposition (without a server in
// front) is well-formed and carries the stage histograms.
func TestWriteMetricsValid(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	if _, err := eng.Add("//price[@currency=usd]"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Match([]byte(sampleDoc)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Match([]byte("not xml")); err == nil {
		t.Fatal("malformed document accepted")
	}
	var buf bytes.Buffer
	if err := eng.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := metrics.ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"predfilter_docs_total 1",
		"predfilter_doc_errors_total 1",
		`predfilter_stage_duration_seconds_count{stage="parse"} 1`,
		`predfilter_stage_duration_seconds_count{stage="occurrence"} 1`,
		"predfilter_expressions 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestStageStatsEmptyHistograms pins the empty-histogram contract the
// /stats payload relies on: with zero observations every quantile must
// be exactly 0 — never NaN, which would serialize as invalid JSON and
// break scrapers. (internal/metrics.HistSnapshot.Quantile returns 0 on
// Count==0; this guards the summary layer end to end.)
func TestStageStatsEmptyHistograms(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	st := eng.Stats().Stages
	check := func(name string, h predfilter.HistogramStats) {
		t.Helper()
		if h.Count != 0 || h.TotalNanos != 0 {
			t.Errorf("%s: fresh engine has count=%d total=%d", name, h.Count, h.TotalNanos)
		}
		for q, v := range map[string]float64{"p50": h.P50Nanos, "p95": h.P95Nanos, "p99": h.P99Nanos} {
			if math.IsNaN(v) {
				t.Errorf("%s %s = NaN, want 0", name, q)
			}
			if v != 0 {
				t.Errorf("%s %s = %v, want 0", name, q, v)
			}
		}
	}
	check("parse", st.Parse)
	check("cache", st.Cache)
	check("predicate_match", st.PredicateMatch)
	check("occurrence", st.Occurrence)
	check("match", st.Match)
	check("wal_append", st.WALAppend)
	check("snapshot", st.Snapshot)
}
