package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIdx(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0},
		{1, 0},
		{255, 0},
		{256, 1},
		{511, 1},
		{512, 2},
		{1 << 33, 26},
		{1<<34 - 1, 26},
		{1 << 34, 27},
		{math.MaxUint64, 27},
	}
	for _, c := range cases {
		if got := bucketIdx(c.ns); got != c.want {
			t.Errorf("bucketIdx(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	durs := []time.Duration{100 * time.Nanosecond, time.Microsecond, time.Millisecond, time.Second, -time.Second}
	for _, d := range durs {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(durs)) {
		t.Fatalf("count = %d, want %d", s.Count, len(durs))
	}
	wantSum := uint64(100 + 1e3 + 1e6 + 1e9) // negative clamps to 0
	if s.SumNanos != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNanos, wantSum)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 1000 observations of ~1ms: the estimates must stay within the
	// bucket holding 1ms ([2^19, 2^20) ns).
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := s.Quantile(q)
		if v < float64(uint64(1)<<19) || v > float64(uint64(1)<<20) {
			t.Fatalf("q%.2f = %vns outside the 1ms bucket", q, v)
		}
	}
	// Overflow bucket reports its lower bound.
	var o Histogram
	o.Observe(time.Hour)
	if got, want := o.Snapshot().Quantile(0.5), float64(uint64(1)<<34); got != want {
		t.Fatalf("overflow quantile = %v, want %v", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const (
		workers = 8
		perW    = 10000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*perW {
		t.Fatalf("count = %d, want %d", got, workers*perW)
	}
}

func TestSetStreamBusyClamps(t *testing.T) {
	s := NewSet()
	s.StreamBusy(-1).Add(1)
	s.StreamBusy(MaxStreamWorkers + 5).Add(2)
	busy := s.Scrape().StreamBusy
	if len(busy) != MaxStreamWorkers {
		t.Fatalf("busy length = %d, want %d", len(busy), MaxStreamWorkers)
	}
	if busy[0] != 1 || busy[MaxStreamWorkers-1] != 2 {
		t.Fatalf("clamped counters = %d, %d", busy[0], busy[MaxStreamWorkers-1])
	}
}

func TestNilSetObserveParse(t *testing.T) {
	var s *Set
	s.ObserveParse(time.Millisecond, 10, nil) // must not panic
}

func TestExpositionFormat(t *testing.T) {
	var buf bytes.Buffer
	e := NewExposition(&buf)
	e.Family("x_total", "a counter", "counter")
	e.Int("x_total", "", 7)
	e.Family("g", "a gauge", "gauge")
	e.Value("g", `kind="q"`, 1.5)
	e.Family("d_seconds", "a histogram", "histogram")
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	e.Histogram("d_seconds", `stage="parse"`, h.Snapshot())
	e.Histogram("d_seconds", `stage="match"`, h.Snapshot())
	e.Family("u_seconds", "unlabeled histogram", "histogram")
	e.Histogram("u_seconds", "", h.Snapshot())
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(out); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE d_seconds histogram",
		`d_seconds_bucket{stage="parse",le="+Inf"} 2`,
		`d_seconds_count{stage="parse"} 2`,
		"x_total 7",
		`g{kind="q"} 1.5`,
		"u_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	for _, bad := range []string{
		"not a metric line at all!",
		"x_bucket{le=\"0.1\"} 5\nx_bucket{le=\"0.2\"} 3\nx_bucket{le=\"+Inf\"} 5\nx_count 5",
		"x_bucket{le=\"0.2\"} 1\nx_bucket{le=\"0.1\"} 2\nx_bucket{le=\"+Inf\"} 2\nx_count 2",
		"x_bucket{le=\"0.1\"} 1\nx_bucket{le=\"+Inf\"} 2\nx_count 3",
		"x_bucket{le=\"0.1\"} 1\nx_count 1",
	} {
		if err := ValidateExposition(bad); err == nil {
			t.Errorf("ValidateExposition accepted invalid input:\n%s", bad)
		}
	}
	if err := ValidateExposition("# just a comment\n\nok_total 1"); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}
