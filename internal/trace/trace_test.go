package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		id := NewID()
		if id.IsZero() {
			t.Fatal("NewID returned zero ID")
		}
		s := id.String()
		if len(s) != 32 {
			t.Fatalf("String() length = %d, want 32 (%q)", len(s), s)
		}
		back, ok := ParseID(s)
		if !ok || back != id {
			t.Fatalf("ParseID(%q) = %v, %v; want %v, true", s, back, ok, id)
		}
	}
}

func TestParseIDRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"abc",
		"00000000000000000000000000000000",  // zero sentinel
		"g0000000000000000000000000000001",  // non-hex
		"000000000000000000000000000000001", // 33 chars
	} {
		if _, ok := ParseID(s); ok {
			t.Errorf("ParseID(%q) accepted, want reject", s)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	id := NewID()
	h := FormatHeader(id, 7)
	gotID, gotSpan, ok := ParseHeader(h)
	if !ok || gotID != id || gotSpan != 7 {
		t.Fatalf("ParseHeader(%q) = %v, %v, %v", h, gotID, gotSpan, ok)
	}
	// Bare trace-ID form.
	gotID, gotSpan, ok = ParseHeader(id.String())
	if !ok || gotID != id || gotSpan != 0 {
		t.Fatalf("ParseHeader(bare) = %v, %v, %v", gotID, gotSpan, ok)
	}
	for _, bad := range []string{"", "xyz", id.String() + "-", id.String() + "-zz", id.String() + ":0000000000000001"} {
		if _, _, ok := ParseHeader(bad); ok {
			t.Errorf("ParseHeader(%q) accepted, want reject", bad)
		}
	}
}

func TestSpanTree(t *testing.T) {
	tr := New()
	root := tr.StartSpan("publish", 0)
	child := tr.StartSpan("rpc", root.ID())
	child.SetShard("shard-0")
	child.SetRetries(2)
	child.SetError(errors.New("boom"))
	child.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "publish" || spans[0].Parent != 0 {
		t.Errorf("root span = %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID {
		t.Errorf("child parent = %v, want %v", spans[1].Parent, spans[0].ID)
	}
	if spans[1].Shard != "shard-0" || spans[1].Retries != 2 || spans[1].Error != "boom" {
		t.Errorf("child attrs = %+v", spans[1])
	}
	if spans[0].DurationNanos < spans[1].DurationNanos {
		t.Errorf("root (%d ns) shorter than child (%d ns)", spans[0].DurationNanos, spans[1].DurationNanos)
	}
}

func TestJoinParentsRootSpans(t *testing.T) {
	id := NewID()
	tr := Join(id, 42)
	if tr.ID() != id {
		t.Fatalf("joined trace ID = %v, want %v", tr.ID(), id)
	}
	sp := tr.StartSpan("local", 0)
	sp.End()
	spans := tr.Snapshot()
	if spans[0].Parent != 42 {
		t.Errorf("root span parent = %v, want remote parent 42", spans[0].Parent)
	}
	// Zero ID falls back to a fresh trace.
	if fresh := Join(ID{}, 0); fresh.ID().IsZero() {
		t.Error("Join with zero ID produced zero trace ID")
	}
}

func TestAddCompletedOffsets(t *testing.T) {
	anchor := time.Now().Add(-time.Second)
	tr := NewAt(anchor)
	start := anchor.Add(100 * time.Millisecond)
	id := tr.AddCompleted("rpc", "shard-1", 0, start, 50*time.Millisecond, 1, "deadline")
	if id == 0 {
		t.Fatal("AddCompleted returned zero span ID")
	}
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.StartNanos != (100 * time.Millisecond).Nanoseconds() {
		t.Errorf("StartNanos = %d, want %d", sp.StartNanos, (100 * time.Millisecond).Nanoseconds())
	}
	if sp.DurationNanos != (50 * time.Millisecond).Nanoseconds() {
		t.Errorf("DurationNanos = %d", sp.DurationNanos)
	}
	if sp.Shard != "shard-1" || sp.Retries != 1 || sp.Error != "deadline" {
		t.Errorf("span = %+v", sp)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Error("nil trace reports enabled")
	}
	if !tr.ID().IsZero() {
		t.Error("nil trace has non-zero ID")
	}
	sp := tr.StartSpan("x", 0)
	sp.SetShard("s")
	sp.SetError(errors.New("e"))
	sp.SetRetries(1)
	if sp.Header() != "" {
		t.Errorf("inert span header = %q", sp.Header())
	}
	if d := sp.End(); d != 0 {
		t.Errorf("inert span End = %v", d)
	}
	if tr.AddCompleted("x", "", 0, time.Now(), 0, 0, "") != 0 {
		t.Error("nil AddCompleted returned non-zero")
	}
	if tr.Snapshot() != nil {
		t.Error("nil Snapshot non-nil")
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context carries a trace")
	}
	tr := New()
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace not recovered from context")
	}
	// nil trace leaves context untouched.
	base := context.Background()
	if NewContext(base, nil) != base {
		t.Error("NewContext(nil) returned a new context")
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := New()
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.StartSpan(fmt.Sprintf("w%d", w), 0)
				sp.SetShard("s")
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	spans := tr.Snapshot()
	if len(spans) != workers*per {
		t.Fatalf("got %d spans, want %d", len(spans), workers*per)
	}
	seen := make(map[SpanID]bool, len(spans))
	for _, sp := range spans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span ID %v", sp.ID)
		}
		seen[sp.ID] = true
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	if f.Cap() != 4 {
		t.Fatalf("Cap = %d", f.Cap())
	}
	for i := 0; i < 10; i++ {
		f.Add(&Record{Op: fmt.Sprintf("op-%d", i)})
	}
	if f.Recorded() != 10 {
		t.Errorf("Recorded = %d, want 10", f.Recorded())
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(snap))
	}
	for i, r := range snap {
		want := fmt.Sprintf("op-%d", 6+i)
		if r.Op != want {
			t.Errorf("snap[%d].Op = %q, want %q (oldest-to-newest)", i, r.Op, want)
		}
	}
}

func TestFlightRecorderDefaults(t *testing.T) {
	f := NewFlightRecorder(0)
	if f.Cap() != DefaultFlightRecords {
		t.Fatalf("default cap = %d, want %d", f.Cap(), DefaultFlightRecords)
	}
	var nilRec *FlightRecorder
	nilRec.Add(&Record{})
	if nilRec.Snapshot() != nil || nilRec.Recorded() != 0 || nilRec.Cap() != 0 {
		t.Error("nil recorder not inert")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers must never observe a torn record.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range f.Snapshot() {
					if rec.Op == "" {
						t.Error("torn record: empty Op")
						return
					}
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				f.Add(&Record{Op: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if f.Recorded() != workers*per {
		t.Errorf("Recorded = %d, want %d", f.Recorded(), workers*per)
	}
	if len(f.Snapshot()) != 8 {
		t.Errorf("snapshot length = %d, want 8", len(f.Snapshot()))
	}
}
