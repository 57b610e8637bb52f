package predfilter

// White-box tests for the stream pipeline's panic isolation (the
// testHookStreamJob injection point is unexported) and for batch
// cancellation fill-in.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setStreamHook installs the stream workers' per-document test hook for
// the rest of the test. The hook is read atomically: a cancelled stream
// returns before its workers have finished, so a test can end while one of
// them is still about to read it.
func setStreamHook(t *testing.T, hook func(doc []byte)) {
	testHookStreamJob.Store(&hook)
	t.Cleanup(func() { testHookStreamJob.Store(nil) })
}

func TestStreamPanicIsolated(t *testing.T) {
	eng := New(Config{})
	if _, err := eng.Add("//ok"); err != nil {
		t.Fatal(err)
	}
	bomb := []byte("<panic/>")
	setStreamHook(t, func(doc []byte) {
		if bytes.Equal(doc, bomb) {
			panic("injected")
		}
	})

	healthy := []byte("<ok/>")
	results := eng.MatchBatchContext(context.Background(), [][]byte{healthy, bomb, healthy}, 2)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || len(results[i].SIDs) != 1 {
			t.Fatalf("healthy doc %d: sids=%v err=%v — panic not isolated", i, results[i].SIDs, results[i].Err)
		}
	}
	err := results[1].Err
	if err == nil {
		t.Fatal("panicking document reported no error")
	}
	if !strings.Contains(err.Error(), "recovered panic") || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("panic error = %v, want a recovered-panic message naming the cause", err)
	}
	if results[1].SIDs != nil {
		t.Fatalf("panicking document reported sids %v", results[1].SIDs)
	}
	if got := eng.Stats().Panics; got != 1 {
		t.Fatalf("Stats().Panics = %d, want 1", got)
	}
}

func TestStreamPanicWorkerSurvives(t *testing.T) {
	// Every document panics; the workers must drain the whole stream
	// anyway, one failed Result per document.
	eng := New(Config{})
	if _, err := eng.Add("//a"); err != nil {
		t.Fatal(err)
	}
	setStreamHook(t, func([]byte) { panic("always") })

	const n = 32
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte("<a/>")
	}
	results := eng.MatchBatchContext(context.Background(), docs, 4)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("doc %d: no error despite the injected panic", i)
		}
	}
	if got := eng.Stats().Panics; got != n {
		t.Fatalf("Stats().Panics = %d, want %d", got, n)
	}
}

func TestMatchBatchContextFillsCancelled(t *testing.T) {
	// A cancelled batch still returns exactly one Result per document;
	// documents the workers never reached carry the context error rather
	// than silently vanishing (a dropped document must not read as "no
	// match").
	eng := New(Config{})
	if _, err := eng.Add("//a"); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	setStreamHook(t, func([]byte) { <-block })

	ctx, cancel := context.WithCancel(context.Background())
	const n = 16
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte("<a/>")
	}
	done := make(chan []Result, 1)
	go func() { done <- eng.MatchBatchContext(ctx, docs, 2) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	close(block)

	var results []Result
	select {
	case results = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch never returned")
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	filled := 0
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has Index %d", i, r.Index)
		}
		if r.Err != nil && errors.Is(r.Err, context.Canceled) {
			filled++
		}
	}
	if filled == 0 {
		t.Fatal("no result carries the cancellation; dropped documents were silently lost")
	}
}

// TestMatchBatchEngagesEveryWorker: a batch no larger than StreamBatch is
// cut into groups for min(workers, len(docs)) workers, not handed to one.
// The hook holds each document until that many documents are in flight at
// once, which a single worker can never satisfy; one document of a
// two-document group panics and must fail alone.
func TestMatchBatchEngagesEveryWorker(t *testing.T) {
	for _, c := range []struct{ docs, workers, want int }{{32, 2, 2}, {3, 4, 3}, {5, 2, 2}} {
		eng := New(Config{})
		if _, err := eng.Add("//ok"); err != nil {
			t.Fatal(err)
		}
		docs := make([][]byte, c.docs)
		for i := range docs {
			docs[i] = []byte("<ok/>")
		}
		bomb := c.docs - 1
		docs[bomb] = []byte("<ok><panic/></ok>")

		var inFlight atomic.Int32
		met, gaveUp := make(chan struct{}), make(chan struct{})
		var meet, giveUp sync.Once
		setStreamHook(t, func(doc []byte) {
			if inFlight.Add(1) == int32(c.want) {
				meet.Do(func() { close(met) })
			}
			defer inFlight.Add(-1)
			select {
			case <-met:
			case <-gaveUp:
			case <-time.After(5 * time.Second):
				giveUp.Do(func() { close(gaveUp) })
			}
			if bytes.Contains(doc, []byte("<panic/>")) {
				panic("injected")
			}
		})
		results := eng.MatchBatchContext(context.Background(), docs, c.workers)

		select {
		case <-met:
		default:
			t.Fatalf("%d documents, %d workers: never %d documents in flight at once", c.docs, c.workers, c.want)
		}
		if got := eng.mx.StreamBatches.Load(); got < int64(c.want) {
			t.Fatalf("%d documents, %d workers: %d stream batches, want >= %d", c.docs, c.workers, got, c.want)
		}
		if len(results) != c.docs {
			t.Fatalf("got %d results, want %d", len(results), c.docs)
		}
		for i, r := range results {
			switch {
			case r.Index != i:
				t.Fatalf("result %d has Index %d", i, r.Index)
			case i == bomb && (r.Err == nil || !strings.Contains(r.Err.Error(), "recovered panic")):
				t.Fatalf("panicking document %d: err = %v", i, r.Err)
			case i != bomb && (r.Err != nil || len(r.SIDs) != 1):
				t.Fatalf("healthy document %d: sids %v, err %v", i, r.SIDs, r.Err)
			}
		}
	}
}
