package predfilter

// White-box tests for the batch runner's panic isolation (the
// testHookStreamJob injection point is unexported) and for what a
// cancelled batch or stream leaves behind.

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

// setStreamHook installs the workers' per-document test hook for the rest
// of the test. The hook is read atomically, since the workers of one test
// read it while another test's cleanup may store it.
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

// TestMatchEmitPanicIsolated: MatchEmit isolates a panic to its document,
// in a batch and for a single document, on the columnar engine and on the
// scalar reference; after a batch's panic the documents are matched one by
// one into a []SID and emitted from it.
func TestMatchEmitPanicIsolated(t *testing.T) {
	bomb := []byte("<panic/>")
	setStreamHook(t, func(doc []byte) {
		if bytes.Equal(doc, bomb) {
			panic("injected")
		}
	})
	healthy := []byte("<ok/>")
	for _, cfg := range []Config{{}, {PathCacheBytes: -1}} {
		eng := New(cfg)
		if _, err := eng.AddAll([]string{"//ok", "/ok", "//no"}); err != nil {
			t.Fatal(err)
		}
		for _, docs := range [][][]byte{{healthy, bomb, healthy}, {bomb}, {healthy}} {
			calls := 0
			eng.MatchEmit(context.Background(), docs, 2, func(i int, em *Emitted, err error) {
				if i != calls {
					t.Fatalf("result %d arrived as %d", calls, i)
				}
				calls++
				switch {
				case bytes.Equal(docs[i], bomb):
					if em != nil || err == nil || !strings.Contains(err.Error(), "recovered panic") {
						t.Fatalf("panicking document: %v, %v", em, err)
					}
				case err != nil || string(em.Text) != "0,1," || em.N != 2 || len(em.Words) != 1 || em.Masks[0] != 3:
					t.Fatalf("healthy document %d: %+v, %v", i, em, err)
				}
			})
			if calls != len(docs) {
				t.Fatalf("%d results for %d documents", calls, len(docs))
			}
		}
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

// TestQueueDepthAfterCancel: once a cancelled MatchBatchContext or
// MatchEmit returns, every group it queued has been picked up, so the
// queue-depth gauge reads zero, and each document the workers never
// started carries a typed *LimitError of kind Canceled.
func TestQueueDepthAfterCancel(t *testing.T) {
	docs := make([][]byte, 64)
	for i := range docs {
		docs[i] = []byte("<a/>")
	}
	for _, emit := range []bool{false, true} {
		eng := New(Config{})
		if _, err := eng.Add("//a"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		setStreamHook(t, func([]byte) { <-ctx.Done() })
		time.AfterFunc(5*time.Millisecond, cancel)
		var errs []error
		if emit {
			eng.MatchEmit(ctx, docs, 2, func(_ int, _ *Emitted, err error) { errs = append(errs, err) })
		} else {
			for _, r := range eng.MatchBatchContext(ctx, docs, 2) {
				errs = append(errs, r.Err)
			}
		}
		if got := eng.mx.StreamQueueDepth.Load(); got != 0 {
			t.Fatalf("emit=%v: StreamQueueDepth = %d after the cancelled batch returned, want 0", emit, got)
		}
		limited := 0
		for i, err := range errs {
			var le *LimitError
			switch {
			case err == nil:
			case !errors.As(err, &le) || le.Kind != LimitCanceled || !errors.Is(err, context.Canceled):
				t.Fatalf("emit=%v: document %d: err = %v, want a *LimitError of kind Canceled", emit, i, err)
			default:
				limited++
			}
		}
		if len(errs) != len(docs) || limited < len(docs)/2 {
			t.Fatalf("emit=%v: %d results, %d cancelled, want %d results, most cancelled", emit, len(errs), limited, len(docs))
		}
		if got := eng.Stats().LimitTrips["canceled"]; got != int64(limited) {
			t.Fatalf("emit=%v: %d Canceled limit trips counted, want %d", emit, got, limited)
		}
	}
}

// TestNoMatchOutlivesCall: MatchBatchContext and MatchEmit return, and
// MatchStream closes its channel, only once no document is being matched.
// The first documents pass the hook; the rest block in it until well after
// the cancel. MatchBatchContext is cancelled while the first results are
// still being handed over; MatchEmit's callback and MatchStream's reader
// hold the first result until the cancel, which comes once both workers
// are blocked, so results queue up behind them. When the call ends no hook
// may be running, and none may start afterwards.
func TestNoMatchOutlivesCall(t *testing.T) {
	docs := make([][]byte, 48)
	for i := range docs {
		docs[i] = []byte("<a/>")
		if i < 8 {
			docs[i] = []byte("<b/>")
		}
	}
	for _, c := range []struct {
		name   string
		settle time.Duration // from the first blocked hook to the cancel
		run    func(eng *Engine, ctx context.Context, first func())
	}{
		{"MatchBatchContext", 0, func(eng *Engine, ctx context.Context, _ func()) { eng.MatchBatchContext(ctx, docs, 2) }},
		{"MatchEmit", 5 * time.Millisecond, func(eng *Engine, ctx context.Context, first func()) {
			eng.MatchEmit(ctx, docs, 2, func(i int, _ *Emitted, _ error) {
				if i == 0 {
					first()
				}
			})
		}},
		{"MatchStream", 5 * time.Millisecond, func(eng *Engine, ctx context.Context, first func()) {
			in := make(chan []byte, len(docs))
			for _, d := range docs {
				in <- d
			}
			close(in)
			for r := range eng.MatchStream(ctx, in, 2) {
				if r.Index == 0 {
					first()
				}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := New(Config{})
			if _, err := eng.Add("//a"); err != nil {
				t.Fatal(err)
			}
			var inFlight, calls atomic.Int32
			blocked, cancelled, release := make(chan struct{}, len(docs)), make(chan struct{}), make(chan struct{})
			setStreamHook(t, func(doc []byte) {
				calls.Add(1)
				if bytes.Equal(doc, []byte("<b/>")) {
					return
				}
				inFlight.Add(1)
				defer inFlight.Add(-1)
				blocked <- struct{}{}
				<-release
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				<-blocked
				time.Sleep(c.settle)
				cancel()
				close(cancelled)
				time.Sleep(20 * time.Millisecond)
				close(release)
			}()
			c.run(eng, ctx, func() { <-cancelled })
			if n := inFlight.Load(); n != 0 {
				t.Fatalf("%d documents still being matched after the call ended", n)
			}
			before := calls.Load()
			time.Sleep(20 * time.Millisecond)
			if after := calls.Load(); after != before {
				t.Fatalf("%d hook calls started after the call ended", after-before)
			}
		})
	}
}
