package predfilter

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"predfilter/internal/guard"
	"predfilter/internal/matcher"
)

// Result is the outcome of matching one document of a stream or batch.
type Result struct {
	// Index is the document's ordinal in the input stream (0-based).
	Index int
	// Doc is the original document bytes, echoed back so consumers can
	// fan the document out without tracking it separately.
	Doc []byte
	// SIDs are the matching expression identifiers; nil when Err is set.
	SIDs []SID
	// Err is the per-document failure, if any: a parse error, a
	// *LimitError from the engine's configured limits or the stream
	// context, or a recovered worker panic. One bad document does not
	// stop the stream.
	Err error

	emit *Emitted // MatchEmit's form of SIDs
}

// Emitted is one document's matching identifiers as MatchEmit hands them
// over: Text is the identifiers in Match's order, each as its decimal
// digits followed by a comma; Words and Masks are the same identifiers as
// a sparse bitset, Masks[i] holding the bits of word Words[i]
// (identifiers 64·Words[i] … 64·Words[i]+63); N counts them.
type Emitted = matcher.Emit

// emits recycles MatchEmit's results.
var emits = sync.Pool{New: func() any { return new(Emitted) }}

// groupsPerWorker is how many dispatch groups each stream worker gets out
// of one wave of pending documents. One group each would already occupy
// every worker, but a result cannot leave the ordered stream before its
// whole group is matched, and the slower worker's last group is the tail
// everyone waits for. Measured on 32-document batches, two workers, two
// cores (ms per batch at 1, 2, 4, 8, 16 groups per worker): engine alone
// 5.48, 5.43, 5.23, 5.15, 5.30 on PSD and 2.71, 2.49, 2.46, 2.37, 2.49 on
// NITF; /publish/batch in process, where the handler delivers behind the
// workers, 13.7, 12.6, 12.8, 12.1, 11.9. The columnar kernel is no cheaper
// per document in a large group than in a small one, so nothing is lost
// by cutting finer until the per-group hand-offs show.
const groupsPerWorker = 8

// testHookStreamJob, when non-nil, runs inside each stream worker's
// per-document recover scope before the document is matched. Tests use it
// to inject panics; production code never sets it.
var testHookStreamJob atomic.Pointer[func(doc []byte)]

// isolate runs f for one stream document, isolating a panic: it is counted
// and reported in the document's own Result, which fails only itself. It
// reports whether f returned.
func (e *Engine) isolate(r *Result, f func()) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			e.mx.ObservePanic()
			r.SIDs, r.emit = nil, nil
			r.Err = fmt.Errorf("predfilter: recovered panic matching document %d: %v", r.Index, p)
		}
	}()
	f()
	return true
}

// matchStreamGroup processes one dispatch group: the documents are scanned
// and matched together, one columnar batch — or one by one under the
// scalar reference, and after a panic in the batch, each under its own
// isolation so only the offender fails. With emit set each result is
// Emitted rather than SIDs, whichever way it was matched.
func (e *Engine) matchStreamGroup(ctx context.Context, rs []Result, emit bool) {
	live := make([]bool, len(rs))
	n := 0
	hook := testHookStreamJob.Load()
	for k := range rs {
		live[k] = hook == nil || e.isolate(&rs[k], func() { (*hook)(rs[k].Doc) })
		if live[k] {
			n++
		}
	}
	if n == 0 || !e.scalar && e.matchScannedGroup(ctx, rs, live, emit) {
		return
	}
	for k := range rs {
		if !live[k] || !e.isolate(&rs[k], func() { rs[k].SIDs, rs[k].Err = e.MatchContext(ctx, rs[k].Doc) }) {
			continue
		}
		if r := &rs[k]; emit && r.Err == nil {
			r.emit = emits.Get().(*Emitted)
			r.emit.SetSIDs(r.SIDs)
			r.SIDs = nil
		}
	}
}

// matchScannedGroup matches a group's live documents as one batch of the
// columnar kernel, each as it is scanned. A panic is recovered and reported
// by returning false, with the live results reset so the caller's
// document-by-document pass starts clean.
func (e *Engine) matchScannedGroup(ctx context.Context, rs []Result, live []bool, emit bool) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			e.mx.ObservePanic()
			for k := range rs {
				if live[k] {
					rs[k].SIDs, rs[k].emit, rs[k].Err = nil, nil, nil
				}
			}
			ok = false
		}
	}()
	batch := make([]matcher.ScanDoc, 0, len(rs))
	for k := range rs {
		if live[k] {
			d := matcher.ScanDoc{Doc: rs[k].Doc, Bud: guard.NewBudget(ctx, e.limits)}
			if emit {
				d.Emit = emits.Get().(*Emitted)
			}
			batch = append(batch, d)
		}
	}
	e.m.MatchScanned(batch, e.limits)
	j := 0
	for k := range rs {
		if live[k] {
			d := &batch[j]
			rs[k].SIDs, rs[k].Err = d.SIDs, e.scanned(ctx, d)
			if rs[k].Err == nil {
				rs[k].emit = d.Emit
			} else if d.Emit != nil {
				emits.Put(d.Emit)
			}
			j++
		}
	}
	return true
}

// MatchStream filters a stream of XML documents through a worker pipeline:
// each worker takes a dispatch group of pending documents and scans them,
// matching every root-to-leaf path as its leaf closes, while the other
// workers do the same with theirs. Results are delivered in input order
// (Index is strictly increasing), one per input document.
//
// workers ≤ 0 selects GOMAXPROCS. The returned channel is closed after
// the last result, or after ctx is cancelled (in which case trailing
// documents are dropped). Registration may run concurrently; documents
// matched before an Add simply miss the new expression.
//
// The engine's configured limits apply per document: a document exceeding
// a structural limit or the match budget fails with a *LimitError in its
// own Result while the stream continues. A worker panic is likewise
// isolated to the document that caused it (recovered, counted, reported
// in the Result). The stream context's deadline applies per document
// through the match budget.
//
// All workers share the engine's structural path-signature cache, so a
// path signature evaluated for one document of the stream is served from
// the cache for every later document — the streaming workload (many
// same-DTD documents) is the cache's best case.
func (e *Engine) MatchStream(ctx context.Context, docs <-chan []byte, workers int) <-chan Result {
	return e.stream(ctx, docs, workers, false)
}

// stream is MatchStream, its results Emitted with emit set.
func (e *Engine) stream(ctx context.Context, docs <-chan []byte, workers int, emit bool) <-chan Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type job struct {
		base int      // input ordinal of docs[0]
		docs [][]byte // contiguous dispatch group
	}
	jobs := make(chan job, workers)
	unordered := make(chan Result, workers)
	out := make(chan Result, workers)

	// Dispatcher: assign input ordinals and cut pending documents into
	// dispatch groups. It takes whatever is immediately available — the
	// drain is strictly non-blocking, so a trickling stream keeps
	// single-document dispatch latency — up to a full group for every
	// worker, and splits that wave evenly: groupsPerWorker groups per
	// worker, none above streamBatch. A finite batch, all of it pending when
	// the stream starts, therefore reaches every worker, and its first
	// results leave the ordered stream while later groups are still being
	// matched.
	go func() {
		defer close(jobs)
		base, limit := 0, workers*streamBatch
		for open := true; open; {
			var wave [][]byte
			select {
			case doc, ok := <-docs:
				if !ok {
					return
				}
				wave = append(make([][]byte, 0, min(1+len(docs), limit)), doc)
			case <-ctx.Done():
				return
			}
		drain:
			for len(wave) < limit {
				select {
				case doc, ok := <-docs:
					if !ok {
						open = false
						break drain
					}
					wave = append(wave, doc)
				default:
					break drain
				}
			}
			size := (len(wave) + groupsPerWorker*workers - 1) / (groupsPerWorker * workers)
			for len(wave) > 0 {
				group := wave[:min(size, len(wave))]
				wave = wave[len(group):]
				e.mx.StreamQueueDepth.Add(int64(len(group)))
				select {
				case jobs <- job{base, group}:
					base += len(group)
				case <-ctx.Done():
					e.mx.StreamQueueDepth.Add(int64(-len(group)))
					return
				}
			}
		}
	}()

	// Workers: parse + match one dispatch group at a time. Each worker
	// accumulates its busy time (from group pickup to result delivery
	// readiness) into its own counter, so the per-worker utilization of
	// the pool is observable; queue depth reflects documents dispatched
	// but not yet picked up, and StreamJobs/StreamBatches expose the
	// effective group size.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			busy := e.mx.StreamBusy(w)
			for j := range jobs {
				e.mx.StreamQueueDepth.Add(int64(-len(j.docs)))
				if ctx.Err() != nil {
					continue // cancelled: nobody reads the results of the groups still queued
				}
				e.mx.StreamJobs.Add(int64(len(j.docs)))
				e.mx.StreamBatches.Inc()
				t0 := time.Now()
				rs := make([]Result, len(j.docs))
				for k := range rs {
					rs[k] = Result{Index: j.base + k, Doc: j.docs[k]}
				}
				e.matchStreamGroup(ctx, rs, emit)
				busy.Add(int64(time.Since(t0)))
				for k := range rs {
					select {
					case unordered <- rs[k]:
					case <-ctx.Done():
						return
					}
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(unordered)
	}()

	// Reorderer: restore input order.
	go func() {
		defer close(out)
		pending := make(map[int]Result)
		next := 0
		for r := range unordered {
			pending[r.Index] = r
			for {
				rr, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				select {
				case out <- rr:
					next++
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out
}

// MatchBatchContext filters a slice of documents through the MatchStream
// pipeline under the caller's context and returns one Result per
// document, in input order. Per-document failures (parse errors, limit
// trips, recovered panics) are reported in the corresponding Result, not
// as a batch failure. It always returns exactly one Result per input
// document: documents the cancelled stream dropped are filled in with the
// context's error, so a shed batch is distinguishable from an empty match
// — partial work is never silently reported as "no match".
func (e *Engine) MatchBatchContext(ctx context.Context, docs [][]byte, workers int) []Result {
	out := make([]Result, len(docs))
	e.batch(ctx, docs, workers, false, func(r *Result) { out[r.Index] = *r })
	return out
}

// batch runs docs through the stream and hands f each result in input
// order, then a result carrying the context's error for each document the
// cancelled stream dropped.
func (e *Engine) batch(ctx context.Context, docs [][]byte, workers int, emit bool, f func(r *Result)) {
	in := make(chan []byte, len(docs))
	for _, d := range docs {
		in <- d
	}
	close(in)
	next := 0
	var r Result // one variable for the loop: f's pointer would move a per-iteration one to the heap
	for r = range e.stream(ctx, in, workers, emit) {
		f(&r)
		next++
	}
	for ; next < len(docs); next++ {
		err := ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		f(&Result{Index: next, Doc: docs[next], Err: err})
	}
}

// MatchEmit matches docs as MatchBatchContext does, but hands each
// document's outcome to f, in input order, as Emitted instead of a []SID:
// the form a writer of the identifiers as text, or of a per-identifier
// bitset, wants, produced without a per-document slice. f gets the index
// of the document and either its Emitted (valid only until f returns) or
// its error, once per document, documents a cancelled stream dropped
// included. A single document is matched in the caller's goroutine.
func (e *Engine) MatchEmit(ctx context.Context, docs [][]byte, workers int, f func(i int, em *Emitted, err error)) {
	give := func(r *Result) {
		f(r.Index, r.emit, r.Err)
		if r.emit != nil {
			emits.Put(r.emit)
		}
	}
	if len(docs) != 1 {
		e.batch(ctx, docs, workers, true, give)
		return
	}
	rs := [1]Result{{Doc: docs[0]}}
	e.matchStreamGroup(ctx, rs[:], true)
	give(&rs[0])
}

// MergeSIDSets merges ascending-ordered SID sets into one ascending,
// duplicate-free result — the gather half of a scatter/gather publish,
// where each cluster shard reports the matches of its subscription
// partition and the union must come out in one canonical delivery order.
// It is the cross-shard generalization of the ordered-merge machinery
// MatchStream uses within one process: a k-way merge that, like the
// stream's reorderer, imposes a deterministic order on concurrently
// produced partial results. Sets must each be sorted ascending; they may
// overlap (duplicates collapse).
func MergeSIDSets(sets [][]SID) []SID {
	heads := make([]int, len(sets))
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	out := make([]SID, 0, total)
	for {
		best := -1
		for i, s := range sets {
			if heads[i] >= len(s) {
				continue
			}
			if best < 0 || s[heads[i]] < sets[best][heads[best]] {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		v := sets[best][heads[best]]
		heads[best]++
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
}
