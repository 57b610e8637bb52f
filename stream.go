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

// groupsPerWorker is how many groups each worker gets out of one batch or
// stream wave. One group each would already occupy every worker, but a
// result cannot be handed over in input order before its whole group is
// matched, and the slower worker's last group is the tail everyone waits
// for. Measured on 32-document batches, two workers, two cores (ms per
// batch at 1, 2, 4, 8, 16 groups per worker): engine alone 5.48, 5.43,
// 5.23, 5.15, 5.30 on PSD and 2.71, 2.49, 2.46, 2.37, 2.49 on NITF;
// /publish/batch in process, where the handler delivers behind the
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

// matchStreamGroup processes one group of a batch: the documents are scanned
// and matched together, one batch of the kernel — or, after a panic in the
// batch, one by one, each under its own isolation so only the offender
// fails. With emit set each result is Emitted rather than SIDs, whichever
// way it was matched.
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
	if n == 0 || e.matchScannedGroup(ctx, rs, live, emit) {
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
// kernel, each as it is scanned. A panic is recovered and reported
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

// MatchStream filters a stream of XML documents. It takes a wave of them
// — the next document, then, without waiting, whatever else is already in
// the channel, up to streamBatch per worker — and matches it as
// MatchBatchContext matches a slice; results leave in input order (Index
// is strictly increasing), one per input document, as soon as their
// group and every group before it are matched.
//
// workers ≤ 0 selects GOMAXPROCS. The returned channel is closed after
// the last result, or after ctx is cancelled (in which case trailing
// documents are dropped), and only once no document is being matched.
// Registration may run concurrently; documents matched before an Add
// simply miss the new expression.
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make(chan Result, workers)
	go func() {
		defer close(out)
		base, limit := 0, workers*streamBatch
		for open := true; open && ctx.Err() == nil; {
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
			e.run(ctx, wave, base, workers, false, func(r Result) {
				select {
				case out <- r:
				case <-ctx.Done():
				}
			})
			base += len(wave)
		}
	}()
	return out
}

// run matches docs, input ordinals base onward, and hands f each result
// in input order. It cuts docs into groupsPerWorker groups per worker,
// none above streamBatch documents; the workers claim them in input order,
// and a group's results go to f as soon as it and every group before it
// are matched. A batch of one is matched in the caller's goroutine, its
// result on the stack: f takes results by value. Once ctx is done, a
// group claimed is not matched: each of its documents gets the *LimitError
// a budget over ctx reports, counted as a trip mid-match would be. run
// returns only after every group has finished.
func (e *Engine) run(ctx context.Context, docs [][]byte, base, workers int, emit bool, f func(r Result)) {
	switch len(docs) {
	case 0:
		return
	case 1:
		rs := [1]Result{{Index: base, Doc: docs[0]}}
		e.matchStreamGroup(ctx, rs[:], emit)
		f(rs[0])
		return
	}
	rs := make([]Result, len(docs))
	for i, d := range docs {
		rs[i] = Result{Index: base + i, Doc: d}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	size := min(streamBatch, (len(rs)+groupsPerWorker*workers-1)/(groupsPerWorker*workers))
	groups := (len(rs) + size - 1) / size
	groupOf := func(g int) []Result { return rs[g*size : min(g*size+size, len(rs))] }
	e.mx.StreamQueueDepth.Add(int64(len(rs)))
	var next atomic.Int64
	done := make(chan int, groups)
	for w := range min(workers, groups) {
		go func() {
			busy := e.mx.StreamBusy(w)
			for g := int(next.Add(1) - 1); g < groups; g = int(next.Add(1) - 1) {
				group := groupOf(g)
				e.mx.StreamQueueDepth.Add(int64(-len(group)))
				if ctx.Err() != nil {
					for k := range group {
						b := guard.NewBudget(ctx, e.limits)
						b.CheckPoint()
						group[k].Err = e.recordGovernance(b.Err())
					}
				} else {
					e.mx.StreamJobs.Add(int64(len(group)))
					e.mx.StreamBatches.Inc()
					t0 := time.Now()
					e.matchStreamGroup(ctx, group, emit)
					busy.Add(int64(time.Since(t0)))
				}
				done <- g
			}
		}()
	}
	ready := make([]bool, groups)
	for g := 0; g < groups; {
		ready[<-done] = true
		for ; g < groups && ready[g]; g++ {
			group := groupOf(g)
			for _, r := range group {
				f(r)
			}
		}
	}
}

// MatchBatchContext filters a slice of documents under the caller's
// context and returns one Result per document, in input order: the
// documents are cut into groups, the workers claim them in input order
// and match each as one columnar batch, and a batch of one is matched in
// the caller's goroutine. Per-document failures (parse errors, limit
// trips, recovered panics) are reported in the corresponding Result, not
// as a batch failure. It always returns exactly one Result per input
// document, and only once none is being matched: documents a cancelled
// batch never started carry the *LimitError (Deadline or Canceled) of
// its context, so a shed batch is distinguishable from an empty match —
// partial work is never silently reported as "no match".
func (e *Engine) MatchBatchContext(ctx context.Context, docs [][]byte, workers int) []Result {
	rs := make([]Result, len(docs))
	e.run(ctx, docs, 0, workers, false, func(r Result) { rs[r.Index] = r })
	return rs
}

// MatchEmit matches docs as MatchBatchContext does, but hands each
// document's outcome to f, in input order, as Emitted instead of a []SID:
// the form a writer of the identifiers as text, or of a per-identifier
// bitset, wants, produced without a per-document slice. f gets the index
// of the document and either its Emitted (valid only until f returns) or
// its error, once per document, documents a cancelled batch never started
// included. f runs in the caller's goroutine while the workers match the
// groups behind the document.
func (e *Engine) MatchEmit(ctx context.Context, docs [][]byte, workers int, f func(i int, em *Emitted, err error)) {
	e.run(ctx, docs, 0, workers, true, func(r Result) {
		f(r.Index, r.emit, r.Err)
		if r.emit != nil {
			emits.Put(r.emit)
		}
	})
}

// MergeSIDSets merges ascending-ordered SID sets into one ascending,
// duplicate-free result — the gather half of a scatter/gather publish,
// where each cluster shard reports the matches of its subscription
// partition and the union must come out in one canonical delivery order.
// A k-way merge, it imposes a deterministic order on concurrently
// produced partial results, as MatchStream's in-order delivery does within
// one process. Sets must each be sorted ascending; they may overlap
// (duplicates collapse).
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
