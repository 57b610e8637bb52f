package predfilter_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predfilter"
	"predfilter/workload"
)

// churnFixture is the in-process twin of the benchmark's nitf5k_churn
// workload: n distinct NITF expressions registered, 500 parsed documents to
// cycle through, and a pool of further distinct expressions to subscribe
// and unsubscribe beside the publishes.
type churnFixture struct {
	eng  *predfilter.Engine
	base []string // registered, SIDs 0..len(base)-1
	docs []*predfilter.Document
	pool []string // distinct from base and from one another
}

const churnEveryDocs = 50 // as benchmark/workloads.go

func newChurnFixture(tb testing.TB, n, pool int) *churnFixture {
	return newFixture(tb, n, pool, 0, 500)
}

// newFixture is newChurnFixture with filters attribute filters per
// expression and ndocs documents.
func newFixture(tb testing.TB, n, pool, filters, ndocs int) *churnFixture {
	tb.Helper()
	sch := workload.NITF()
	xpes, err := workload.Expressions(sch, n+pool, workload.ExpressionConfig{
		MaxLength: 6, Wildcard: 0.2, Descendant: 0.2, Distinct: true, Filters: filters, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	f := &churnFixture{eng: predfilter.New(predfilter.Config{}), base: xpes[:n:n], pool: xpes[n:]}
	if _, err := f.eng.AddAll(f.base); err != nil {
		tb.Fatal(err)
	}
	for _, raw := range workload.Documents(sch, ndocs, workload.DocumentConfig{Seed: 2}) {
		d, err := predfilter.ParseDocument(raw)
		if err != nil {
			tb.Fatal(err)
		}
		f.docs = append(f.docs, d)
	}
	f.warm()
	return f
}

// warm catches the engine up with its registrations and fills the path
// matchParsed is MatchParsedContext on an engine without limits, which
// never fails.
func matchParsed(eng *predfilter.Engine, d *predfilter.Document) []predfilter.SID {
	sids, _ := eng.MatchParsedContext(context.Background(), d)
	return sids
}

// cache.
func (f *churnFixture) warm() {
	for _, d := range f.docs {
		matchParsed(f.eng, d)
	}
}

// TestChurnConcurrentPublish runs two publishing goroutines beside one
// that subscribes and unsubscribes, alternating expressions the engine has
// never seen with ones it has. Registration serializes with matching, so
// every document's result must be the matches among the never-changing
// base subscriptions plus those of a set of churn subscriptions live at
// some point during the match: none that was not live at any point of it,
// and every one that was live throughout. What each expression matches
// comes from a scalar cache-off engine that never sees a change. Time is a
// counter the churner ticks around each operation, so a subscription's
// life and a match's span are compared without a clock.
func TestChurnConcurrentPublish(t *testing.T) {
	const base, pool, perPublisher = 300, 40, 300
	f := newFixture(t, base, pool, 1, 500) // filters: the churner also interns constants and re-ranks
	docs := f.docs[:40]

	ref := predfilter.New(predfilter.Config{Columnar: predfilter.ColumnarOff, PathCacheBytes: -1})
	if _, err := ref.AddAll(append(f.base, f.pool...)); err != nil {
		t.Fatal(err)
	}
	want := make([][]predfilter.SID, len(docs)) // base SIDs, then base+i for pool expression i
	for d, doc := range docs {
		want[d] = sortedSIDs(matchParsed(ref, doc))
	}

	type life struct{ expr, addFrom, addTo, remFrom, remTo int64 } // ticks; 0: not yet
	var (
		tick      atomic.Int64
		lives     = make(map[predfilter.SID]*life)
		published = make(chan struct{}) // one per published document: the churner's pace
		stop      = make(chan struct{})
		churned   = make(chan struct{}) // closed when the churner returns, churnErr set
		churnErr  error
	)
	awaitPublishes := func(n int) bool { // false once the publishers are done
		for ; n > 0; n-- {
			select {
			case <-published:
			case <-stop:
				return false
			}
		}
		return true
	}
	go func() {
		defer close(churned)
		for k := 0; ; k++ {
			// Even pairs take the next unseen expression while there is
			// one; odd pairs repeat the previous, by then unsubscribed.
			x := k / 2
			if x >= pool {
				x = k % pool
			}
			l := &life{expr: int64(x), addFrom: tick.Add(1)}
			sid, err := f.eng.Add(f.pool[x])
			if err != nil {
				churnErr = err
				return
			}
			l.addTo = tick.Add(1)
			lives[sid] = l
			more := awaitPublishes(3)
			l.remFrom = tick.Add(1)
			if err := f.eng.Remove(sid); err != nil {
				churnErr = err
				return
			}
			l.remTo = tick.Add(1)
			if !more || !awaitPublishes(2) {
				return
			}
		}
	}()

	type result struct {
		doc      int
		from, to int64
		sids     []predfilter.SID
	}
	results := make([][]result, 2)
	var wg sync.WaitGroup
	for p := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				d := (i*7 + p*13) % len(docs)
				r := result{doc: d, from: tick.Load()}
				r.sids = matchParsed(f.eng, docs[d])
				r.to = tick.Load()
				results[p] = append(results[p], r)
				select {
				case published <- struct{}{}:
				case <-churned: // it failed; the error is reported below
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if <-churned; churnErr != nil {
		t.Fatal(churnErr)
	}

	reported := 0
	for _, rs := range results {
		for _, r := range rs {
			var got []predfilter.SID // in the reference's numbering
			for _, sid := range r.sids {
				if sid < base {
					got = append(got, sid)
					continue
				}
				l := lives[sid]
				if l == nil || l.addFrom > r.to || (l.remTo != 0 && l.remTo < r.from) {
					t.Fatalf("document %d reported sid %d, not live during its match [%d,%d]: %+v", r.doc, sid, r.from, r.to, l)
				}
				reported++
				got = append(got, base+predfilter.SID(l.expr))
			}
			throughout := make(map[predfilter.SID]bool) // pool expressions subscribed for the whole match
			for _, l := range lives {
				if l.addTo <= r.from && (l.remFrom == 0 || l.remFrom > r.to) {
					throughout[base+predfilter.SID(l.expr)] = true
				}
			}
			got = sortedSIDs(got)
			for _, sid := range want[r.doc] {
				_, has := slices.BinarySearch(got, sid)
				if sid >= base && !has && !throughout[sid] {
					continue // not subscribed throughout: may be missing
				}
				if !has {
					t.Fatalf("document %d: match [%d,%d] lacks %d (pool offset %d): got %v", r.doc, r.from, r.to, sid, sid-base, got)
				}
			}
			for _, sid := range got {
				if _, ok := slices.BinarySearch(want[r.doc], sid); !ok {
					t.Fatalf("document %d reported %d, which the reference does not match", r.doc, sid)
				}
			}
		}
	}
	if len(lives) < 10 || reported == 0 {
		t.Fatalf("%d pairs ran and %d churn subscriptions were reported: nothing was checked", len(lives), reported)
	}
}

// pair subscribes and unsubscribes one expression.
func (f *churnFixture) pair(tb testing.TB, xpe string) {
	sid, err := f.eng.Add(xpe)
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.eng.Remove(sid); err != nil {
		tb.Fatal(err)
	}
}

// benchChurn times one published document per iteration, with one
// subscribe→unsubscribe pair per churnEveryDocs documents drawn from the
// first poolSize pool expressions (0: no pairs). A pool smaller than the
// number of pairs makes the pairs known-expression ones after its first
// cycle; prime runs that cycle before the clock starts.
func benchChurn(b *testing.B, poolSize int, prime bool) {
	for _, n := range []int{5000, 40000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			f := newChurnFixture(b, n, poolSize)
			if prime {
				for _, x := range f.pool {
					f.pair(b, x)
				}
				f.warm()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if poolSize > 0 && i%churnEveryDocs == churnEveryDocs-1 {
					f.pair(b, f.pool[i/churnEveryDocs%poolSize])
				}
				matchParsed(f.eng, f.docs[i%len(f.docs)])
			}
		})
	}
}

// BenchmarkChurnNone is the publish loop without registration changes: the
// floor the two churn benchmarks are read against.
func BenchmarkChurnNone(b *testing.B) { benchChurn(b, 0, false) }

// BenchmarkChurnKnown subscribes and unsubscribes expressions the engine
// already holds (the steady state of nitf5k_churn once its 64-expression
// pool has cycled): a SID-only change.
func BenchmarkChurnKnown(b *testing.B) { benchChurn(b, 64, true) }

// BenchmarkChurnDistinct subscribes an expression the engine has never
// seen in every pair (4000 of them: wrap-around, i.e. known pairs, starts
// after 200 000 iterations).
func BenchmarkChurnDistinct(b *testing.B) { benchChurn(b, 4000, false) }

// BenchmarkFilterHit is the in-process twin of nitf10k_filters_single's
// match stage: 10 000 expressions with one attribute filter each, 1 000
// documents cycling over a warm cache, so every path is a hit that has
// attribute values left to decide.
func BenchmarkFilterHit(b *testing.B) {
	f := newFixture(b, 10000, 0, 1, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchParsed(f.eng, f.docs[i%len(f.docs)])
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/doc")
}

// BenchmarkFirstMatchAfterAdd is one new distinct Add, the first match
// after it, and the Remove; first-match-ms is the median of those matches
// alone (the document with the most paths), steady-ms the median match of
// the same document two matches after the last registration change.
func BenchmarkFirstMatchAfterAdd(b *testing.B) {
	for _, n := range []int{5000, 10000, 40000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			f := newChurnFixture(b, n, 4000)
			doc := slices.MaxFunc(f.docs, func(x, y *predfilter.Document) int { return x.Paths() - y.Paths() })
			match := func() float64 {
				t0 := time.Now()
				matchParsed(f.eng, doc)
				return float64(time.Since(t0)) / float64(time.Millisecond)
			}
			var steady, first []float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				match()
				steady = append(steady, match())
				sid, err := f.eng.Add(f.pool[i%len(f.pool)])
				if err != nil {
					b.Fatal(err)
				}
				first = append(first, match())
				if err := f.eng.Remove(sid); err != nil {
					b.Fatal(err)
				}
			}
			slices.Sort(steady)
			slices.Sort(first)
			b.ReportMetric(steady[len(steady)/2], "steady-ms")
			b.ReportMetric(first[len(first)/2], "first-match-ms")
		})
	}
}
