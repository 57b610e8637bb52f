package matcher

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"predfilter/internal/dtd"
	"predfilter/internal/pathcache"
	"predfilter/internal/predicate"
	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xmlgen"
	"predfilter/internal/xpath"
	"predfilter/internal/xpgen"
)

// TestPathCacheHitsAndEquivalence matches the same document repeatedly
// and checks that the second pass is served from the cache with identical
// results, across variants and attribute modes.
func TestPathCacheHitsAndEquivalence(t *testing.T) {
	xpes := []string{
		"/a/b/c", "a//c", "b/c", "/*/*/*", "/a/*/c", "//b/c",
		`/a/b[@x=1]/c`, `//b[@y=2]`, "/a[b/c]//d",
	}
	doc, err := xmldoc.Parse([]byte(
		`<a><b x="1" y="2"><c/><c/></b><b><c/></b><d/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range allVariants {
		for mode := 0; mode < 2; mode++ {
			t.Run(fmt.Sprintf("%v-%d", v, mode), func(t *testing.T) {
				opts := Options{Variant: v, AttrMode: predAttrMode(mode)}
				m := New(opts)
				optsOff := opts
				optsOff.PathCacheBytes = -1
				off := New(optsOff)
				mustAdd(t, m, xpes...)
				mustAdd(t, off, xpes...)

				want := matchSet(off, doc)
				first := matchSet(m, doc)
				second := matchSet(m, doc)
				if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(second, want) {
					t.Fatalf("cache on %v/%v vs off %v", first, second, want)
				}
				st := m.Stats()
				if !st.PathCacheEnabled {
					t.Fatal("cache not enabled by default")
				}
				if st.PathCache.Hits == 0 {
					t.Fatalf("no cache hits after repeat match: %+v", st.PathCache)
				}
				if ost := off.Stats(); ost.PathCacheEnabled {
					t.Fatal("cache reported enabled with PathCacheBytes < 0")
				}
			})
		}
	}
}

// TestPathCacheSeesLaterAdd ensures a registration between matches
// cannot leave a stale outcome in place: the newly added expression must
// match documents seen before it was added.
func TestPathCacheSeesLaterAdd(t *testing.T) {
	doc := xmldoc.FromPaths([]string{"a", "b", "c"})
	for _, v := range allVariants {
		m := New(Options{Variant: v})
		mustAdd(t, m, "/x/y") // unrelated; primes the cache with a miss
		if got := m.MatchDocument(doc); len(got) != 0 {
			t.Fatalf("unexpected match %v", got)
		}
		sids := mustAdd(t, m, "/a/b/c")
		if got := matchSet(m, doc); !got[sids[0]] {
			t.Fatalf("variant %v: expression added after caching not matched: %v", v, got)
		}
	}
}

// TestPathCacheSeesRemove mirrors the Add case for Remove.
func TestPathCacheSeesRemove(t *testing.T) {
	doc := xmldoc.FromPaths([]string{"a", "b", "c"})
	m := New(Options{})
	sids := mustAdd(t, m, "/a/b/c", "a//c")
	if got := matchSet(m, doc); !got[sids[0]] || !got[sids[1]] {
		t.Fatalf("precondition: %v", got)
	}
	if err := m.Remove(sids[0]); err != nil {
		t.Fatal(err)
	}
	got := matchSet(m, doc)
	if got[sids[0]] || !got[sids[1]] {
		t.Fatalf("after remove: %v", got)
	}
}

// nitfSample is a matcher over generated NITF expressions with its cache
// filled from generated NITF documents.
func nitfSample(t *testing.T) (*Matcher, []*xmldoc.Document) {
	t.Helper()
	m := New(Options{})
	mustAdd(t, m, xpgen.MustGenerate(dtd.NITF(), xpgen.Config{Count: 300, MaxLength: 6, Wildcard: 0.2, Descendant: 0.2, Distinct: true, Seed: 5})...)
	var docs []*xmldoc.Document
	for _, raw := range xmlgen.New(dtd.NITF(), xmlgen.Config{Seed: 6}).GenerateN(40) {
		doc, err := xmldoc.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
		m.MatchDocument(doc)
	}
	return m, docs
}

// TestRetainAcrossSIDChanges: Remove, Add of a registered expression and
// Add of one whose last SID was removed change SIDs only, so the cache is
// not touched and the next match of a cached document is all hits.
func TestRetainAcrossSIDChanges(t *testing.T) {
	m, docs := nitfSample(t)
	sids := mustAdd(t, m, "/nitf/body", "/nitf/body")
	m.MatchDocument(docs[0])
	before := m.Stats().PathCache
	if err := m.Remove(sids[0]); err != nil { // one of two SIDs
		t.Fatal(err)
	}
	if err := m.Remove(sids[1]); err != nil { // the last SID
		t.Fatal(err)
	}
	again := mustAdd(t, m, "/nitf/body") // registered, no live SID left
	mustAdd(t, m, "/nitf/body")          // registered, live
	got := matchSet(m, docs[0])
	after := m.Stats().PathCache
	if after.Entries != before.Entries || after.Generation != before.Generation ||
		after.Invalidations != before.Invalidations || after.Evictions != before.Evictions {
		t.Fatalf("SID-only changes touched the cache: before %+v after %+v", before, after)
	}
	if after.Misses != before.Misses || after.Hits == before.Hits {
		t.Fatalf("match after SID-only changes was not all hits: before %+v after %+v", before, after)
	}
	if got[sids[0]] || got[sids[1]] || !got[again[0]] {
		t.Fatalf("SIDs after remove and re-add: %v", got)
	}
}

// TestEvictOnDistinctAdd: a new distinct expression costs the cache the
// entries it can match and few others.
func TestEvictOnDistinctAdd(t *testing.T) {
	m, docs := nitfSample(t)
	// An expression over tags no cached signature has evicts nothing.
	before := m.Stats().PathCache
	mustAdd(t, m, "/nowhere/nothing")
	m.MatchDocument(docs[0])
	if after := m.Stats().PathCache; after.Evictions != before.Evictions || after.Invalidations != before.Invalidations || after.Misses != before.Misses {
		t.Fatalf("unmatchable expression touched the cache: before %+v after %+v", before, after)
	}

	// One that matches k signatures evicts those, and under a tenth of the
	// rest.
	const xpe = "/nitf/body//p"
	path := xpath.MustParse(xpe)
	sigs := make(map[string]bool) // signature → xpe matches it
	for _, doc := range docs {
		for i := range doc.Paths {
			sigs[string(appendPubSig(nil, &doc.Paths[i]))] = refmatch.MatchPath(path, &doc.Paths[i])
		}
	}
	k := 0
	for _, matches := range sigs {
		if matches {
			k++
		}
	}
	before = m.Stats().PathCache
	if before.Entries != len(sigs) || k == 0 || k == len(sigs) {
		t.Fatalf("precondition: %d entries for %d signatures, %d matched", before.Entries, len(sigs), k)
	}
	sids := mustAdd(t, m, xpe)
	m.MatchDocument(xmldoc.FromPaths([]string{"elsewhere"})) // catches up
	after := m.Stats().PathCache
	evicted := int(after.Evictions - before.Evictions)
	if after.Invalidations != before.Invalidations || after.Generation != before.Generation {
		t.Fatalf("a single distinct add flushed: before %+v after %+v", before, after)
	}
	if evicted < k || evicted-k >= (len(sigs)-k)/10 {
		t.Fatalf("evicted %d entries for %d matching signatures of %d", evicted, k, len(sigs))
	}
	for sig, matches := range sigs {
		if _, ok := m.cache.Get(sigHash([]byte(sig)), []byte(sig)); ok && matches {
			t.Errorf("entry of a signature %s matches was kept", xpe)
		}
	}
	for i, doc := range docs {
		if got, want := matchSet(m, doc)[sids[0]], refmatch.Match(path, doc); got != want {
			t.Fatalf("%s on document %d: matched %v, refmatch %v", xpe, i, got, want)
		}
	}
}

// TestEvictFlushRules: a bulk load and a registered nested-path
// expression flush the cache instead of walking it.
func TestEvictFlushRules(t *testing.T) {
	m, docs := nitfSample(t)
	before := m.Stats().PathCache
	for i := 0; i <= maxEvictAdds; i++ {
		mustAdd(t, m, fmt.Sprintf("/nowhere/n%d", i))
	}
	m.MatchDocument(docs[0])
	after := m.Stats().PathCache
	if after.Invalidations != before.Invalidations+1 || after.Generation == before.Generation {
		t.Fatalf("%d pending expressions did not flush once: before %+v after %+v", maxEvictAdds+1, before, after)
	}
	mustAdd(t, m, "/nitf[head]/body")
	m.MatchDocument(docs[0])
	mustAdd(t, m, "/nowhere/else") // a nested expression is present
	m.MatchDocument(docs[0])
	if last := m.Stats().PathCache; last.Invalidations != after.Invalidations+2 {
		t.Fatalf("nested expression added, then present: %d flushes, want 2", last.Invalidations-after.Invalidations)
	}
}

// TestPathCacheAttrReplay hits the cache with a structurally identical
// path whose attribute values differ; the recorded transcript must be
// re-verified against the live tuples, in both attribute modes.
func TestPathCacheAttrReplay(t *testing.T) {
	match, err := xmldoc.Parse([]byte(`<a><b x="1"><c/></b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	miss, err := xmldoc.Parse([]byte(`<a><b x="2"><c/></b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	for mode := 0; mode < 2; mode++ {
		m := New(Options{AttrMode: predAttrMode(mode)})
		sids := mustAdd(t, m, `/a/b[@x=1]/c`, "/a/b/c")
		if got := matchSet(m, match); !got[sids[0]] || !got[sids[1]] {
			t.Fatalf("mode %d: first doc %v", mode, got)
		}
		// Same signature, different attribute value: structural part from
		// the cache, filter re-checked live.
		if got := matchSet(m, miss); got[sids[0]] || !got[sids[1]] {
			t.Fatalf("mode %d: second doc %v", mode, got)
		}
		if st := m.Stats(); st.PathCache.Hits == 0 {
			t.Fatalf("mode %d: attr path bypassed the cache: %+v", mode, st.PathCache)
		}
	}
}

// TestPathCacheRandomizedEquivalence cross-checks cache-on vs cache-off
// across random expression sets and documents for every variant/mode.
func TestPathCacheRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tags := []string{"a", "b", "c", "d"}
	randPath := func() string {
		var b []byte
		if rng.Intn(2) == 0 {
			b = append(b, '/')
		}
		steps := 1 + rng.Intn(4)
		for s := 0; s < steps; s++ {
			if s > 0 {
				b = append(b, '/')
				if rng.Intn(3) == 0 {
					b = append(b, '/')
				}
			}
			if rng.Intn(6) == 0 {
				b = append(b, '*')
			} else {
				b = append(b, tags[rng.Intn(len(tags))]...)
				if rng.Intn(4) == 0 {
					b = append(b, fmt.Sprintf("[@k=%d]", rng.Intn(2))...)
				}
			}
		}
		return string(b)
	}
	randDoc := func() *xmldoc.Document {
		var b []byte
		depth := 1 + rng.Intn(4)
		var open []string
		for d := 0; d < depth; d++ {
			tag := tags[rng.Intn(len(tags))]
			attr := ""
			if rng.Intn(3) == 0 {
				attr = fmt.Sprintf(` k="%d"`, rng.Intn(2))
			}
			kids := 1 + rng.Intn(2)
			_ = kids
			b = append(b, fmt.Sprintf("<%s%s>", tag, attr)...)
			open = append(open, tag)
		}
		for d := depth - 1; d >= 0; d-- {
			b = append(b, fmt.Sprintf("</%s>", open[d])...)
		}
		doc, err := xmldoc.Parse(b)
		if err != nil {
			panic(err)
		}
		return doc
	}
	for trial := 0; trial < 30; trial++ {
		var xpes []string
		for i := 0; i < 12; i++ {
			xpes = append(xpes, randPath())
		}
		var docs []*xmldoc.Document
		for i := 0; i < 6; i++ {
			docs = append(docs, randDoc())
		}
		for _, v := range allVariants {
			for mode := 0; mode < 2; mode++ {
				opts := Options{Variant: v, AttrMode: predAttrMode(mode)}
				on := New(opts)
				opts.PathCacheBytes = -1
				offm := New(opts)
				for _, s := range xpes {
					if _, err := on.Add(s); err != nil {
						t.Fatalf("%q: %v", s, err)
					}
					if _, err := offm.Add(s); err != nil {
						t.Fatalf("%q: %v", s, err)
					}
				}
				for di, doc := range docs {
					// Match twice so the second pass rides cache hits.
					matchSet(on, doc)
					got := matchSet(on, doc)
					want := matchSet(offm, doc)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d doc %d %v/%d: cache on %v off %v",
							trial, di, v, mode, got, want)
					}
				}
			}
		}
	}
}

// TestPathCacheParallelShared matches a document with many repeated paths
// from several goroutines at once; all share one cache and every result
// matches the sequential one. Run with -race to exercise contention.
func TestPathCacheParallelShared(t *testing.T) {
	var paths [][]string
	for i := 0; i < 64; i++ {
		switch i % 3 {
		case 0:
			paths = append(paths, []string{"a", "b", "c"})
		case 1:
			paths = append(paths, []string{"a", "d"})
		default:
			paths = append(paths, []string{"a", "b", "b", "c"})
		}
	}
	doc := xmldoc.FromPaths(paths...)
	m := New(Options{Variant: PrefixCoverAP, DisablePathDedup: true})
	mustAdd(t, m, "/a/b/c", "a//c", "b/c", "/a/d", "//b/b")
	want := matchSet(m, doc)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := matchSet(m, doc); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent match: %v vs %v", got, want)
			}
		}()
	}
	wg.Wait()
	if st := m.Stats(); st.PathCache.Hits == 0 {
		t.Fatalf("parallel matching produced no shared-cache hits: %+v", st.PathCache)
	}
}

// TestPostponedGroupCached: a structural group (all members bare) is
// cached as a unit including its synthetic representative mark.
func TestPostponedGroupCached(t *testing.T) {
	doc := xmldoc.FromPaths([]string{"a", "b", "c"})
	m := New(Options{AttrMode: predicate.Postponed})
	sids := mustAdd(t, m, "/a/b/c", "/a/b/c") // duplicates share one expr
	matchSet(m, doc)
	got := matchSet(m, doc)
	if !got[sids[0]] || !got[sids[1]] {
		t.Fatalf("group member lost through cache: %v", got)
	}
}

// entryOf returns the cache entry of the document's i-th path.
func entryOf(t *testing.T, m *Matcher, doc *xmldoc.Document, i int) *pathcache.Entry {
	t.Helper()
	sig := appendPubSig(nil, &doc.Paths[i])
	ent, ok := m.cache.Get(sigHash(sig), sig)
	if !ok {
		t.Fatalf("no cache entry for path %d", i)
	}
	return ent
}

func mustParse(t *testing.T, xml string) *xmldoc.Document {
	t.Helper()
	doc, err := xmldoc.Parse([]byte(xml))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestProgramEntryLayout: what an entry holds for its value-dependent
// units. An unambiguous path gets a program — one test per distinct
// (tuple, filter) however many units and predicates name it, units under
// their first test, further tests listed per unit — and neither plan nor
// transcript; a repeated tag, Postponed mode and a registered nested-path
// expression keep plan and transcript, the last one whole.
func TestProgramEntryLayout(t *testing.T) {
	xpes := []string{
		"/a/b[@x=1]/c", "//b[@x=1]", "/a[@y>=2]/b[@x=1]", // three units on the test (b, x=1); the third needs (a, y>=2) too
		"/a/b[@x!=1]", // its own test
		"/a/b/c",      // structural: the outcome
		"/q[@x=1]",    // cannot match this signature: not in the program
	}
	plain := mustParse(t, `<a y="3"><b x="1"><c/></b></a>`)
	m := New(Options{})
	sids := mustAdd(t, m, xpes...)
	if got := matchSet(m, plain); !got[sids[0]] || !got[sids[1]] || !got[sids[2]] || got[sids[3]] || !got[sids[4]] {
		t.Fatalf("match set %v", got)
	}
	ent := entryOf(t, m, plain, 0)
	p := ent.Prog
	if p == nil || ent.Plan != nil || ent.Rec.Bare != nil || ent.Rec.Residual != nil {
		t.Fatalf("unambiguous path: want a program and nothing else, got %+v", ent)
	}
	if len(ent.Outcome) != 1 || len(p.Tests) != 3 || len(p.Units) != 4 || len(p.Start) != 4 {
		t.Fatalf("outcome %v, program %+v: want 1 structural id, 3 tests, 4 units", ent.Outcome, p)
	}
	more := 0
	for i, pt := range p.Tests {
		for _, u := range p.Units[p.Start[i]:p.Start[i+1]] {
			for k := u.More; k >= 0 && p.More[k] >= 0; k++ {
				more++
			}
		}
		if want := map[int32]string{0: "a", 1: "b"}[pt.Tuple]; plain.Paths[0].Tuples[pt.Tuple].Tag != want {
			t.Fatalf("test %d on tuple %d", i, pt.Tuple)
		}
	}
	if more != 1 {
		t.Fatalf("%d further tests listed, want 1 (the two-filter expression): %+v", more, p)
	}
	// The same signature, other values: the retained program decides.
	for _, tc := range []struct {
		xml  string
		want []bool
	}{
		{`<a y="1"><b x="1"><c/></b></a>`, []bool{true, true, false, false, true, false}},
		{`<a y="10"><b x="2"><c/></b></a>`, []bool{false, false, false, true, true, false}},
		{`<a><b><c/></b></a>`, []bool{false, false, false, false, true, false}},
	} {
		got := matchSet(m, mustParse(t, tc.xml))
		for i, sid := range sids {
			if got[sid] != tc.want[i] {
				t.Fatalf("%s: %s matched=%v, want %v", tc.xml, xpes[i], got[sid], tc.want[i])
			}
		}
	}
	if st, _ := m.cacheStats(); st.Misses != 1 {
		t.Fatalf("same-signature documents missed: %+v", st)
	}

	repeated := mustParse(t, `<a y="3"><b x="1"><b><c/></b></b></a>`)
	matchSet(m, repeated)
	if ent := entryOf(t, m, repeated, 0); ent.Prog != nil || !ent.Ambiguous || len(ent.Plan) == 0 || len(ent.Rec.Residual) == 0 {
		t.Fatalf("repeated tag: want plan and transcript, got %+v", ent)
	}

	post := New(Options{AttrMode: predicate.Postponed})
	mustAdd(t, post, xpes...)
	matchSet(post, plain)
	if ent := entryOf(t, post, plain, 0); ent.Prog != nil || len(ent.Plan) == 0 || len(ent.Rec.Bare) == 0 {
		t.Fatalf("Postponed groups: want plan and transcript, got %+v", ent)
	}

	pruned := len(entryOf(t, m, repeated, 0).Rec.Bare)
	mustAdd(t, m, "/a[b]/q")
	matchSet(m, plain)
	matchSet(m, repeated)
	if ent := entryOf(t, m, plain, 0); ent.Prog != nil || len(ent.Plan) == 0 {
		t.Fatalf("nested expression registered: want plan and transcript, got %+v", ent)
	}
	if whole := len(entryOf(t, m, repeated, 0).Rec.Bare); whole <= pruned {
		t.Fatalf("nested expression registered: transcript has %d bare hits, pruned one had %d", whole, pruned)
	}
}

// TestProgramSurvivesRerank: constants registered after an entry was built
// — below, between and above the ones its program tests, in an expression
// that can evict nothing — change every code of the attribute; the
// retained program names constants by id and must decide as refmatch does.
func TestProgramSurvivesRerank(t *testing.T) {
	xpes := []string{"/a/b[@x<5]", "/a/b[@x>=5]", "//b[@x=10]", "/a/b[@x<=k]", "/a[@x>3]/b[@x!=4]", "//b[@x]"}
	m := New(Options{})
	sids := mustAdd(t, m, xpes...)
	paths := make([]*xpath.Path, len(xpes))
	for i, s := range xpes {
		paths[i] = xpath.MustParse(s)
	}
	var docs []*xmldoc.Document
	for _, v := range []string{"1", "4", "4.5", "5", "7", "10", "10.0", "11", "j", "k", "l", ""} {
		docs = append(docs, mustParse(t, fmt.Sprintf(`<a x="%s"><b x="%s"/></a>`, v, v)))
	}
	check := func(stage string) {
		t.Helper()
		for _, doc := range docs {
			got := matchSet(m, doc)
			for i, p := range paths {
				if want := refmatch.Match(p, doc); got[sids[i]] != want {
					t.Fatalf("%s: %s on %v = %v, refmatch %v", stage, xpes[i], doc.Paths[0].Tuples[0].Attrs, got[sids[i]], want)
				}
			}
		}
	}
	check("as built")
	before, _ := m.cacheStats()
	prog := entryOf(t, m, docs[0], 0).Prog
	mustAdd(t, m, "/z[@x>0]", "/z[@x<4.7]", "/z[@x=9]", "/z[@x>=100]", "/z[@x!=a]", "/z[@x<jj]", "/z[@x>zz]")
	check("after the re-rank")
	after, _ := m.cacheStats()
	if after.Misses != before.Misses || after.Evictions != before.Evictions || entryOf(t, m, docs[0], 0).Prog != prog || prog == nil {
		t.Fatalf("the entry was not retained across the re-rank: before %+v after %+v", before, after)
	}
}

// TestValueRanksAfterFailedAdd: a registration that fails after interning
// its constants (the nested child's filter is inserted before the wildcard
// host is refused) leaves no expression behind, but the constants must
// still be ranked under the write lock before anything matches — not by the
// first cache miss, under the read lock, while other publishers resolve
// values (run with -race). The new constant 3 also moves 5's rank.
func TestValueRanksAfterFailedAdd(t *testing.T) {
	for _, opts := range []Options{{}, {PathCacheBytes: -1}, {AttrMode: predicate.Postponed}} {
		m := New(opts)
		lt := mustAdd(t, m, "//b[@x<5]")[0]
		m.MatchDocument(mustParse(t, `<a><b x="4"/></a>`))
		if _, err := m.Add("/a[b[@x = 3]]/*[c]"); err == nil {
			t.Fatal("nested filter on a wildcard step was accepted")
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ { // new signatures: every path misses
					tag := fmt.Sprintf("t%d_%d", g, i)
					doc := mustParse(t, fmt.Sprintf(`<a><%s><b x="4"/></%s><%s><b x="5"/></%s></a>`, tag, tag, tag, tag))
					if got := matchSet(m, doc); !got[lt] {
						t.Errorf("%+v: //b[@x<5] missed x=4", opts)
					}
					if matchSet(m, mustParse(t, fmt.Sprintf(`<%s><b x="7"/></%s>`, tag, tag)))[lt] {
						t.Errorf("%+v: //b[@x<5] matched x=7", opts)
					}
				}
			}(g)
		}
		wg.Wait()
		if m.ix.Vals.Dirty() {
			t.Errorf("%+v: the failed Add's constants were never ranked", opts)
		}
	}
}

// TestProgramHitStageClocks: on a program hit the attribute tests are
// predicate-stage time and the unit walk expression-stage time, and with
// the cache probe and the collection they stay within the whole match, so
// the ladder's stage sum keeps accounting for the match stage.
func TestProgramHitStageClocks(t *testing.T) {
	m := New(Options{})
	for i := 0; i < 200; i++ {
		mustAdd(t, m, fmt.Sprintf("/r/s[@k%s%d]", []string{"<", ">="}[i%2], i))
	}
	doc := mustParse(t, `<r><s k="100"/></r>`)
	m.MatchDocument(doc)
	if entryOf(t, m, doc, 0).Prog == nil {
		t.Fatal("no program to time")
	}
	sids, bd := m.MatchDocumentBreakdown(doc)
	if len(sids) != 99 || bd.Cache <= 0 || bd.PredMatch <= 0 || bd.ExprMatch <= 0 ||
		bd.Cache+bd.PredMatch+bd.ExprMatch+bd.Other > bd.Total {
		t.Fatalf("%d matches, breakdown %+v", len(sids), bd)
	}
}
