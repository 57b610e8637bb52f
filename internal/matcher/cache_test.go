package matcher

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"predfilter/internal/dtd"
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

// TestPathCacheContainmentCovering exercises the extension cover mode
// with caching: containment covers of structural expressions are part of
// the cached outcome.
func TestPathCacheContainmentCovering(t *testing.T) {
	doc := xmldoc.FromPaths([]string{"a", "b", "c", "d"})
	opts := Options{Variant: PrefixCover, CoverMode: Containment}
	on := New(opts)
	opts.PathCacheBytes = -1
	offm := New(opts)
	xpes := []string{"/a/b/c/d", "b/c", "c/d", "/a/b"}
	s1 := mustAdd(t, on, xpes...)
	s2 := mustAdd(t, offm, xpes...)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("sid mismatch")
	}
	matchSet(on, doc)
	got := matchSet(on, doc)
	want := matchSet(offm, doc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cache on %v off %v", got, want)
	}
	for _, sid := range s1 {
		if !got[sid] {
			t.Fatalf("sid %d not matched: %v", sid, got)
		}
	}
}

// TestPathCacheParallelShared runs the parallel matcher over a document
// with many repeated paths; all workers share one cache and the result
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
	for w := 2; w <= 4; w++ {
		got := make(map[SID]bool)
		for _, sid := range m.MatchDocumentParallel(doc, w) {
			got[sid] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %v vs %v", w, got, want)
		}
	}
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
