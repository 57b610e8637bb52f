package matcher

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"predfilter/internal/dtd"
	"predfilter/internal/guard"
	"predfilter/internal/metrics"
	"predfilter/internal/predindex"
	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xmlgen"
	"predfilter/internal/xpath"
	"predfilter/internal/xpgen"
)

// TestNestedPaperExample exercises the §5 example expression
// /a[*/c[d]/e]//c[d]/e on documents that do and do not satisfy it.
func TestNestedPaperExample(t *testing.T) {
	const xpe = "/a[*/c[d]/e]//c[d]/e"

	// A document containing both required branches: under a, a subtree
	// */c with children d and e; and a descendant c with children d and e.
	matching := `
	<a>
	  <x><c><d/><e/></c></x>
	  <q><c><d/><e/></c></q>
	</a>`
	// The grandchild filter [*/c[d]/e] is unsatisfied: the only complete
	// c[d]/e sits one level too deep (a/x/y/c, not a/*/c), although the
	// descendant part //c[d]/e still holds.
	nonMatching := `
	<a>
	  <x><y><c><d/><e/></c></y></x>
	</a>`
	// Bifurcation must happen at the same c node: here one c has d and a
	// different c has e, so c[d]/e holds for neither.
	splitNodes := `
	<a>
	  <x><c><d/></c><c><e/></c></x>
	</a>`

	// The x-subtree satisfies */c[d]/e AND //c[d]/e at once: both filters
	// may be witnessed by the same subtree.
	sharedWitness := `
	<a>
	  <x><c><d/><e/></c></x>
	</a>`

	cases := []struct {
		name string
		xml  string
		want bool
	}{
		{"matching", matching, true},
		{"non-matching", nonMatching, false},
		{"split-nodes", splitNodes, false},
		{"shared-witness", sharedWitness, true},
	}
	for _, v := range allVariants {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", v, tc.name), func(t *testing.T) {
				doc, err := xmldoc.Parse([]byte(tc.xml))
				if err != nil {
					t.Fatal(err)
				}
				// Sanity: the oracle agrees with the hand analysis.
				if ref := refmatch.Match(xpath.MustParse(xpe), doc); ref != tc.want {
					t.Fatalf("reference matcher disagrees with hand analysis: %v", ref)
				}
				m := New(Options{Variant: v})
				sid, err := m.Add(xpe)
				if err != nil {
					t.Fatal(err)
				}
				if got := matchSet(m, doc)[sid]; got != tc.want {
					t.Errorf("matched=%v, want %v", got, tc.want)
				}
			})
		}
	}
}

// TestNestedSimple covers single-level nesting shapes.
func TestNestedSimple(t *testing.T) {
	doc, err := xmldoc.Parse([]byte(`<a><b><c/><d/></b><e/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		xpe  string
		want bool
	}{
		{"/a[e]/b", true},
		{"/a[e]/b/c", true},
		{"/a[x]/b", false},
		{"/a/b[c]", true},
		{"/a/b[c][d]", true},
		{"/a/b[c][x]", false},
		{"/a/b[c/d]", false}, // c has no child d
		{"/a[b/c]/e", true},
		{"/a[b/d]/e", true},
		{"/a[b//c]", true},
		{"a[b[c][d]]", true},
		{"b[c]", true},
		{"b[e]", false}, // e is a's child, not b's
	}
	for _, v := range allVariants {
		m := New(Options{Variant: v})
		sids := make([]SID, len(cases))
		for i, tc := range cases {
			sid, err := m.Add(tc.xpe)
			if err != nil {
				t.Fatalf("Add(%q): %v", tc.xpe, err)
			}
			sids[i] = sid
		}
		got := matchSet(m, doc)
		for i, tc := range cases {
			if ref := refmatch.Match(xpath.MustParse(tc.xpe), doc); ref != tc.want {
				t.Fatalf("oracle disagrees on %q: %v", tc.xpe, ref)
			}
			if got[sids[i]] != tc.want {
				t.Errorf("%s: %q matched=%v, want %v", v, tc.xpe, got[sids[i]], tc.want)
			}
		}
	}
}

// randNestedXPE produces expressions with nested path filters (no filters
// on wildcard steps).
func randNestedXPE(rng *rand.Rand, depth int) string {
	n := 1 + rng.Intn(3)
	var b strings.Builder
	if depth == 0 && rng.Intn(2) == 0 {
		b.WriteString("/")
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			if rng.Intn(5) == 0 {
				b.WriteString("//")
			} else {
				b.WriteString("/")
			}
		}
		if rng.Intn(5) == 0 {
			b.WriteString("*")
			continue
		}
		b.WriteString(testTags[rng.Intn(len(testTags))])
		if depth < 2 && rng.Intn(3) == 0 {
			b.WriteString("[")
			b.WriteString(randNestedXPE(rng, depth+1))
			b.WriteString("]")
		}
	}
	return b.String()
}

// TestNestedRandomEquivalence cross-validates nested-path matching against
// the reference matcher on random trees.
func TestNestedRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 50; round++ {
		var xpes []string
		var paths []*xpath.Path
		for len(xpes) < 25 {
			s := randNestedXPE(rng, 0)
			p, err := xpath.Parse(s)
			if err != nil {
				t.Fatalf("generated unparsable %q: %v", s, err)
			}
			xpes = append(xpes, s)
			paths = append(paths, p)
		}
		docs := []*xmldoc.Document{randDoc(rng, false), randDoc(rng, false)}
		for _, v := range allVariants {
			m := New(Options{Variant: v})
			sids := make([]SID, len(xpes))
			for i, s := range xpes {
				sid, err := m.Add(s)
				if err != nil {
					t.Fatalf("Add(%q): %v", s, err)
				}
				sids[i] = sid
			}
			for di, doc := range docs {
				got := matchSet(m, doc)
				for i, p := range paths {
					want := refmatch.Match(p, doc)
					if got[sids[i]] != want {
						t.Fatalf("round %d doc %d %s: %q matched=%v, ref=%v\npaths: %v",
							round, di, v, xpes[i], got[sids[i]], want, docPaths(doc))
					}
				}
			}
		}
	}
}

// TestNestedWithAttrs combines nested paths and attribute filters under
// both evaluation modes.
func TestNestedWithAttrs(t *testing.T) {
	doc, err := xmldoc.Parse([]byte(`<a><b k="1"><c v="2"/></b><b k="3"><c v="9"/></b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		xpe  string
		want bool
	}{
		{`/a/b[@k=1][c]`, true},
		{`/a/b[@k=2][c]`, false},
		{`/a[b[@k=3]]/b[@k=1]`, true},
		{`/a/b[c[@v>=5]]`, true},
		{`/a/b[@k=1][c[@v>=5]]`, false},
		{`/a/b[@k=3][c[@v>=5]]`, true},
	}
	for mode := 0; mode <= 1; mode++ {
		m := New(Options{Variant: PrefixCoverAP, AttrMode: predAttrMode(mode)})
		sids := make([]SID, len(cases))
		for i, tc := range cases {
			sid, err := m.Add(tc.xpe)
			if err != nil {
				t.Fatalf("Add(%q): %v", tc.xpe, err)
			}
			sids[i] = sid
		}
		got := matchSet(m, doc)
		for i, tc := range cases {
			if ref := refmatch.Match(xpath.MustParse(tc.xpe), doc); ref != tc.want {
				t.Fatalf("oracle disagrees on %q: %v", tc.xpe, ref)
			}
			if got[sids[i]] != tc.want {
				t.Errorf("mode %d: %q matched=%v, want %v", mode, tc.xpe, got[sids[i]], tc.want)
			}
		}
	}
}

// TestNestedOnWildcardRejected documents the unsupported construct.
func TestNestedOnWildcardRejected(t *testing.T) {
	m := New(Options{})
	if _, err := m.Add("/a/*[b]/c"); err == nil {
		t.Error("Add accepted a nested filter on a wildcard step")
	}
}

// TestNestedDuplicates: duplicate nested expressions share one entry.
func TestNestedDuplicates(t *testing.T) {
	m := New(Options{})
	mustAdd(t, m, "/a[b]/c", "/a[b]/c")
	if st := m.Stats(); st.DistinctExpressions != 1 || st.NestedExpressions != 1 {
		t.Errorf("stats = %+v, want 1 distinct / 1 nested", st)
	}
}

// A rejected registration leaves the predicate index as it was. A nested
// filter on a wildcard step is refused only after the filters hosted
// before it were decomposed; their predicates, whether they would land in a
// row a registered expression uses (a→b) or in rows of their own (a→x,
// x→y), must not reach the next match, which runs before any catch-up and
// so has no membership lists for them.
func TestRejectedAddLeavesIndex(t *testing.T) {
	for _, c := range []struct{ bad, doc string }{
		{"/a[b]/*[c]", "<a><b/></a>"},
		{"/a[x/y]/*[c]", "<a><x><y/></x><b/></a>"},
	} {
		for _, cached := range []bool{true, false} {
			opts := Options{}
			if !cached {
				opts.PathCacheBytes = 1 // keeps no entry: every path a miss
			}
			m := New(opts)
			want := mustAdd(t, m, "/a//b")
			if _, _, err := m.MatchDocument(mustParse(t, "<z/>"), nil); err != nil {
				t.Fatal(err) // the columnar index now exists
			}
			n := m.ix.Len()
			if _, err := m.Add(c.bad); err == nil {
				t.Fatalf("Add(%q) was accepted", c.bad)
			}
			if got := m.ix.Len(); got != n {
				t.Errorf("rejected %q left %d predicates in the index", c.bad, got-n)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("after rejecting %q (cached %v): match of %s panicked: %v", c.bad, cached, c.doc, r)
					}
				}()
				got, _, err := m.MatchDocument(mustParse(t, c.doc), nil)
				if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("after rejecting %q (cached %v): %s matched %v, %v; want %v", c.bad, cached, c.doc, got, err, want)
				}
			}()
		}
	}
}

// nestedFixture is nitfSample's expressions and documents on a matcher that
// counts its work, the expressions registered before extra.
func nestedFixture(t *testing.T, extra ...string) (*Matcher, *metrics.Set, []*xmldoc.Document) {
	t.Helper()
	mx := metrics.NewSet()
	m := New(Options{Metrics: mx})
	mustAdd(t, m, xpgen.MustGenerate(dtd.NITF(), xpgen.Config{Count: 300, MaxLength: 6, Wildcard: 0.2, Descendant: 0.2, Distinct: true, Seed: 5})...)
	mustAdd(t, m, extra...)
	var docs []*xmldoc.Document
	for _, raw := range xmlgen.New(dtd.NITF(), xmlgen.Config{Seed: 6}).GenerateN(40) {
		docs = append(docs, mustParse(t, string(raw)))
	}
	return m, mx, docs
}

// matchWork matches doc and returns the distinct paths and occurrence pairs
// it cost, and its match set.
func matchWork(m *Matcher, mx *metrics.Set, doc *xmldoc.Document) (paths, pairs int64, got map[SID]bool) {
	before := mx.Scrape()
	got = matchSet(m, doc)
	after := mx.Scrape()
	return after.PathsDistinct - before.PathsDistinct, after.OccurPairs - before.OccurPairs, got
}

// TestNestedKeepsDedup: with BenchmarkNestedHit's three nested-path
// expressions registered, every warm document matches as many distinct
// paths as without them — a repeated path records its node ids and skips
// the kernel — and the nested expressions match as refmatch says.
func TestNestedKeepsDedup(t *testing.T) {
	nested := []string{"/nitf[head/title]/body", "//body[body.head]//p", "/nitf/head[meta]/title"}
	base, bmx, docs := nestedFixture(t)
	m, mx, _ := nestedFixture(t, nested...)
	sids := mustAdd(t, m, nested...) // the same expressions: their SIDs
	matched := 0
	for i, doc := range docs {
		matchSet(base, doc)
		matchSet(m, doc)
		bp, _, _ := matchWork(base, bmx, doc)
		p, _, got := matchWork(m, mx, doc)
		if p != bp {
			t.Fatalf("doc %d: %d distinct paths with nested expressions, %d without", i, p, bp)
		}
		for k, x := range nested {
			want := refmatch.Match(xpath.MustParse(x), doc)
			if got[sids[k]] != want {
				t.Fatalf("doc %d: %s matched=%v, refmatch %v", i, x, got[sids[k]], want)
			}
			if want {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Fatal("no nested expression matched any document")
	}
}

// TestDeadNestedCostsNothing: a nested-path expression subscribed, matched
// and unsubscribed leaves every later document the distinct paths,
// occurrence pairs and match set of an engine that never had it — alone,
// and beside a live nested expression whose records the dead one's
// sub-expressions share entries with; subscribed again, it matches as
// refmatch says.
func TestDeadNestedCostsNothing(t *testing.T) {
	const x = "/nitf[head/title]/body"
	for _, live := range [][]string{nil, {"/nitf/head[meta]/title"}} {
		base, bmx, docs := nestedFixture(t, live...)
		m, mx, _ := nestedFixture(t, live...)
		sid := mustAdd(t, m, x)[0]
		matchSet(m, docs[0])
		if err := m.Remove(sid); err != nil {
			t.Fatal(err)
		}
		for _, doc := range docs { // warm: both engines' entries are built
			matchSet(base, doc)
			matchSet(m, doc)
		}
		for i, doc := range docs {
			bp, bpairs, bgot := matchWork(base, bmx, doc)
			p, pairs, got := matchWork(m, mx, doc)
			if p != bp || pairs != bpairs || !maps.Equal(got, bgot) {
				t.Fatalf("%v live, doc %d: %d distinct paths, %d pairs, %d matches; never subscribed: %d, %d, %d", live, i, p, pairs, len(got), bp, bpairs, len(bgot))
			}
		}
		sid = mustAdd(t, m, x)[0]
		for i, doc := range docs {
			if got, want := matchSet(m, doc)[sid], refmatch.Match(xpath.MustParse(x), doc); got != want {
				t.Fatalf("%v live, doc %d: re-subscribed %s matched=%v, refmatch %v", live, i, x, got, want)
			}
		}
	}
}

// TestNestedPairsBounded: on workload.OccurrenceBomb(40, 44)'s document and
// nested expression — 40 nested a, //a 44 times under a trailing [a] — the
// occurrence pairs recombination visits are at most twice the pairs of
// its sub-expressions' chains, cold and warm, and a budget a few times
// that never trips.
func TestNestedPairsBounded(t *testing.T) {
	xpe := strings.Repeat("//a", 44) + "[a]"
	doc := mustParse(t, strings.Repeat("<a>", 40)+strings.Repeat("</a>", 40))
	mx := metrics.NewSet()
	m := New(Options{Metrics: mx})
	mustAdd(t, m, xpe)
	m.MatchDocument(doc, nil) // catch up: the sub-expressions' predicates are indexed
	res := predindex.NewResults(m.ix.Len())
	m.ix.MatchPath(&doc.Paths[0], res, false)
	chains := 0
	for _, n := range m.nodes {
		for _, pid := range n.pids {
			chains += len(res.Get(pid))
		}
	}
	for _, pass := range []string{"cold", "warm"} {
		if pass == "cold" {
			m.cache.Invalidate()
		}
		before := mx.Scrape().OccurPairs
		sids, _, err := m.MatchDocument(doc, guard.NewBudget(context.Background(), guard.Limits{MaxSteps: int64(4*chains + 1<<12)}))
		if err != nil || len(sids) != 0 {
			t.Fatalf("%s: sids %v, err %v; want no match within the budget", pass, sids, err)
		}
		if pairs := mx.Scrape().OccurPairs - before; pairs == 0 || pairs > int64(2*chains) {
			t.Fatalf("%s: %d occurrence pairs visited, want 1..%d (twice the chains' %d)", pass, pairs, 2*chains, chains)
		}
	}
}
