package matcher

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
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
				opts.PathCacheBytes = -1
			}
			m := New(opts)
			want := mustAdd(t, m, "/a//b")
			if _, _, err := m.MatchDocumentColumnar(mustParse(t, "<z/>"), nil); err != nil {
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
				got, _, err := m.MatchDocumentColumnar(mustParse(t, c.doc), nil)
				if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("after rejecting %q (cached %v): %s matched %v, %v; want %v", c.bad, cached, c.doc, got, err, want)
				}
			}()
		}
	}
}
