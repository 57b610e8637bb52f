package matcher

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"predfilter/internal/pathcache"
	"predfilter/internal/predicate"
	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

func predAttrMode(i int) predicate.AttrMode { return predicate.AttrMode(i) }

var allVariants = []Variant{Basic, PrefixCover, PrefixCoverAP}

// mustAdd registers expressions and returns their sids.
func mustAdd(t *testing.T, m *Matcher, xpes ...string) []SID {
	t.Helper()
	sids := make([]SID, len(xpes))
	for i, s := range xpes {
		sid, err := m.Add(s)
		if err != nil {
			t.Fatalf("Add(%q): %v", s, err)
		}
		sids[i] = sid
	}
	return sids
}

// withScalar returns cfgs plus the uncached twin of each. MatchDocument
// runs the cached columnar kernel on the former and the scalar reference
// loop — the only place Variant, covers and clusters act — on the latter.
func withScalar(cfgs []Options) []Options {
	out := append([]Options(nil), cfgs...)
	for _, o := range cfgs {
		o.PathCacheBytes = -1
		out = append(out, o)
	}
	return out
}

// cacheStats returns the path cache's counters and whether it is enabled.
func (m *Matcher) cacheStats() (pathcache.Stats, bool) {
	st := m.Stats()
	return st.PathCache, st.PathCacheEnabled
}

func matchSet(m *Matcher, doc *xmldoc.Document) map[SID]bool {
	out := make(map[SID]bool)
	for _, sid := range m.MatchDocument(doc) {
		out[sid] = true
	}
	return out
}

// TestBasicExamples walks hand-checked matches for each variant.
func TestBasicExamples(t *testing.T) {
	xpes := []string{
		"/a/b/c",   // 0: matches
		"/a/b/d",   // 1: no
		"a//c",     // 2: matches
		"b/c",      // 3: matches
		"/b",       // 4: no (root is a)
		"/*/*/*",   // 5: matches (length 3 path exists)
		"/*/*/*/*", // 6: no
		"/a/*/c",   // 7: matches
		"/a/b/*",   // 8: matches
		"c",        // 9: matches
		"c/*",      // 10: no (c is a leaf)
		"//b/c",    // 11: matches
		"/a//c",    // 12: matches
		"b//b",     // 13: no
	}
	doc := xmldoc.FromPaths([]string{"a", "b", "c"}, []string{"a", "d"})
	want := map[int]bool{0: true, 2: true, 3: true, 5: true, 7: true, 8: true, 9: true, 11: true, 12: true}
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) {
			m := New(Options{Variant: v})
			sids := mustAdd(t, m, xpes...)
			got := matchSet(m, doc)
			for i, sid := range sids {
				if got[sid] != want[i] {
					t.Errorf("%q: matched=%v, want %v", xpes[i], got[sid], want[i])
				}
			}
		})
	}
}

// TestOccurrenceNumbersMatter reproduces Example 2: c//b//a must not match
// the path (a,b,c,a,b,c) even though each of its predicates matches.
func TestOccurrenceNumbersMatter(t *testing.T) {
	doc := xmldoc.FromPaths([]string{"a", "b", "c", "a", "b", "c"})
	for _, v := range allVariants {
		m := New(Options{Variant: v})
		sids := mustAdd(t, m, "a//b/c", "c//b//a")
		got := matchSet(m, doc)
		if !got[sids[0]] {
			t.Errorf("%s: a//b/c should match", v)
		}
		if got[sids[1]] {
			t.Errorf("%s: c//b//a should not match (discontinuous occurrences)", v)
		}
	}
}

// TestDuplicatesShareEntries checks duplicate expressions share storage
// but are each reported.
func TestDuplicatesShareEntries(t *testing.T) {
	m := New(Options{Variant: PrefixCoverAP})
	sids := mustAdd(t, m, "/a/b", "/a/b", "/a/b")
	st := m.Stats()
	if st.DistinctExpressions != 1 {
		t.Errorf("DistinctExpressions = %d, want 1", st.DistinctExpressions)
	}
	if st.SIDs != 3 {
		t.Errorf("SIDs = %d, want 3", st.SIDs)
	}
	doc := xmldoc.FromPaths([]string{"a", "b"})
	got := matchSet(m, doc)
	for _, sid := range sids {
		if !got[sid] {
			t.Errorf("duplicate sid %d not reported", sid)
		}
	}
}

// TestEquivalentEncodingsShareEntries: /*/*/* and */*/* have the same
// encoding by design (§3.2) and must collapse to one expression.
func TestEquivalentEncodingsShareEntries(t *testing.T) {
	m := New(Options{})
	mustAdd(t, m, "/*/*/*", "*/*/*")
	if st := m.Stats(); st.DistinctExpressions != 1 {
		t.Errorf("DistinctExpressions = %d, want 1", st.DistinctExpressions)
	}
}

// TestPrefixCovering checks the covering relation: when a long expression
// matches, its registered prefixes are reported without independent
// evaluation (we can only observe the result set here; the cost effect is
// exercised by benchmarks).
func TestPrefixCovering(t *testing.T) {
	doc := xmldoc.FromPaths([]string{"a", "b", "c", "d"})
	for _, v := range allVariants {
		m := New(Options{Variant: v})
		sids := mustAdd(t, m, "/a/b", "/a/b/c", "/a/b/c/d", "/a/b/c/d/*")
		got := matchSet(m, doc)
		for i, sid := range sids[:3] {
			if !got[sid] {
				t.Errorf("%s: prefix expression %d not matched", v, i)
			}
		}
		if got[sids[3]] {
			t.Errorf("%s: /a/b/c/d/* matched a length-4 path", v)
		}
	}
}

// TestRemove checks removed sids stop being reported while shared storage
// keeps serving other sids.
func TestRemove(t *testing.T) {
	m := New(Options{})
	sids := mustAdd(t, m, "/a/b", "/a/b")
	if err := m.Remove(sids[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(sids[0]); err == nil {
		t.Error("double Remove succeeded")
	}
	doc := xmldoc.FromPaths([]string{"a", "b"})
	got := matchSet(m, doc)
	if got[sids[0]] {
		t.Error("removed sid reported")
	}
	if !got[sids[1]] {
		t.Error("surviving duplicate sid not reported")
	}
}

// --- randomized equivalence against the reference matcher ---

var testTags = []string{"a", "b", "c", "d", "e"}

// randXPE generates a random expression; withAttrs adds attribute filters.
func randXPE(rng *rand.Rand, withAttrs bool) string {
	n := 1 + rng.Intn(4)
	var b strings.Builder
	if rng.Intn(2) == 0 {
		b.WriteString("/")
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			if rng.Intn(5) == 0 {
				b.WriteString("//")
			} else {
				b.WriteString("/")
			}
		} else if b.Len() == 1 && rng.Intn(6) == 0 {
			b.Reset()
			b.WriteString("//")
		}
		if rng.Intn(4) == 0 {
			b.WriteString("*")
			continue
		}
		b.WriteString(testTags[rng.Intn(len(testTags))])
		if withAttrs && rng.Intn(3) == 0 {
			b.WriteString(randFilter(rng))
			if rng.Intn(4) == 0 { // two filters on one step
				b.WriteString(randFilter(rng))
			}
		}
	}
	return b.String()
}

// attrConsts are the constants random filters draw: numeric and
// lexicographic, 2 and 2.0 one number and two strings, 10 below 2 as a
// string and above it as a number. attrValues are what random documents
// carry: those, values between, below and above them, and the empty value.
var (
	attrConsts = []string{"1", "2", "3", "2.0", "10", "b", "1a", "bb"}
	attrValues = append([]string{"0", "2.5", "11", "a", "c", "ba", ""}, attrConsts...)
)

// randFilter draws one attribute filter: any of the six operators, or the
// existence test.
func randFilter(rng *rand.Rand) string {
	name := []string{"x", "y"}[rng.Intn(2)]
	ops := []string{"", "=", ">=", "<=", "!=", ">", "<"}
	if op := ops[rng.Intn(len(ops))]; op != "" {
		return fmt.Sprintf("[@%s%s%s]", name, op, attrConsts[rng.Intn(len(attrConsts))])
	}
	return "[@" + name + "]"
}

// randDoc generates a small random XML document.
func randDoc(rng *rand.Rand, withAttrs bool) *xmldoc.Document {
	doc, err := xmldoc.Parse(randXML(rng, withAttrs))
	if err != nil {
		panic(err)
	}
	return doc
}

// randXML is randDoc's serialized form.
func randXML(rng *rand.Rand, withAttrs bool) []byte {
	var b strings.Builder
	var build func(depth int)
	build = func(depth int) {
		tag := testTags[rng.Intn(len(testTags))]
		b.WriteString("<" + tag)
		if withAttrs && rng.Intn(3) == 0 {
			names := []string{"x", "y"}
			rng.Shuffle(2, func(i, j int) { names[i], names[j] = names[j], names[i] })
			for _, name := range names[:1+rng.Intn(2)] {
				fmt.Fprintf(&b, ` %s="%s"`, name, attrValues[rng.Intn(len(attrValues))])
			}
		}
		b.WriteString(">")
		if depth < 5 {
			for k := rng.Intn(3); k > 0; k-- {
				build(depth + 1)
			}
		}
		b.WriteString("</" + tag + ">")
	}
	build(1)
	return []byte(b.String())
}

// TestRandomEquivalence is the Theorem A.1 test: on random workloads every
// engine configuration must agree exactly with the direct reference
// matcher.
func TestRandomEquivalence(t *testing.T) {
	configs := withScalar([]Options{
		{Variant: Basic},
		{Variant: PrefixCover},
		{Variant: PrefixCoverAP},
	})
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 60; round++ {
		xpes := make([]string, 40)
		paths := make([]*xpath.Path, len(xpes))
		for i := range xpes {
			xpes[i] = randXPE(rng, false)
			paths[i] = xpath.MustParse(xpes[i])
		}
		docs := make([]*xmldoc.Document, 5)
		for i := range docs {
			docs[i] = randDoc(rng, false)
		}
		for _, opts := range configs {
			m := New(opts)
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
						t.Fatalf("round %d doc %d %v: %q matched=%v, ref=%v\npaths: %v",
							round, di, opts, xpes[i], got[sids[i]], want, docPaths(doc))
					}
				}
			}
		}
	}
}

// TestRandomEquivalenceWithAttrs extends the equivalence test to
// attribute filters under both evaluation modes.
func TestRandomEquivalenceWithAttrs(t *testing.T) {
	configs := withScalar([]Options{
		{Variant: Basic, AttrMode: 0},
		{Variant: PrefixCoverAP, AttrMode: 0},
		{Variant: Basic, AttrMode: 1},
		{Variant: PrefixCover, AttrMode: 1},
		{Variant: PrefixCoverAP, AttrMode: 1},
	})
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 40; round++ {
		var xpes []string
		var paths []*xpath.Path
		for len(xpes) < 30 {
			s := randXPE(rng, true)
			p := xpath.MustParse(s)
			// Attribute filters on wildcard steps are unsupported; the
			// generator above never attaches them, so all parse fine.
			xpes = append(xpes, s)
			paths = append(paths, p)
		}
		docs := make([]*xmldoc.Document, 4)
		for i := range docs {
			docs[i] = randDoc(rng, true)
		}
		for _, opts := range configs {
			m := New(opts)
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
						t.Fatalf("round %d doc %d %+v: %q matched=%v, ref=%v\npaths: %v",
							round, di, opts, xpes[i], got[sids[i]], want, docPaths(doc))
					}
				}
			}
		}
	}
}

func docPaths(doc *xmldoc.Document) []string {
	out := make([]string, len(doc.Paths))
	for i := range doc.Paths {
		out[i] = doc.Paths[i].String()
	}
	return out
}

// TestVariantsAgree: all three organizations must produce identical match
// sets (they differ only in evaluation cost).
func TestVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 30; round++ {
		xpes := make([]string, 60)
		for i := range xpes {
			xpes[i] = randXPE(rng, false)
		}
		doc := randDoc(rng, false)
		var sets []map[SID]bool
		for _, v := range allVariants {
			m := New(Options{Variant: v, PathCacheBytes: -1}) // the variants act uncached only
			for _, s := range xpes {
				if _, err := m.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			sets = append(sets, matchSet(m, doc))
		}
		for i := 1; i < len(sets); i++ {
			if len(sets[i]) != len(sets[0]) {
				t.Fatalf("round %d: %s matched %d, %s matched %d", round,
					allVariants[0], len(sets[0]), allVariants[i], len(sets[i]))
			}
			for sid := range sets[0] {
				if !sets[i][sid] {
					t.Fatalf("round %d: sid %d matched by %s but not %s", round, sid, allVariants[0], allVariants[i])
				}
			}
		}
	}
}

// TestAttrModesAgree: inline and selection-postponed evaluation must
// produce identical match sets.
func TestAttrModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 30; round++ {
		xpes := make([]string, 40)
		for i := range xpes {
			xpes[i] = randXPE(rng, true)
		}
		doc := randDoc(rng, true)
		var sets []map[SID]bool
		for _, mode := range []int{0, 1} {
			m := New(Options{Variant: PrefixCoverAP, AttrMode: predAttrMode(mode)})
			for _, s := range xpes {
				if _, err := m.Add(s); err != nil {
					t.Fatal(err)
				}
			}
			sets = append(sets, matchSet(m, doc))
		}
		if len(sets[0]) != len(sets[1]) {
			t.Fatalf("round %d: inline matched %d, postponed matched %d", round, len(sets[0]), len(sets[1]))
		}
		for sid := range sets[0] {
			if !sets[1][sid] {
				t.Fatalf("round %d: sid %d differs between attribute modes", round, sid)
			}
		}
	}
}
