package matcher

import (
	"fmt"
	"testing"

	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// builtDocs are FromPaths documents whose tuples do what no parse does:
// share attribute storage across paths, slice one array to two lengths,
// carry made-up node ids, or share a Shape with another tag sequence.
func builtDocs() []*xmldoc.Document {
	yz := []xmldoc.Attr{{Name: "y", Value: "1"}, {Name: "z", Value: "2"}}
	x1 := []xmldoc.Attr{{Name: "x", Value: "1"}}
	x2 := []xmldoc.Attr{{Name: "x", Value: "2"}}

	// One array, the shorter slice first: the second path's z=2 must be
	// decided, not read off the first path's storage.
	prefix := xmldoc.FromPaths([]string{"a", "b"}, []string{"a", "b"})
	prefix.Paths[0].Tuples[1].Attrs = yz[:1]
	prefix.Paths[1].Tuples[1].Attrs = yz

	// Two paths' tuples share one slice each level; the third path has its
	// own copy of the same values.
	shared := xmldoc.FromPaths([]string{"a", "b"}, []string{"a", "b"}, []string{"a", "b"})
	for i := 0; i < 2; i++ {
		shared.Paths[i].Tuples[0].Attrs, shared.Paths[i].Tuples[1].Attrs = x1, yz
	}
	shared.Paths[2].Tuples[0].Attrs = []xmldoc.Attr{{Name: "x", Value: "1"}}
	shared.Paths[2].Tuples[1].Attrs = []xmldoc.Attr{{Name: "z", Value: "2"}}

	// Every tuple claims node 0; the values differ anyway.
	madeUp := xmldoc.FromPaths([]string{"a", "b"}, []string{"a", "b"}, []string{"a", "b"})
	for i, attrs := range [][2][]xmldoc.Attr{{x1, yz}, {x2, yz[:1]}, {x1, yz[1:]}} {
		for k := range madeUp.Paths[i].Tuples {
			madeUp.Paths[i].Tuples[k].NodeID, madeUp.Paths[i].Tuples[k].Attrs = 0, attrs[k]
		}
	}
	docs := []*xmldoc.Document{prefix, shared, madeUp}
	for _, d := range docs {
		for i := range d.Paths {
			d.Paths[i].Rehash()
		}
	}

	// Two tag sequences under one made-up Shape: a record must confirm
	// the tags, not trust the hash.
	collide := xmldoc.FromPaths([]string{"a", "b"}, []string{"a", "c"})
	collide.Paths[1].Shape = collide.Paths[0].Shape
	return append(docs, collide)
}

// TestShapeRecordReuse: a shape repeated within a document reuses its
// entry and re-decides only the tests on tuples whose node changed. Each
// case's documents run in sequence on one cached matcher per mode (hit
// programs in both, from the predicates' filters in Inline mode and from
// the members' in Postponed) and must equal the scalar reference engine
// and refmatch, document by document.
func TestShapeRecordReuse(t *testing.T) {
	cases := []struct {
		name  string
		xpes  []string
		xml   []string
		built []*xmldoc.Document
	}{
		{
			name: "sibling leaves differ in a leaf attribute",
			xpes: []string{"/a/b[@y=2]", "/a/b[@y=4]", "/a[@x=1]/b", "//b[@y>=2]", "/a/b[@y!=1]", "/a/b[@y]"},
			xml: []string{
				`<a x="1"><b y="1"/><b y="2"/><b y="3"/></a>`,
				`<a x="1"><b y="4"/><b/><b y="1"/></a>`,
				`<a><b y="1"/><b y="1"/></a>`,
			},
		},
		{
			name: "sibling subtrees differ in an ancestor attribute",
			xpes: []string{"/r/a[@x=2]/b/c", "/r/a[@x=1]/b", "//a[@x>=2]//c", "/r/a/b/c", "/r/a[@x]/b[@k=v]/c"},
			xml: []string{
				`<r><a x="1"><b k="v"><c/></b></a><a x="2"><b><c/></b></a><a><b k="v"><c/></b></a></r>`,
				`<r><a x="3"><b><c/></b></a><a x="1"><b k="v"><c/></b></a></r>`,
				`<r><a><b k="v"><c/></b></a><a x="0"><b k="w"><c/></b></a></r>`,
			},
		},
		{
			name: "one unit's tests on two tuples, one node changing",
			xpes: []string{"/a[@x=1]/b[@y=2]", "/a[@x=2]/b[@y=3]", "/r/a[@x=1]/b[@y=2]", "/r/a[@x=2]/b[@y=3]/c"},
			xml: []string{
				`<a x="1"><b y="3"/><b y="2"/><b y="3"/></a>`,
				`<a x="2"><b y="2"/><b y="3"/></a>`,
				`<r><a x="1"><b y="3"><c/></b></a><a x="2"><b y="2"><c/></b></a></r>`,
				`<r><a x="2"><b y="2"><c/></b><b y="3"><c/></b></a><a x="1"><b y="2"><c/></b></a></r>`,
			},
		},
		{
			name:  "FromPaths: shared slices, made-up node ids and shapes",
			xpes:  []string{"/a/b[@z=2]", "/a[@x=1]/b[@y=1]", "/a[@x=2]/b[@y]", "/a/b[@y=1]", "/a[@x=1]/b[@z=2]", "/a/c"},
			built: builtDocs(),
		},
		{
			name: "nested-path expression registered",
			xpes: []string{"/r/a[b/c]/b[@k=v]", "/r/a[@x=1]/b/c", "/r/a/b[@k=w]/c", "//a[b[@k=v]]"},
			xml: []string{
				`<r><a x="1"><b k="w"><c/></b></a><a x="2"><b k="v"><c/></b></a><a x="1"><b k="v"/></a></r>`,
				`<r><a x="2"><b k="v"/><b k="w"><c/></b></a><a><b><c/></b></a></r>`,
			},
		},
	}
	for _, tc := range cases {
		docs := tc.built
		for _, x := range tc.xml {
			docs = append(docs, mustParse(t, x))
		}
		for mode := 0; mode < 2; mode++ {
			t.Run(fmt.Sprintf("%s/mode%d", tc.name, mode), func(t *testing.T) {
				cached := New(Options{AttrMode: predAttrMode(mode)})
				scalar := New(Options{AttrMode: predAttrMode(mode), PathCacheBytes: -1})
				sids := mustAdd(t, cached, tc.xpes...)
				mustAdd(t, scalar, tc.xpes...)
				paths := 0
				for round := 0; round < 2; round++ { // cold cache, then warm
					for d, doc := range docs {
						paths += len(doc.Paths)
						got, want := matchSet(cached, doc), matchSet(scalar, doc)
						for i, xpe := range tc.xpes {
							ref := refmatch.Match(xpath.MustParse(xpe), doc)
							if got[sids[i]] != ref || want[sids[i]] != ref {
								t.Fatalf("round %d, document %d, %s: cached %v, scalar %v, refmatch %v",
									round, d, xpe, got[sids[i]], want[sids[i]], ref)
							}
						}
					}
				}
				if st, _ := cached.cacheStats(); st.Hits+st.Misses >= int64(paths) {
					t.Fatalf("%d cache probes for %d paths: no shape record was reused", st.Hits+st.Misses, paths)
				}
			})
		}
	}
}
