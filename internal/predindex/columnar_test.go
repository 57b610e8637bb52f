package predindex

import (
	"fmt"
	"math/rand"
	"testing"

	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// resolveTids maps a publication's tags through the layout the way the
// matcher's columnar kernel does.
func resolveTids(l *Layout, pub *xmldoc.Publication) []int32 {
	tids := make([]int32, len(pub.Tuples))
	for i := range pub.Tuples {
		tids[i] = l.Tid(pub.Tuples[i].Tag)
	}
	return tids
}

func touchedEqual(a, b []PID) error {
	if len(a) != len(b) {
		return fmt.Errorf("touched counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("touched[%d]: %d vs %d", i, a[i], b[i])
		}
	}
	return nil
}

// The layout's tid-resolved predicate stage must be bit-for-bit the
// index's: identical pair sequences per predicate and identical touched
// order — over randomized predicate sets and publications, including
// repeated tags, attribute-carrying predicates and tags the index has
// never seen. Every other trial builds
// the layout halfway through the insertions and Syncs it after the rest.
func TestLayoutMatchesMatchPathRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 60; trial++ {
		ix := New()
		nexpr := 1 + rng.Intn(12)
		var lay *Layout
		for i := 0; i < nexpr; i++ {
			if trial%2 == 1 && i == nexpr/2 {
				lay = ix.BuildLayout()
			}
			s := randXPE(rng, tags)
			enc, err := predicate.Encode(xpath.MustParse(s), predicate.Inline)
			if err != nil {
				t.Fatalf("encode %q: %v", s, err)
			}
			for _, p := range enc.Preds {
				ix.Insert(p)
			}
		}
		if lay == nil {
			lay = ix.BuildLayout()
		}
		lay.Sync()
		ix.Vals.Rerank()
		if lay.Len() != ix.Len() {
			t.Fatalf("layout Len %d, index Len %d", lay.Len(), ix.Len())
		}

		for d := 0; d < 8; d++ {
			pub := randPub(rng, append(tags, "zz")) // zz is never indexed
			want := NewResults(ix.Len())
			want.Reset(ix.Len())
			ix.MatchPath(pub, want)

			got := NewResults(ix.Len())
			got.Reset(ix.Len())
			lay.MatchPathTids(pub, resolveTids(lay, pub), got, true)

			if err := resultsEqual(ix, want, got); err != nil {
				t.Fatalf("trial %d doc %d: %v", trial, d, err)
			}
			if err := touchedEqual(want.Touched(), got.Touched()); err != nil {
				t.Fatalf("trial %d doc %d: %v", trial, d, err)
			}
		}
	}
}

// randXPE builds a random expression in the supported fragment:
// absolute/relative, child/descendant axes, wildcards, occasional
// attribute filters.
func randXPE(rng *rand.Rand, tags []string) string {
	n := 1 + rng.Intn(4)
	s := ""
	if rng.Intn(2) == 0 {
		s = "/"
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			if rng.Intn(3) == 0 {
				s += "//"
			} else {
				s += "/"
			}
		}
		if rng.Intn(6) == 0 {
			s += "*"
			continue
		}
		tag := tags[rng.Intn(len(tags))]
		s += tag
		if rng.Intn(4) == 0 {
			s += fmt.Sprintf("[@x=%d]", rng.Intn(3))
		}
	}
	if s == "" || s == "/" {
		s = "/" + tags[0]
	}
	return s
}

// randPub builds one random root-to-leaf publication, with repeated tags
// (occurrence numbers > 1) and random attributes.
func randPub(rng *rand.Rand, tags []string) *xmldoc.Publication {
	depth := 1 + rng.Intn(7)
	path := make([]string, depth)
	for i := range path {
		path[i] = tags[rng.Intn(len(tags))]
	}
	doc := xmldoc.FromPaths(path)
	pub := &doc.Paths[0]
	for i := range pub.Tuples {
		if rng.Intn(3) == 0 {
			pub.Tuples[i].Attrs = []xmldoc.Attr{{Name: "x", Value: fmt.Sprint(rng.Intn(3))}}
		}
	}
	return pub
}
