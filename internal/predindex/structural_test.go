package predindex

import (
	"fmt"
	"math/rand"
	"testing"

	"predfilter/internal/occur"
	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// resultsEqual compares the full per-predicate occurrence-pair state of
// two accumulators over an index.
func resultsEqual(ix *Index, a, b *Results) error {
	for pid := PID(0); int(pid) < ix.Len(); pid++ {
		ga, gb := a.Get(pid), b.Get(pid)
		if fmt.Sprint(ga) != fmt.Sprint(gb) {
			return fmt.Errorf("pid %d (%s): %v vs %v", pid, ix.Pred(pid), ga, gb)
		}
	}
	return nil
}

// tupleOf returns the tuple of pub with the tag and per-path occurrence
// number o, as the matcher recovers a pair's tuples.
func tupleOf(pub *xmldoc.Publication, tag string, o int32) *xmldoc.Tuple {
	for i := range pub.Tuples {
		if t := &pub.Tuples[i]; t.Tag == tag && int32(t.Occ) == o {
			return t
		}
	}
	return nil
}

// stages runs the structural and the live predicate stage.
func stages(ix *Index, pub *xmldoc.Publication) (structural, live *Results) {
	structural, live = NewResults(ix.Len()), NewResults(ix.Len())
	structural.Reset(ix.Len())
	live.Reset(ix.Len())
	ix.MatchPath(pub, structural, false)
	ix.MatchPath(pub, live, true)
	return structural, live
}

// filtered is the structural results with each attribute-carrying
// predicate's pairs kept where its filters hold on the tuples the pair
// names — what a cache hit decides instead of re-running the stage.
func filtered(ix *Index, pub *xmldoc.Publication, structural *Results) *Results {
	out := NewResults(ix.Len())
	out.Reset(ix.Len())
	for _, pid := range structural.Touched() {
		p, ts := ix.Pred(pid), ix.Tests(pid)
		for _, pr := range structural.Get(pid) {
			var t1, t2 *xmldoc.Tuple
			if len(ts[0]) > 0 {
				t1 = tupleOf(pub, p.Tag1, pr.A)
			}
			if len(ts[1]) > 0 {
				t2 = tupleOf(pub, p.Tag2, pr.B)
			}
			if ix.Vals.HoldsAll(ts[0], t1, &out.Vals) && ix.Vals.HoldsAll(ts[1], t2, &out.Vals) {
				out.Add(pid, pr.A, pr.B)
			}
		}
	}
	return out
}

// Randomized cross-check over random predicate sets and paths with
// repeated tags and attribute values: the structural stage gives every
// bare predicate its live pairs, and an attribute-carrying one a superset
// of them from which deciding the filters on the tuples recovered from
// tags and occurrence numbers leaves exactly the live pairs, in order.
func TestStructuralStageRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 80; trial++ {
		ix := New()
		for i := 0; i < 20; i++ {
			enc, err := predicate.Encode(xpath.MustParse(randXPE(rng, tags)), predicate.Inline)
			if err != nil {
				continue
			}
			for _, pr := range enc.Preds {
				ix.Insert(pr)
			}
		}
		ix.Vals.Rerank()
		for d := 0; d < 4; d++ {
			pub := randPub(rng, tags)
			structural, live := stages(ix, pub)
			for _, pid := range structural.Touched() {
				if ts := ix.Tests(pid); ts[0] == nil && ts[1] == nil && fmt.Sprint(structural.Get(pid)) != fmt.Sprint(live.Get(pid)) {
					t.Fatalf("trial %d: bare %s: structural %v, live %v", trial, ix.Pred(pid), structural.Get(pid), live.Get(pid))
				}
			}
			if err := resultsEqual(ix, live, filtered(ix, pub, structural)); err != nil {
				t.Fatalf("trial %d path %s: %v", trial, pub, err)
			}
		}
	}
}

// Two paths of one signature whose attribute values differ get the same
// structural results — the filter's pair is there whether it holds or not
// — and different live ones.
func TestStructuralStageIgnoresValues(t *testing.T) {
	ix := New()
	for _, p := range predicate.MustEncode(xpath.MustParse(`/a/b[@x=1]`), predicate.Inline).Preds {
		ix.Insert(p)
	}
	ix.Vals.Rerank()
	matching, _ := xmldoc.Parse([]byte(`<a><b x="1"/></a>`))
	other, _ := xmldoc.Parse([]byte(`<a><b x="2"/></a>`))
	s1, l1 := stages(ix, &matching.Paths[0])
	s2, l2 := stages(ix, &other.Paths[0])
	if err := resultsEqual(ix, s1, s2); err != nil {
		t.Fatal(err)
	}
	want := []occur.Pair{{A: 1, B: 1}}
	for pid := PID(0); int(pid) < ix.Len(); pid++ {
		if fmt.Sprint(s1.Get(pid)) != fmt.Sprint(want) || fmt.Sprint(l1.Get(pid)) != fmt.Sprint(want) {
			t.Fatalf("%s: structural %v, live %v on the matching path", ix.Pred(pid), s1.Get(pid), l1.Get(pid))
		}
	}
	if err := resultsEqual(ix, l1, l2); err == nil {
		t.Fatal("the live stage ignored the attribute value")
	}
}
