package predindex

import (
	"fmt"
	"math/rand"
	"testing"

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

// A recording replayed against the same publication must reproduce the
// fresh MatchPath results exactly, including attribute-carrying
// predicates re-verified on live tuples.
func TestReplayReproducesMatchPath(t *testing.T) {
	ix := New()
	for _, s := range []string{
		"a//b/c",
		"/a/b",
		"//c",
		"a//c",
		`/a/b[@x=1]/c`,
		`//b[@x=2]`,
		`a[@y=z]//c[@x=1]`,
	} {
		enc := predicate.MustEncode(xpath.MustParse(s), predicate.Inline)
		for _, p := range enc.Preds {
			ix.Insert(p)
		}
	}
	ix.Vals.Rerank()

	docs := []*xmldoc.Document{
		xmldoc.FromPaths([]string{"a", "b", "c", "a", "b", "c"}),
		xmldoc.FromPaths([]string{"a", "b", "c"}),
		xmldoc.FromPaths([]string{"c"}),
	}
	// A path with attributes: same structure as docs[1], different values.
	withAttrs, err := xmldoc.Parse([]byte(`<a y="z"><b x="1"><c x="1"/></b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	otherAttrs, err := xmldoc.Parse([]byte(`<a y="q"><b x="2"><c x="7"/></b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, withAttrs, otherAttrs)

	for di, doc := range docs {
		for pi := range doc.Paths {
			pub := &doc.Paths[pi]
			fresh := NewResults(ix.Len())
			fresh.Reset(ix.Len())
			var rec Recording
			ix.MatchPathRecord(pub, fresh, &rec)

			replayed := NewResults(ix.Len())
			replayed.Reset(ix.Len())
			ix.Replay(&rec, pub, replayed)
			if err := resultsEqual(ix, fresh, replayed); err != nil {
				t.Fatalf("doc %d path %d: %v", di, pi, err)
			}

			// Recording with MatchPathRecord must not change the direct
			// results either.
			plain := NewResults(ix.Len())
			plain.Reset(ix.Len())
			ix.MatchPath(pub, plain)
			if err := resultsEqual(ix, fresh, plain); err != nil {
				t.Fatalf("doc %d path %d (record vs plain): %v", di, pi, err)
			}
		}
	}
}

// A recording made on one publication replayed against a structurally
// identical publication with different attribute values must equal a
// fresh run on the second publication: the residual hits are re-verified
// live.
func TestReplayReVerifiesAttributesOnLivePath(t *testing.T) {
	ix := New()
	enc := predicate.MustEncode(xpath.MustParse(`/a/b[@x=1]`), predicate.Inline)
	var pids []PID
	for _, p := range enc.Preds {
		pids = append(pids, ix.Insert(p))
	}
	ix.Vals.Rerank()

	matching, _ := xmldoc.Parse([]byte(`<a><b x="1"/></a>`))
	nonMatching, _ := xmldoc.Parse([]byte(`<a><b x="2"/></a>`))

	// Record on the non-matching publication (structural occurrence exists,
	// filter fails), replay on the matching one: the filter must pass now.
	rec := Recording{}
	res := NewResults(ix.Len())
	res.Reset(ix.Len())
	ix.MatchPathRecord(&nonMatching.Paths[0], res, &rec)

	replayed := NewResults(ix.Len())
	replayed.Reset(ix.Len())
	ix.Replay(&rec, &matching.Paths[0], replayed)

	fresh := NewResults(ix.Len())
	fresh.Reset(ix.Len())
	ix.MatchPath(&matching.Paths[0], fresh)
	if err := resultsEqual(ix, fresh, replayed); err != nil {
		t.Fatal(err)
	}

	// And the reverse direction: recorded where the filter passed,
	// replayed where it fails.
	rec.Reset()
	res.Reset(ix.Len())
	ix.MatchPathRecord(&matching.Paths[0], res, &rec)
	replayed.Reset(ix.Len())
	ix.Replay(&rec, &nonMatching.Paths[0], replayed)
	fresh.Reset(ix.Len())
	ix.MatchPath(&nonMatching.Paths[0], fresh)
	if err := resultsEqual(ix, fresh, replayed); err != nil {
		t.Fatal(err)
	}
}

// Randomized cross-check: random predicate sets over random paths; replay
// must always equal a fresh run on the same publication.
func TestReplayRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 50; trial++ {
		ix := New()
		for i := 0; i < 20; i++ {
			var sb []byte
			if rng.Intn(2) == 0 {
				sb = append(sb, '/')
			}
			steps := 1 + rng.Intn(3)
			for s := 0; s < steps; s++ {
				if s > 0 {
					if rng.Intn(2) == 0 {
						sb = append(sb, '/')
					} else {
						sb = append(sb, '/', '/')
					}
				}
				sb = append(sb, tags[rng.Intn(len(tags))]...)
				if rng.Intn(4) == 0 {
					sb = append(sb, fmt.Sprintf("[@k=%d]", rng.Intn(2))...)
				}
			}
			p, err := xpath.Parse(string(sb))
			if err != nil {
				continue
			}
			enc, err := predicate.Encode(p, predicate.Inline)
			if err != nil {
				continue
			}
			for _, pr := range enc.Preds {
				ix.Insert(pr)
			}
		}
		ix.Vals.Rerank()
		var xb []byte
		depth := 1 + rng.Intn(5)
		open := make([]string, 0, depth)
		for d := 0; d < depth; d++ {
			tag := tags[rng.Intn(len(tags))]
			attr := ""
			if rng.Intn(3) == 0 {
				attr = fmt.Sprintf(` k="%d"`, rng.Intn(2))
			}
			xb = append(xb, fmt.Sprintf("<%s%s>", tag, attr)...)
			open = append(open, tag)
		}
		for d := depth - 1; d >= 0; d-- {
			xb = append(xb, fmt.Sprintf("</%s>", open[d])...)
		}
		doc, err := xmldoc.Parse(xb)
		if err != nil {
			t.Fatalf("trial %d: %v (%s)", trial, err, xb)
		}
		pub := &doc.Paths[0]

		fresh := NewResults(ix.Len())
		fresh.Reset(ix.Len())
		var rec Recording
		ix.MatchPathRecord(pub, fresh, &rec)

		replayed := NewResults(ix.Len())
		replayed.Reset(ix.Len())
		ix.Replay(&rec, pub, replayed)
		if err := resultsEqual(ix, fresh, replayed); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRecordingClone(t *testing.T) {
	r := Recording{
		Bare:     []BareHit{{PID: 1, A: 2, B: 3}},
		Residual: []ResidualHit{{PID: 4, T1: 0, T2: -1, A: 1, B: 1}},
	}
	c := r.Clone()
	r.Reset()
	r.Bare = append(r.Bare, BareHit{PID: 9})
	if len(c.Bare) != 1 || c.Bare[0].PID != 1 || len(c.Residual) != 1 {
		t.Fatalf("clone mutated: %+v", c)
	}
	var empty Recording
	ec := empty.Clone()
	if ec.Bare != nil || ec.Residual != nil {
		t.Fatalf("empty clone not empty: %+v", ec)
	}
}

// A pruned recording replays exactly the kept predicates: their pair
// sequences equal the fresh run's (attribute filters re-verified on a
// same-structure publication with other values), every other predicate
// reads as unmatched, and MatchedAll agrees with per-predicate Matched.
func TestKeepPrunesReplayToKeptPredicates(t *testing.T) {
	ix := New()
	for _, s := range []string{"a//b/c", "/a/b", "//c", `/a/b[@x=1]/c`, `//b[@x=2]`, `a[@y=z]//c[@x=1]`, "/a/d", "d//e", "/x", `//b[@x=9]`} {
		for _, p := range predicate.MustEncode(xpath.MustParse(s), predicate.Inline).Preds {
			ix.Insert(p)
		}
	}
	ix.Vals.Rerank()
	recorded, err := xmldoc.Parse([]byte(`<a y="z"><b x="1"><c x="1"/></b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	live, err := xmldoc.Parse([]byte(`<a y="z"><b x="2"><c x="1"/></b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	res := NewResults(ix.Len())
	res.Reset(ix.Len())
	var rec Recording
	ix.MatchPathRecord(&recorded.Paths[0], res, &rec)
	keep := func(pid PID) bool { return pid%2 == 0 }
	rec.Keep(keep)

	fresh := NewResults(ix.Len())
	fresh.Reset(ix.Len())
	ix.MatchPath(&live.Paths[0], fresh)
	replayed := NewResults(ix.Len())
	replayed.Reset(ix.Len())
	ix.Replay(&rec, &live.Paths[0], replayed)

	var kept, matched []PID
	for pid := PID(0); int(pid) < ix.Len(); pid++ {
		want := fresh.Get(pid)
		if !keep(pid) {
			want = nil
		} else {
			kept = append(kept, pid)
			if fresh.Matched(pid) {
				matched = append(matched, pid)
			}
		}
		if got := replayed.Get(pid); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pid %d (%s): replayed %v, want %v", pid, ix.Pred(pid), got, want)
		}
	}
	if len(matched) == 0 || len(matched) == len(kept) {
		t.Fatalf("degenerate fixture: %d of %d kept predicates match", len(matched), len(kept))
	}
	if !replayed.MatchedAll(matched) || replayed.MatchedAll(kept) || !replayed.MatchedAll(nil) {
		t.Fatal("MatchedAll disagrees with per-predicate Matched")
	}
}
