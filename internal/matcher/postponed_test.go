package matcher

import (
	"fmt"
	"testing"

	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
)

// TestPostponedGrouping: in Postponed mode, attribute variants of one
// structural chain share a group representative; bare and annotated
// variants coexist and report correctly.
func TestPostponedGrouping(t *testing.T) {
	m := New(Options{Variant: PrefixCoverAP, AttrMode: predicate.Postponed})
	xpes := []string{
		"/a/b",       // bare
		"/a/b[@k=1]", // variant 1
		"/a/b[@k=2]", // variant 2
		"/a[@j=5]/b", // variant 3
		"/a/c",       // different chain
		"/a/c[@k=1]", //
	}
	sids := mustAdd(t, m, xpes...)
	m.mu.Lock()
	m.freeze()
	units := len(m.ordered)
	slots := len(m.exprs)
	m.mu.Unlock()
	if units != 2 {
		t.Errorf("iteration units = %d, want 2 (one group per structural chain)", units)
	}
	if slots != len(xpes)+2 {
		t.Errorf("matched slots = %d, want %d (one more per group)", slots, len(xpes)+2)
	}

	doc, err := xmldoc.Parse([]byte(`<a j="5"><b k="1"/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	got := matchSet(m, doc)
	want := []bool{true, true, false, true, false, false}
	for i, w := range want {
		if got[sids[i]] != w {
			t.Errorf("%q: matched=%v, want %v", xpes[i], got[sids[i]], w)
		}
	}
}

// TestPostponedGroupSkip: once every member of a group matched, later
// paths skip the group (observable through correct results on documents
// where different paths satisfy different variants).
func TestPostponedGroupSkip(t *testing.T) {
	m := New(Options{Variant: Basic, AttrMode: predicate.Postponed})
	sids := mustAdd(t, m, "/r/x[@v=1]", "/r/x[@v=2]", "/r/x[@v=3]")
	doc, err := xmldoc.Parse([]byte(`<r><x v="1"><l1/></x><x v="2"><l2/></x></r>`))
	if err != nil {
		t.Fatal(err)
	}
	got := matchSet(m, doc)
	want := []bool{true, true, false}
	for i, w := range want {
		if got[sids[i]] != w {
			t.Errorf("variant %d: matched=%v, want %v", i+1, got[sids[i]], w)
		}
	}
}

// TestBreakdownAccounting: the cost split is populated and the stages sum
// to within an order of magnitude of something sensible (they are wall
// clock, so only coarse sanity is possible).
func TestBreakdownAccounting(t *testing.T) {
	m := New(Options{Variant: PrefixCoverAP, PathCacheBytes: -1}) // the scalar loop, which keeps the split
	for i := 0; i < 200; i++ {
		if _, err := m.Add(fmt.Sprintf("/r/t%d/u", i%50)); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := xmldoc.Parse([]byte(`<r><t1><u/></t1><t2><u/></t2></r>`))
	if err != nil {
		t.Fatal(err)
	}
	sids, bd, _ := m.MatchDocument(doc, nil)
	if len(sids) != 8 { // t1/u and t2/u, 4 duplicate sids each
		t.Errorf("matched %d sids, want 8", len(sids))
	}
	if bd.PredMatch <= 0 || bd.ExprMatch < 0 || bd.Other < 0 {
		t.Errorf("breakdown = %+v", bd)
	}
}

// TestPathDedupWithAttrSensitivity: with attribute predicates registered,
// paths differing only in attribute values must not be deduplicated.
func TestPathDedupWithAttrSensitivity(t *testing.T) {
	for _, mode := range []predicate.AttrMode{predicate.Inline, predicate.Postponed} {
		m := New(Options{Variant: PrefixCoverAP, AttrMode: mode})
		sid, err := m.Add("/r/x[@v=2]")
		if err != nil {
			t.Fatal(err)
		}
		// Two structurally identical paths; only the second satisfies the
		// filter. A tag-only dedup key would drop it.
		doc, err := xmldoc.Parse([]byte(`<r><x v="1"/><x v="2"/></r>`))
		if err != nil {
			t.Fatal(err)
		}
		got := matchSet(m, doc)
		if !got[sid] {
			t.Errorf("mode %d: attribute-bearing duplicate path was deduplicated away", mode)
		}
	}
}

// TestDedupDisabledEquivalence: DisablePathDedup changes nothing about
// results.
func TestDedupDisabledEquivalence(t *testing.T) {
	doc, err := xmldoc.Parse([]byte(`<r><x><y/></x><x><y/></x><z/></r>`))
	if err != nil {
		t.Fatal(err)
	}
	xpes := []string{"/r/x/y", "/r/z", "/r/q", "x/y", "//y"}
	for _, disable := range []bool{false, true} {
		m := New(Options{Variant: PrefixCoverAP, DisablePathDedup: disable})
		sids := mustAdd(t, m, xpes...)
		got := matchSet(m, doc)
		want := []bool{true, true, false, true, true}
		for i, w := range want {
			if got[sids[i]] != w {
				t.Errorf("disable=%v %q: matched=%v, want %v", disable, xpes[i], got[sids[i]], w)
			}
		}
	}
}
