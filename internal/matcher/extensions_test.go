package matcher

import (
	"math/rand"
	"testing"

	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// TestContainmentCoverTargeted: a full match of a long expression must
// mark registered suffix and infix expressions without changing results.
func TestContainmentCoverTargeted(t *testing.T) {
	xpes := []string{
		"/a/b/c/d", // full chain
		"b/c",      // infix (relative expressions share the chain fragment)
		"c/d",      // suffix
		"/a/b",     // prefix
		"b/d",      // not contained — must still be evaluated on its own
	}
	doc := xmldoc.FromPaths([]string{"a", "b", "c", "d"})
	for _, mode := range []CoverMode{PrefixOnly, Containment} {
		for _, o := range withScalar([]Options{{Variant: Basic, CoverMode: mode}, {Variant: PrefixCover, CoverMode: mode}, {Variant: PrefixCoverAP, CoverMode: mode}}) {
			m, v := New(o), o.Variant
			sids := mustAdd(t, m, xpes...)
			got := matchSet(m, doc)
			want := []bool{true, true, true, true, false}
			for i, w := range want {
				if got[sids[i]] != w {
					t.Errorf("mode=%d %s: %q matched=%v, want %v", mode, v, xpes[i], got[sids[i]], w)
				}
			}
		}
	}
}

// TestExtensionEquivalence: every extension combination produces exactly
// the default configuration's results on random workloads.
func TestExtensionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	extCfgs := withScalar([]Options{
		{Variant: PrefixCover, CoverMode: Containment},
		{Variant: PrefixCoverAP, CoverMode: Containment},
		{Variant: PrefixCoverAP, ClusterBy: RarestPredicate},
		{Variant: PrefixCoverAP, CoverMode: Containment, ClusterBy: RarestPredicate},
		{Variant: PrefixCoverAP, CoverMode: Containment, ClusterBy: RarestPredicate, DisablePathDedup: true},
	})
	for round := 0; round < 40; round++ {
		xpes := make([]string, 60)
		var paths []*xpath.Path
		for i := range xpes {
			xpes[i] = randXPE(rng, false)
			paths = append(paths, xpath.MustParse(xpes[i]))
		}
		doc := randDoc(rng, false)
		for _, opts := range extCfgs {
			m := New(opts)
			sids := make([]SID, len(xpes))
			for i, s := range xpes {
				sid, err := m.Add(s)
				if err != nil {
					t.Fatal(err)
				}
				sids[i] = sid
			}
			got := matchSet(m, doc)
			for i, p := range paths {
				want := refmatch.Match(p, doc)
				if got[sids[i]] != want {
					t.Fatalf("round %d %+v: %q matched=%v, ref=%v", round, opts, xpes[i], got[sids[i]], want)
				}
			}
		}
	}
}

// TestExtensionEquivalenceWithAttrs extends the check to attribute
// filters in both modes (cover keys must respect filter annotations).
func TestExtensionEquivalenceWithAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for round := 0; round < 25; round++ {
		xpes := make([]string, 40)
		var paths []*xpath.Path
		for i := range xpes {
			xpes[i] = randXPE(rng, true)
			paths = append(paths, xpath.MustParse(xpes[i]))
		}
		doc := randDoc(rng, true)
		for _, attrMode := range []int{0, 1} {
			opts := Options{
				Variant:   PrefixCoverAP,
				AttrMode:  predAttrMode(attrMode),
				CoverMode: Containment,
				ClusterBy: RarestPredicate,
			}
			m := New(opts)
			sids := make([]SID, len(xpes))
			for i, s := range xpes {
				sid, err := m.Add(s)
				if err != nil {
					t.Fatal(err)
				}
				sids[i] = sid
			}
			got := matchSet(m, doc)
			for i, p := range paths {
				want := refmatch.Match(p, doc)
				if got[sids[i]] != want {
					t.Fatalf("round %d attrs=%d: %q matched=%v, ref=%v", round, attrMode, xpes[i], got[sids[i]], want)
				}
			}
		}
	}
}

// TestRarestClusterChoice: clustering picks the least-referenced pid.
func TestRarestClusterChoice(t *testing.T) {
	m := New(Options{Variant: PrefixCoverAP, ClusterBy: RarestPredicate})
	// (d(a,b),=,1) is shared by both expressions; (d(b,c),=,1) and
	// (d(b,d),=,1) are unique, so they are the rarest pids.
	mustAdd(t, m, "a/b/c", "a/b/d")
	m.mu.Lock()
	m.freeze()
	m.mu.Unlock()
	if len(m.clusters) != 2 {
		t.Fatalf("clusters = %d, want 2 (one per rare pid)", len(m.clusters))
	}
	shared := m.ix.Len() // sanity: 3 distinct predicates stored
	if shared != 3 {
		t.Errorf("distinct predicates = %d, want 3", shared)
	}
}
