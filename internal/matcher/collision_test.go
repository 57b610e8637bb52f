package matcher

import (
	"reflect"
	"testing"

	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
)

// forceCollisions replaces every registration/freeze hash with a constant
// so all buckets conflict; identity must then be decided entirely by the
// full-compare logic. Restored on test cleanup.
func forceCollisions(t *testing.T) {
	t.Helper()
	origChain, origLevel, origNested := chainHashFn, levelHashFn, nestedKeyFn
	chainHashFn = func([]predindex.PID, []predicate.SideAttrs) uint64 { return 42 }
	levelHashFn = func(predindex.PID, []predicate.SideAttrs, int) uint64 { return 42 }
	nestedKeyFn = func(string) uint64 { return 42 }
	t.Cleanup(func() {
		chainHashFn, levelHashFn, nestedKeyFn = origChain, origLevel, origNested
	})
}

// TestCollisionDoesNotAliasExpressions registers distinct expressions
// whose chain hashes are forced equal and verifies they keep separate
// identities: matching reports exactly the right sids.
func TestCollisionDoesNotAliasExpressions(t *testing.T) {
	forceCollisions(t)
	// Parsed (not FromPaths) so the two paths share the root node: the
	// nested expression needs node identity for recombination.
	doc, err := xmldoc.Parse([]byte(`<a><b><c/></b><d/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range allVariants {
		for mode := 0; mode < 2; mode++ {
			m := New(Options{Variant: v, AttrMode: predAttrMode(mode)})
			sids := mustAdd(t, m,
				"/a/b/c",     // matches
				"/a/d",       // matches — must not be merged with /a/b/c
				"/x/y",       // no match — must not be merged with a matching one
				`/a/b[@q=1]`, // no match (filter fails) — must stay distinct
				"/a/b",       // matches
				"/a[b/c]/d",  // nested, matches
				"/a[b/x]/d",  // nested, no match — distinct from the previous
				"/a/b/c",     // duplicate: must still dedup onto sids[0]'s expr
			)
			got := matchSet(m, doc)
			want := map[SID]bool{
				sids[0]: true, sids[1]: true, sids[4]: true,
				sids[5]: true, sids[7]: true,
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%d: got %v want %v", v, mode, got, want)
			}
			// The duplicate must share storage with the original even under
			// collisions (dedup by full compare, not by hash identity).
			st := m.Stats()
			if st.DistinctExpressions != 7 {
				t.Fatalf("%v/%d: distinct expressions %d, want 7", v, mode, st.DistinctExpressions)
			}
		}
	}
}

// TestCollisionPrefixCovering forces trie-level collisions and checks the
// prefix-cover organization still relates only true prefixes.
func TestCollisionPrefixCovering(t *testing.T) {
	forceCollisions(t)
	// "/a/b" is a true prefix of "/a/b/c"; "/x/y" collides with both in
	// every trie bucket but must never be marked via covering.
	doc := xmldoc.FromPaths([]string{"a", "b", "c"})
	m := New(Options{Variant: PrefixCover})
	sids := mustAdd(t, m, "/a/b/c", "/a/b", "/x/y")
	got := matchSet(m, doc)
	want := map[SID]bool{sids[0]: true, sids[1]: true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestCollisionPostponedGroups forces group-key collisions in Postponed
// mode: two different structural chains must keep separate group
// representatives.
func TestCollisionPostponedGroups(t *testing.T) {
	forceCollisions(t)
	doc := xmldoc.FromPaths([]string{"a", "b"}, []string{"c", "d"})
	m := New(Options{AttrMode: predicate.Postponed})
	sids := mustAdd(t, m, `/a/b[@k=1]`, "/a/b", `/c/d[@k=1]`, "/c/d")
	got := matchSet(m, doc)
	// No attributes in the document: the filtered variants fail, the bare
	// ones match; a collision-merged group would corrupt this split.
	want := map[SID]bool{sids[1]: true, sids[3]: true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestCollisionNestedDedup: two distinct nested expressions and one
// duplicate under a constant nested key.
func TestCollisionNestedDedup(t *testing.T) {
	forceCollisions(t)
	m := New(Options{})
	mustAdd(t, m, "/a[b/c]/d", "/a[b/x]/d", "/a[b/c]/d")
	if st := m.Stats(); st.DistinctExpressions != 2 {
		t.Fatalf("distinct expressions %d, want 2", st.DistinctExpressions)
	}
}
