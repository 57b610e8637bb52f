package matcher

import (
	"fmt"
	"slices"
	"testing"

	"predfilter/internal/guard"
	"predfilter/internal/predicate"
	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// TestCollectSIDOrder holds the order of a match result to the rule the
// SID columns replace: walk the matched expressions in id order and append
// each one's live SIDs in bind order. The rule is computed here from a
// model of the registrations (distinct expressions in first-registration
// order, each with its SIDs in bind order) and refmatch, so an order
// change the set-comparing model tests cannot see shows up. The history
// binds one expression under several SIDs through Add and AddWithSID with
// gaps (not ascending), removes its first, middle and last SID, re-adds,
// empties and refills it, and includes Postponed-mode group
// representatives and a nested path.
func TestCollectSIDOrder(t *testing.T) {
	docs := []string{
		`<a><b k="1"><c/></b><d><e/></d></a>`,
		`<a><b><c/></b></a>`,
		`<a><d><e/></d><b/></a>`,
		`<x><b/></x>`,
	}
	for _, opts := range withScalar([]Options{{}, {AttrMode: predicate.Postponed}}) {
		t.Run(fmt.Sprintf("mode=%d,cache=%v", opts.AttrMode, opts.PathCacheBytes >= 0), func(t *testing.T) {
			m := New(opts)
			var order []string         // distinct expressions, first registration first
			live := map[string][]SID{} // expression → live SIDs in bind order
			exprOf := map[SID]string{} // live SID → expression
			bound := func(x string, sid SID) {
				if _, ok := live[x]; !ok {
					order = append(order, x)
				}
				live[x] = append(live[x], sid)
				exprOf[sid] = x
			}
			add := func(x string) SID {
				sid, err := m.Add(x)
				if err != nil {
					t.Fatalf("Add(%q): %v", x, err)
				}
				bound(x, sid)
				return sid
			}
			addAt := func(x string, sid SID) {
				if err := m.AddWithSID(x, sid); err != nil {
					t.Fatalf("AddWithSID(%q, %d): %v", x, sid, err)
				}
				bound(x, sid)
			}
			remove := func(sid SID) {
				if err := m.Remove(sid); err != nil {
					t.Fatalf("Remove(%d): %v", sid, err)
				}
				x := exprOf[sid]
				live[x] = slices.DeleteFunc(live[x], func(s SID) bool { return s == sid })
				delete(exprOf, sid)
			}
			check := func(step string) {
				t.Helper()
				for _, src := range docs {
					doc, err := xmldoc.Parse([]byte(src))
					if err != nil {
						t.Fatal(err)
					}
					want := []SID{}
					for _, x := range order {
						if refmatch.Match(xpath.MustParse(x), doc) {
							want = append(want, live[x]...)
						}
					}
					got := m.MatchDocument(doc)
					scan := []ScanDoc{{Src: xmldoc.Source{Bytes: []byte(src)}}}
					m.MatchScanned(scan, guard.Limits{})
					if scan[0].Err != nil {
						t.Fatalf("%s: %s: %v", step, src, scan[0].Err)
					}
					if !slices.Equal(got, want) || !slices.Equal(scan[0].SIDs, want) {
						t.Fatalf("%s: %s:\n MatchDocument %v\n MatchScanned  %v\n want          %v",
							step, src, got, scan[0].SIDs, want)
					}
				}
			}

			first := add("//b")
			addAt("//b", 10) // a gap below it
			add("/a/b/c")    // 11
			addAt("//b", 5)  // inside the gap: bind order is not id order
			add(`/a/b[@k=1]`)
			add("/a/b") // in Postponed mode, a representative joins the two
			last := add("//b")
			add("/a[d/e]/b")
			addAt("/a/b/c", 3)
			add(`/a/b[@k=1]`)
			check("registered")

			remove(first)
			check("first SID removed")
			remove(5)
			check("middle SID removed")
			remove(last)
			check("last SID removed")
			again := add("//b") // takes back the overflow slot it freed
			add("/a/b")
			check("re-added")
			remove(10)
			remove(again)
			check("//b unsubscribed")
			add("//b")
			add("/a[d/e]/b")
			check("//b and the nested path refilled")
		})
	}
}
