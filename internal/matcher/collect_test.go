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
					got := matchSIDs(m, doc)
					scan := []ScanDoc{{Doc: []byte(src)}}
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

// TestCollectRuns holds collect's word-at-a-time reading of the matched
// flags to a model, in both of its outputs: the emitted Text, Words,
// Masks and N, and the []SID result. Expression k is /r/tk, registered as
// id k; a document holds the <tk/> of each id the case matches, and the
// model lists each matched id's live SIDs in bind order.
func TestCollectRuns(t *testing.T) {
	span := func(lo, hi int) []int { // ids lo … hi-1
		var out []int
		for id := lo; id < hi; id++ {
			out = append(out, id)
		}
		return out
	}
	var alternate []int
	for id := 0; id < 128; id += 2 {
		alternate = append(alternate, id)
	}
	cases := []struct {
		name    string
		n       int           // expressions
		matched []int         // ids the document matches
		extra   map[int][]SID // SIDs bound after an id's own SID k
		removed []SID         // SIDs unsubscribed before the match
	}{
		{name: "a fully matched block", n: 64, matched: span(0, 64)},
		{name: "alternating ids", n: 128, matched: alternate},
		{name: "runs ending at 63 and starting at 0", n: 192, matched: append(append(span(0, 3), span(40, 80)...), span(127, 131)...)},
		{name: "a short last block", n: 70, matched: append(span(5, 9), span(60, 70)...)},
		{name: "ids with no live SID inside a run", n: 64, matched: span(10, 30), removed: []SID{12, 15, 16, 29}},
		{name: "ids holding several SIDs", n: 100, matched: append(span(0, 12), span(60, 70)...),
			extra: map[int][]SID{0: {900, 130}, 3: {131}, 63: {4000, 101}, 64: {102, 103, 1000}, 11: {7000}}, removed: []SID{103, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := New(Options{})
			live := make([][]SID, c.n)
			for id := 0; id < c.n; id++ {
				for _, sid := range append([]SID{SID(id)}, c.extra[id]...) {
					if err := m.AddWithSID(fmt.Sprintf("/r/t%d", id), sid); err != nil {
						t.Fatal(err)
					}
					live[id] = append(live[id], sid)
				}
				if got := m.sidOwner[id].id; got != id {
					t.Fatalf("/r/t%d registered as id %d", id, got)
				}
			}
			for _, sid := range c.removed {
				if err := m.Remove(sid); err != nil {
					t.Fatal(err)
				}
				for id := range live {
					live[id] = slices.DeleteFunc(live[id], func(s SID) bool { return s == sid })
				}
			}
			doc := "<r>"
			want, text := []SID{}, ""
			for _, id := range c.matched {
				doc += fmt.Sprintf("<t%d/>", id)
				want = append(want, live[id]...)
				for _, sid := range live[id] {
					text += fmt.Sprintf("%d,", sid)
				}
			}
			doc += "</r>"
			var words []int32 // in the order the result first reaches them
			var masks []uint64
			for _, sid := range want {
				k := slices.Index(words, int32(sid>>6))
				if k < 0 {
					k, words, masks = len(words), append(words, int32(sid>>6)), append(masks, 0)
				}
				masks[k] |= 1 << (sid & 63)
			}

			e := &Emit{}
			docs := []ScanDoc{{Doc: []byte(doc), Emit: e}, {Doc: []byte(doc)}}
			m.MatchScanned(docs, guard.Limits{})
			if docs[0].Err != nil || docs[1].Err != nil {
				t.Fatalf("%v, %v", docs[0].Err, docs[1].Err)
			}
			if string(e.Text) != text || e.N != len(want) || !slices.Equal(e.Words, words) || !slices.Equal(e.Masks, masks) {
				t.Fatalf("emitted text %q N %d words %v masks %x\nwant         %q N %d words %v masks %x",
					e.Text, e.N, e.Words, e.Masks, text, len(want), words, masks)
			}
			if !slices.Equal(docs[1].SIDs, want) {
				t.Fatalf("SIDs %v, want %v", docs[1].SIDs, want)
			}
		})
	}
}
