package matcher

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"predfilter/internal/guard"
)

// emitted parses e back into the SIDs its text lists and checks that its
// count and bitset agree with them.
func emitted(t *testing.T, e *Emit) []SID {
	t.Helper()
	var out []SID
	for _, f := range strings.SplitAfter(string(e.Text), ",") {
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(strings.TrimSuffix(f, ","))
		if err != nil || !strings.HasSuffix(f, ",") {
			t.Fatalf("emitted text %q: field %q", e.Text, f)
		}
		out = append(out, SID(v))
	}
	var set []SID
	for i, w := range e.Words {
		for m := e.Masks[i]; m != 0; m &= m - 1 {
			set = append(set, SID(int(w)<<6|bits.TrailingZeros64(m)))
		}
	}
	slices.Sort(set)
	if e.N != len(out) || !slices.Equal(set, sortedCopy(out)) {
		t.Fatalf("emitted %d ids, text %v, bitset %v", e.N, out, set)
	}
	return out
}

func sortedCopy(sids []SID) []SID {
	out := slices.Clone(sids)
	slices.Sort(out)
	return out
}

// TestEmitMatchesModel holds the emitted result, and the []SID one, to a
// model of the registrations over a random history that spans several SID
// blocks: 200 distinct expressions //t0 … //t199 (the documents carry the
// even ones), each subscribed several times through Add and AddWithSID and
// unsubscribed again, so blocks are dirtied by binds and removes alike,
// some between every two matches and some many times over.
func TestEmitMatchesModel(t *testing.T) {
	const distinct = 200
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < distinct; i += 2 {
		fmt.Fprintf(&doc, "<t%d/>", i)
	}
	doc.WriteString("</r>")
	for _, cache := range []int64{0, -1} {
		t.Run(fmt.Sprintf("cache=%v", cache >= 0), func(t *testing.T) {
			m := New(Options{PathCacheBytes: cache})
			rng := rand.New(rand.NewSource(7))
			var order []int         // expression numbers, first registration first
			live := map[int][]SID{} // expression number → live SIDs in bind order
			exprOf := map[SID]int{} // live SID → expression number
			var removed []SID       // SIDs free to bind again
			top := SID(-1)          // the highest SID ever bound
			bind := func(x int, sid SID) {
				if _, ok := live[x]; !ok {
					order = append(order, x)
				}
				live[x] = append(live[x], sid)
				exprOf[sid], top = x, max(top, sid)
			}
			check := func(step int) {
				t.Helper()
				want := []SID{}
				for _, x := range order {
					if x%2 == 0 {
						want = append(want, live[x]...)
					}
				}
				e := &Emit{}
				docs := []ScanDoc{{Doc: []byte(doc.String()), Emit: e}, {Doc: []byte(doc.String())}}
				m.MatchScanned(docs, guard.Limits{})
				if docs[0].Err != nil || docs[1].Err != nil {
					t.Fatalf("step %d: %v, %v", step, docs[0].Err, docs[1].Err)
				}
				if got := emitted(t, e); !slices.Equal(got, want) || !slices.Equal(docs[1].SIDs, want) {
					t.Fatalf("step %d:\n emitted %v\n SIDs    %v\n want    %v", step, got, docs[1].SIDs, want)
				}
				if docs[0].SIDs != nil {
					t.Fatalf("step %d: an emitted scan returned SIDs %v", step, docs[0].SIDs)
				}
			}
			for step := 0; step < 400; step++ {
				switch r := rng.Intn(10); {
				case r < 5 || len(exprOf) == 0:
					x := rng.Intn(distinct)
					sid, err := m.Add(fmt.Sprintf("//t%d", x))
					if err != nil {
						t.Fatal(err)
					}
					bind(x, sid)
				case r < 7:
					// A removed SID again, or one past a gap.
					x, sid := rng.Intn(distinct), top+1+SID(rng.Intn(100))
					if n := len(removed); n > 0 && r == 5 {
						sid, removed = removed[n-1], removed[:n-1]
					}
					if err := m.AddWithSID(fmt.Sprintf("//t%d", x), sid); err != nil {
						t.Fatal(err)
					}
					bind(x, sid)
				default:
					var sids []SID
					for sid := range exprOf {
						sids = append(sids, sid)
					}
					slices.Sort(sids)
					sid := sids[rng.Intn(len(sids))]
					if err := m.Remove(sid); err != nil {
						t.Fatal(err)
					}
					x := exprOf[sid]
					live[x] = slices.DeleteFunc(live[x], func(s SID) bool { return s == sid })
					delete(exprOf, sid)
					removed = append(removed, sid)
				}
				if step%3 == 0 {
					check(step)
				}
			}
			check(400)
		})
	}
}
