package matcher

import (
	"math/rand"
	"testing"

	"predfilter/internal/guard"
	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// scanCounts counts doc's combinations through MatchScanned (ScanDoc.Count).
func scanCounts(t *testing.T, m *Matcher, doc []byte) map[SID]int {
	t.Helper()
	d := []ScanDoc{{Doc: doc, Count: true}}
	m.MatchScanned(d, guard.Limits{})
	if d[0].Err != nil || d[0].SIDs != nil {
		t.Fatalf("counting: sids %v, err %v", d[0].SIDs, d[0].Err)
	}
	return d[0].Counts
}

// bruteCounts is the oracle for counting: naive per-predicate
// evaluation (the §4.1.1 rules applied literally) plus exhaustive chain
// enumeration, per path, no dedup.
func bruteCounts(t *testing.T, xpes []string, doc *xmldoc.Document, mode predicate.AttrMode) []int {
	t.Helper()
	out := make([]int, len(xpes))
	for i, s := range xpes {
		enc, err := predicate.Encode(xpath.MustParse(s), mode)
		if err != nil {
			t.Fatal(err)
		}
		for p := range doc.Paths {
			pub := &doc.Paths[p]
			chains := make([][][2]int32, len(enc.Preds))
			empty := false
			for j, pr := range enc.Preds {
				chains[j] = naiveEval(pr, pub)
				if mode == predicate.Postponed {
					chains[j] = postFilter(chains[j], pr, enc.PostAttrs[j], pub)
				}
				if len(chains[j]) == 0 {
					empty = true
					break
				}
			}
			if empty {
				continue
			}
			var rec func(level int, need int32) int
			rec = func(level int, need int32) int {
				if level == len(chains) {
					return 1
				}
				n := 0
				for _, pr := range chains[level] {
					if level > 0 && pr[0] != need {
						continue
					}
					n += rec(level+1, pr[1])
				}
				return n
			}
			out[i] += rec(0, 0)
		}
	}
	return out
}

// naiveEval applies the §4.1.1 matching rules directly.
func naiveEval(p predicate.Predicate, pub *xmldoc.Publication) [][2]int32 {
	var out [][2]int32
	cmp := func(op predicate.Op, got, want int) bool {
		if op == predicate.EQ {
			return got == want
		}
		return got >= want
	}
	switch p.Kind {
	case predicate.Absolute:
		for i := range pub.Tuples {
			tu := &pub.Tuples[i]
			if tu.Tag == p.Tag1 && cmp(p.Op, tu.Pos, p.Value) && predicate.EvalAttrs(p.Attrs1, tu) {
				out = append(out, [2]int32{int32(tu.Occ), int32(tu.Occ)})
			}
		}
	case predicate.Relative:
		for i := range pub.Tuples {
			for j := i + 1; j < len(pub.Tuples); j++ {
				t1, t2 := &pub.Tuples[i], &pub.Tuples[j]
				if t1.Tag == p.Tag1 && t2.Tag == p.Tag2 && cmp(p.Op, t2.Pos-t1.Pos, p.Value) &&
					predicate.EvalAttrs(p.Attrs1, t1) && predicate.EvalAttrs(p.Attrs2, t2) {
					out = append(out, [2]int32{int32(t1.Occ), int32(t2.Occ)})
				}
			}
		}
	case predicate.EndOfPath:
		for i := range pub.Tuples {
			tu := &pub.Tuples[i]
			if tu.Tag == p.Tag1 && pub.Length-tu.Pos >= p.Value && predicate.EvalAttrs(p.Attrs1, tu) {
				out = append(out, [2]int32{int32(tu.Occ), int32(tu.Occ)})
			}
		}
	case predicate.Length:
		if pub.Length >= p.Value {
			out = append(out, [2]int32{0, 0})
		}
	}
	return out
}

// postFilter applies postponed annotations to naive results.
func postFilter(pairs [][2]int32, p predicate.Predicate, sa predicate.SideAttrs, pub *xmldoc.Publication) [][2]int32 {
	if len(sa.Left) == 0 && len(sa.Right) == 0 {
		return pairs
	}
	find := func(tag string, occ int32) *xmldoc.Tuple {
		for i := range pub.Tuples {
			if pub.Tuples[i].Tag == tag && int32(pub.Tuples[i].Occ) == occ {
				return &pub.Tuples[i]
			}
		}
		return nil
	}
	var out [][2]int32
	for _, pr := range pairs {
		if len(sa.Left) > 0 {
			if tu := find(p.Tag1, pr[0]); tu == nil || !predicate.EvalAttrs(sa.Left, tu) {
				continue
			}
		}
		if len(sa.Right) > 0 {
			if tu := find(p.Tag2, pr[1]); tu == nil || !predicate.EvalAttrs(sa.Right, tu) {
				continue
			}
		}
		out = append(out, pr)
	}
	return out
}

func TestMatchDocumentAllTargeted(t *testing.T) {
	m := New(Options{})
	sids := mustAdd(t, m, "/r/a/b", "a/b", "//b", "/r/x")
	// r → a → b, a → b (two a's, three b's total).
	counts := scanCounts(t, m, []byte(`<r><a><b/><b/></a><a><b/></a></r>`))
	byIdx := func(i int) int { return counts[sids[i]] }
	if byIdx(0) != 3 { // three (a,b) chains anchored at /r
		t.Errorf("/r/a/b count = %d, want 3", byIdx(0))
	}
	if byIdx(1) != 3 {
		t.Errorf("a/b count = %d, want 3", byIdx(1))
	}
	if byIdx(2) != 3 {
		t.Errorf("//b count = %d, want 3", byIdx(2))
	}
	if _, ok := counts[sids[3]]; ok {
		t.Errorf("/r/x reported with count %d", counts[sids[3]])
	}
}

// TestMatchDocumentAllAgainstBrute fuzzes all-matches counting against
// the naive oracle, in both attribute modes and with dedup on and off.
func TestMatchDocumentAllAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for round := 0; round < 40; round++ {
		withAttrs := round%2 == 1
		xpes := make([]string, 25)
		for i := range xpes {
			xpes[i] = randXPE(rng, withAttrs)
		}
		xml := randXML(rng, withAttrs)
		doc, err := xmldoc.Parse(xml)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []predicate.AttrMode{predicate.Inline, predicate.Postponed} {
			want := bruteCounts(t, xpes, doc, mode)
			for _, dedupOff := range []bool{false, true} {
				m := New(Options{Variant: PrefixCoverAP, AttrMode: mode, DisablePathDedup: dedupOff})
				sids := make([]SID, len(xpes))
				for i, s := range xpes {
					sid, err := m.Add(s)
					if err != nil {
						t.Fatal(err)
					}
					sids[i] = sid
				}
				got := scanCounts(t, m, xml)
				for i := range xpes {
					if got[sids[i]] != want[i] {
						t.Fatalf("round %d mode=%d dedupOff=%v: %q count=%d, oracle=%d",
							round, mode, dedupOff, xpes[i], got[sids[i]], want[i])
					}
				}
			}
		}
	}
}

// TestMatchDocumentAllConsistentWithMatch: an expression has a positive
// count iff MatchDocument reports it.
func TestMatchDocumentAllConsistentWithMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for round := 0; round < 20; round++ {
		m := New(Options{})
		xpes := make([]string, 30)
		sids := make([]SID, len(xpes))
		for i := range xpes {
			xpes[i] = randXPE(rng, false)
			sid, err := m.Add(xpes[i])
			if err != nil {
				t.Fatal(err)
			}
			sids[i] = sid
		}
		xml := randXML(rng, false)
		doc, err := xmldoc.Parse(xml)
		if err != nil {
			t.Fatal(err)
		}
		matched := matchSet(m, doc)
		counts := scanCounts(t, m, xml)
		for i, sid := range sids {
			if matched[sid] != (counts[sid] > 0) {
				t.Fatalf("round %d: %q matched=%v but count=%d", round, xpes[i], matched[sid], counts[sid])
			}
		}
	}
}

// TestMatchDocumentAllNested: nested expressions report presence.
func TestMatchDocumentAllNested(t *testing.T) {
	m := New(Options{})
	sids := mustAdd(t, m, "/a[b]/c", "/a[x]/c")
	counts := scanCounts(t, m, []byte(`<a><b/><c/></a>`))
	if counts[sids[0]] != 1 {
		t.Errorf("nested match count = %d, want 1", counts[sids[0]])
	}
	if _, ok := counts[sids[1]]; ok {
		t.Error("unmatched nested expression reported")
	}
}
