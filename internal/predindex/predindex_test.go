package predindex

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"predfilter/internal/occur"
	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// TestTable1 reproduces Table 1 of the paper: the individual predicate
// matching results for the expressions a//b/c and c//b//a over the
// document path (a, b, c, a, b, c).
func TestTable1(t *testing.T) {
	ix := New()
	encode := func(s string) []PID {
		enc := predicate.MustEncode(xpath.MustParse(s), predicate.Inline)
		pids := make([]PID, len(enc.Preds))
		for i, p := range enc.Preds {
			pids[i] = ix.Insert(p)
		}
		return pids
	}
	e1 := encode("a//b/c")  // (d(p_a,p_b),>=,1) ↦ (d(p_b,p_c),=,1)
	e2 := encode("c//b//a") // (d(p_c,p_b),>=,1) ↦ (d(p_b,p_a),>=,1)

	doc := xmldoc.FromPaths([]string{"a", "b", "c", "a", "b", "c"})
	res := NewResults(ix.Len())
	res.Reset(ix.Len())
	ix.MatchPath(&doc.Paths[0], res, true)

	want := map[string][][2]int32{
		// Table 1, row by row (occurrence-number pairs).
		"(d(p_a, p_b), >=, 1)": {{1, 1}, {1, 2}, {2, 2}},
		"(d(p_b, p_c), =, 1)":  {{1, 1}, {2, 2}},
		"(d(p_c, p_b), >=, 1)": {{1, 2}},
		"(d(p_b, p_a), >=, 1)": {{1, 2}},
	}
	check := func(pid PID) {
		name := ix.Pred(pid).String()
		exp, ok := want[name]
		if !ok {
			t.Fatalf("unexpected predicate %s", name)
		}
		got := res.Get(pid)
		pairs := make([][2]int32, len(got))
		for i, p := range got {
			pairs[i] = [2]int32{p.A, p.B}
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		if fmt.Sprint(pairs) != fmt.Sprint(exp) {
			t.Errorf("%s: matching results %v, want %v", name, pairs, exp)
		}
	}
	for _, pid := range e1 {
		check(pid)
	}
	for _, pid := range e2 {
		check(pid)
	}

	// Example 2's conclusions: a//b/c has a true match, c//b//a does not.
	chain := func(pids []PID) [][]occur.Pair {
		out := make([][]occur.Pair, len(pids))
		for i, pid := range pids {
			out[i] = res.Get(pid)
		}
		return out
	}
	var buf []uint64
	if ok, _, _ := occur.Determine(chain(e1), nil, &buf); !ok {
		t.Error("a//b/c should match (a,b,c,a,b,c)")
	}
	if ok, _, _ := occur.Determine(chain(e2), nil, &buf); ok {
		t.Error("c//b//a should not match (a,b,c,a,b,c)")
	}
}

// TestInsertDedup checks that identical predicates share a pid and that
// distinct ones (including attribute-filter structural twins) do not.
func TestInsertDedup(t *testing.T) {
	ix := New()
	p1 := predicate.Predicate{Kind: predicate.Relative, Op: predicate.EQ, Tag1: "a", Tag2: "b", Value: 2}
	p2 := predicate.Predicate{Kind: predicate.Relative, Op: predicate.EQ, Tag1: "a", Tag2: "b", Value: 2}
	if ix.Insert(p1) != ix.Insert(p2) {
		t.Error("identical relative predicates got different pids")
	}
	p3 := p1
	p3.Op = predicate.GE
	if ix.Insert(p3) == ix.Insert(p1) {
		t.Error("different operators share a pid")
	}
	p4 := p1
	p4.Value = 3
	if ix.Insert(p4) == ix.Insert(p1) {
		t.Error("different values share a pid")
	}
	p5 := p1
	p5.Attrs1 = []xpath.AttrFilter{{Name: "x", Op: xpath.AttrEQ, Value: "1"}}
	pid5 := ix.Insert(p5)
	if pid5 == ix.Insert(p1) {
		t.Error("attribute twin shares the bare pid")
	}
	if pid5 != ix.Insert(p5) {
		t.Error("identical attribute twin got a new pid")
	}
	p6 := p5
	p6.Attrs1 = []xpath.AttrFilter{{Name: "x", Op: xpath.AttrEQ, Value: "2"}}
	if ix.Insert(p6) == pid5 {
		t.Error("different attribute values share a pid")
	}
	if ix.Len() != 5 {
		t.Errorf("index has %d predicates, want 5", ix.Len())
	}
}

// naiveMatch evaluates one predicate against a publication directly from
// the §4.1.1 rules — the oracle for the index's matching stage. Without
// attrs it ignores the attribute filters, as the structural stage does.
func naiveMatch(p predicate.Predicate, pub *xmldoc.Publication, attrs bool) [][2]int32 {
	var out [][2]int32
	cmp := func(op predicate.Op, got, want int) bool {
		if op == predicate.EQ {
			return got == want
		}
		return got >= want
	}
	holds := func(fs []xpath.AttrFilter, t *xmldoc.Tuple) bool {
		return !attrs || predicate.EvalAttrs(fs, t)
	}
	switch p.Kind {
	case predicate.Absolute:
		for i := range pub.Tuples {
			t := &pub.Tuples[i]
			if t.Tag == p.Tag1 && cmp(p.Op, t.Pos, p.Value) && holds(p.Attrs1, t) {
				out = append(out, [2]int32{int32(t.Occ), int32(t.Occ)})
			}
		}
	case predicate.Relative:
		for i := range pub.Tuples {
			for j := i + 1; j < len(pub.Tuples); j++ {
				t1, t2 := &pub.Tuples[i], &pub.Tuples[j]
				if t1.Tag == p.Tag1 && t2.Tag == p.Tag2 && cmp(p.Op, t2.Pos-t1.Pos, p.Value) &&
					holds(p.Attrs1, t1) && holds(p.Attrs2, t2) {
					out = append(out, [2]int32{int32(t1.Occ), int32(t2.Occ)})
				}
			}
		}
	case predicate.EndOfPath:
		for i := range pub.Tuples {
			t := &pub.Tuples[i]
			if t.Tag == p.Tag1 && pub.Length-t.Pos >= p.Value && holds(p.Attrs1, t) {
				out = append(out, [2]int32{int32(t.Occ), int32(t.Occ)})
			}
		}
	case predicate.Length:
		if pub.Length >= p.Value {
			out = append(out, [2]int32{0, 0})
		}
	}
	return out
}

// randPred draws one predicate over tags; about a third of the first and
// second tags carry a filter on attribute x.
func randPred(rng *rand.Rand, tags []string) predicate.Predicate {
	op := predicate.Op(rng.Intn(2))
	tag := func() string { return tags[rng.Intn(len(tags))] }
	filter := func() []xpath.AttrFilter {
		if rng.Intn(3) != 0 {
			return nil
		}
		f := xpath.AttrFilter{Name: "x", Op: xpath.AttrOp(rng.Intn(7))}
		if f.Op != xpath.AttrExists {
			f.Value = fmt.Sprint(rng.Intn(3))
		}
		return []xpath.AttrFilter{f}
	}
	switch rng.Intn(4) {
	case 0:
		return predicate.Predicate{Kind: predicate.Absolute, Op: op, Tag1: tag(), Value: 1 + rng.Intn(6), Attrs1: filter()}
	case 1:
		return predicate.Predicate{Kind: predicate.Relative, Op: op, Tag1: tag(), Tag2: tag(), Value: 1 + rng.Intn(4), Attrs1: filter(), Attrs2: filter()}
	case 2:
		return predicate.Predicate{Kind: predicate.EndOfPath, Op: predicate.GE, Tag1: tag(), Value: 1 + rng.Intn(4), Attrs1: filter()}
	default:
		return predicate.Predicate{Kind: predicate.Length, Op: predicate.GE, Value: 1 + rng.Intn(8)}
	}
}

// TestMatchPathAgainstNaive fuzzes the index matching stage against the
// direct evaluation rules, under both attrs settings: attribute-carrying
// predicates, paths with repeated tags and with a tag no predicate names,
// and an index that grows between two matches through one accumulator
// (half the predicates, match, the rest, match again).
func TestMatchPathAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "c", "d"}
	for round := 0; round < 300; round++ {
		ix := New()
		var preds []predicate.Predicate
		var pids []PID
		insert := func(n int) {
			for i := 0; i < n; i++ {
				p := randPred(rng, tags)
				preds = append(preds, p)
				pids = append(pids, ix.Insert(p))
			}
			ix.Vals.Rerank()
		}
		pubs := []*xmldoc.Publication{randPub(rng, tags), randPub(rng, append(tags, "zz"))} // zz is never indexed
		res := NewResults(0)
		for grown := 0; grown < 2; grown++ {
			insert(15)
			for _, pub := range pubs {
				for _, attrs := range []bool{false, true} {
					res.Vals.Reset()
					res.Reset(ix.Len())
					ix.MatchPath(pub, res, attrs)
					for k, p := range preds {
						want := naiveMatch(p, pub, attrs)
						got := res.Get(pids[k])
						if len(got) != len(want) {
							t.Fatalf("round %d grown %d attrs %v path %s: %s matched %v, want %v", round, grown, attrs, pub, p, got, want)
						}
						sort.Slice(got, func(i, j int) bool {
							if got[i].A != got[j].A {
								return got[i].A < got[j].A
							}
							return got[i].B < got[j].B
						})
						sort.Slice(want, func(i, j int) bool {
							if want[i][0] != want[j][0] {
								return want[i][0] < want[j][0]
							}
							return want[i][1] < want[j][1]
						})
						for i := range want {
							if got[i].A != want[i][0] || got[i].B != want[i][1] {
								t.Fatalf("round %d grown %d attrs %v path %s: %s matched %v, want %v", round, grown, attrs, pub, p, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestResultsEpoch checks stale results do not leak between publications.
func TestResultsEpoch(t *testing.T) {
	ix := New()
	pid := ix.Insert(predicate.Predicate{Kind: predicate.Absolute, Op: predicate.EQ, Tag1: "a", Value: 1})
	res := NewResults(ix.Len())

	doc := xmldoc.FromPaths([]string{"a", "b"}, []string{"b", "a"})
	res.Reset(ix.Len())
	ix.MatchPath(&doc.Paths[0], res, true)
	if !res.Matched(pid) {
		t.Fatal("(p_a,=,1) should match path a/b")
	}
	res.Reset(ix.Len())
	ix.MatchPath(&doc.Paths[1], res, true)
	if res.Matched(pid) {
		t.Fatal("(p_a,=,1) result leaked into path b/a")
	}
	if got := res.Get(pid); got != nil {
		t.Fatalf("Get returned stale pairs %v", got)
	}
}

// TestResultsGrowth checks the accumulator accommodates predicates added
// after its creation.
func TestResultsGrowth(t *testing.T) {
	ix := New()
	res := NewResults(ix.Len())
	ix.Insert(predicate.Predicate{Kind: predicate.Absolute, Op: predicate.EQ, Tag1: "a", Value: 1})
	pid2 := ix.Insert(predicate.Predicate{Kind: predicate.Absolute, Op: predicate.GE, Tag1: "b", Value: 1})
	doc := xmldoc.FromPaths([]string{"a", "b"})
	res.Reset(ix.Len())
	ix.MatchPath(&doc.Paths[0], res, true)
	if !res.Matched(pid2) {
		t.Error("grown accumulator lost results for new pid")
	}
}

// TestValueRanksFollowInsert: after the inserter's Vals.Rerank, ordered
// filters registered around existing ones — below, between, above — are all
// decided correctly, old ones included.
func TestValueRanksFollowInsert(t *testing.T) {
	ix := New()
	pids := make(map[string]PID)
	insert := func(xpes ...string) {
		for _, s := range xpes {
			for _, p := range predicate.MustEncode(xpath.MustParse(s), predicate.Inline).Preds {
				pids[s] = ix.Insert(p)
			}
		}
		ix.Vals.Rerank()
	}
	doc, err := xmldoc.Parse([]byte(`<a x="15"/>`))
	if err != nil {
		t.Fatal(err)
	}
	res := NewResults(ix.Len())
	check := func(want map[string]bool) {
		t.Helper()
		res.Vals.Reset()
		res.Reset(ix.Len())
		ix.MatchPath(&doc.Paths[0], res, true)
		for s, w := range want {
			if got := res.Matched(pids[s]); got != w {
				t.Errorf("%s: matched %v, want %v", s, got, w)
			}
		}
	}
	insert("/a[@x<20]", "/a[@x>=10]", "/a[@x<9]")
	want := map[string]bool{"/a[@x<20]": true, "/a[@x>=10]": true, "/a[@x<9]": false}
	check(want)
	insert("/a[@x>2]", "/a[@x<=15.0]", "/a[@x>15]", "/a[@x<100]", "/a[@x!=k]")
	for s, w := range map[string]bool{"/a[@x>2]": true, "/a[@x<=15.0]": true, "/a[@x>15]": false, "/a[@x<100]": true, "/a[@x!=k]": true} {
		want[s] = w
	}
	check(want)
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
