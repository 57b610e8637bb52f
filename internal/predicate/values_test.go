package predicate

import (
	"strings"
	"testing"

	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

var allOps = []xpath.AttrOp{xpath.AttrExists, xpath.AttrEQ, xpath.AttrNE, xpath.AttrLT, xpath.AttrLE, xpath.AttrGT, xpath.AttrGE}

// checkResolve holds Dict.Holds equal to AttrFilter.Eval for every operator
// over every (constant, value) pair: with the early constants ranked alone
// and the values first seen then, again after the late constants joined
// (the re-rank), and through a second attribute name that sees the
// constants in reverse order.
func checkResolve(t *testing.T, early, late, values []string) {
	t.Helper()
	d := NewDict()
	tests := make(map[[2]string][]Test)
	compile := func(consts []string) {
		for _, name := range []string{"k", "r"} {
			for i := range consts {
				c := consts[i]
				if name == "r" {
					c = consts[len(consts)-1-i]
				}
				var fs []xpath.AttrFilter
				for _, op := range allOps {
					fs = append(fs, xpath.AttrFilter{Name: name, Op: op, Value: c})
				}
				tests[[2]string{name, c}] = d.Compile(fs)
			}
		}
		d.Rerank()
	}
	absent := d.Compile([]xpath.AttrFilter{{Name: "absent", Op: xpath.AttrExists}, {Name: "absent", Op: xpath.AttrNE, Value: "1"}})
	check := func(consts []string) {
		var dv DocValues // ranks changed: a fresh memo, as after the matcher's catch-up
		for id, v := range values {
			tup := &xmldoc.Tuple{NodeID: id, Attrs: []xmldoc.Attr{{Name: "other", Value: v}, {Name: "k", Value: v}, {Name: "r", Value: v}}}
			if d.Holds(absent[0], tup, &dv) || d.Holds(absent[1], tup, &dv) {
				t.Fatal("a filter on an absent attribute held")
			}
			for _, name := range []string{"k", "r"} {
				for _, c := range consts {
					for i, op := range allOps {
						want := xpath.AttrFilter{Name: name, Op: op, Value: c}.Eval(v)
						// Twice: the second answer comes from the memo.
						for pass := 0; pass < 2; pass++ {
							if got := d.Holds(tests[[2]string{name, c}][i], tup, &dv); got != want {
								t.Fatalf("@%s=%q %s %q (pass %d): Holds %v, Eval %v; constants %q then %q",
									name, v, op, c, pass, got, want, early, late)
							}
						}
					}
				}
			}
		}
	}
	compile(early)
	check(early)
	compile(late)
	check(append(append([]string(nil), early...), late...))
}

var resolveSeeds = []struct{ early, late, values string }{
	{"1|1.0|+1|1e0", "01|1.00", "1|1.0|+1|1e0|2|0|one"},
	{"NaN|1|x", "nan|Inf|-Inf", "NaN|nan|1|y|Inf|+Inf|-inf|Infinity"},
	{"0x10|16|0X1P4", "0x", "16|0x10|0x|1_6"},
	{" 1|1 |1", "\t1", "1| 1|1 | "},
	{"|a", "b", "|a|b|c"},
	{"\xff\xfe|\xc3\x28|z", "\x00", "\xff|\xff\xfe|z|\x00"},
	{"10|20|30", "25|15", "5|10|12|20|27|30|35|abc"},               // below all, between, above all
	{"b|d|f", "c|e", "a|b|c|cc|d|e|f|g"},                           // the same, lexicographic
	{"10|9|100|ten", "9.5|nine|1e2", "9|9.5|10|100|99|ten|nine|t"}, // numeric and string orders disagree
	{"-0|0", "+0|0.0", "0|-0|1e-400|-1e-400"},
	{"1e999|1e308", "-1e999", "1e999|1e308|1e400|2e308"},                              // out of range: not numeric
	{"+|-|.|+.5|-.5|5.", "e5|1e|_1|1_0", ".5|-.5|5|+|-|.|e5|1e|0.5"},                  // what parseNum lets through to ParseFloat
	{"INF|iNfInItY|+nan|-Inf", "infinit|nanx|in", "inf|+INF|-infinity|NAN|infinit|7"}, // the specials, and near misses
}

func split(s string) []string { return strings.Split(s, "|") }

func TestValueResolve(t *testing.T) {
	for _, s := range resolveSeeds {
		checkResolve(t, split(s.early), split(s.late), split(s.values))
	}
}

// FuzzValueResolve is the independent soundness check of the integer
// comparison: whatever the constants, their registration order and the
// document values, Dict.Holds is AttrFilter.Eval. Lists are |-separated.
func FuzzValueResolve(f *testing.F) {
	for _, s := range resolveSeeds {
		f.Add(s.early, s.late, s.values)
	}
	f.Fuzz(func(t *testing.T, early, late, values string) {
		if len(early)+len(late)+len(values) > 256 {
			t.Skip()
		}
		checkResolve(t, split(early), split(late), split(values))
	})
}

// TestDocValuesSharedStorage: two nodes claiming one NodeID (hand-built
// publications) are told apart by their attribute storage.
func TestDocValuesSharedStorage(t *testing.T) {
	d := NewDict()
	eq := d.Compile([]xpath.AttrFilter{{Name: "k", Op: xpath.AttrEQ, Value: "1"}})[0]
	d.Rerank()
	a := &xmldoc.Tuple{Attrs: []xmldoc.Attr{{Name: "k", Value: "1"}}}
	b := &xmldoc.Tuple{Attrs: []xmldoc.Attr{{Name: "k", Value: "2"}}}
	var dv DocValues
	for i := 0; i < 3; i++ {
		if !d.Holds(eq, a, &dv) || d.Holds(eq, b, &dv) {
			t.Fatalf("round %d: nodes sharing id 0 were confused", i)
		}
	}
}
