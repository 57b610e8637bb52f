package predicate

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

func TestPredicateString(t *testing.T) {
	cases := []struct {
		p    Predicate
		want string
	}{
		{Predicate{Kind: Absolute, Op: EQ, Tag1: "a", Value: 1}, "(p_a, =, 1)"},
		{Predicate{Kind: Absolute, Op: GE, Tag1: "t", Value: 3}, "(p_t, >=, 3)"},
		{Predicate{Kind: Relative, Op: EQ, Tag1: "a", Tag2: "b", Value: 2}, "(d(p_a, p_b), =, 2)"},
		{Predicate{Kind: EndOfPath, Op: GE, Tag1: "c", Value: 2}, "(p_c⊣, >=, 2)"},
		{Predicate{Kind: Length, Op: GE, Value: 4}, "(length, >=, 4)"},
		{
			Predicate{Kind: Absolute, Op: EQ, Tag1: "t", Value: 2,
				Attrs1: []xpath.AttrFilter{{Name: "x", Op: xpath.AttrEQ, Value: "3"}}},
			"(p_t([x,=,3]), =, 2)",
		},
	}
	for _, tc := range cases {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Absolute: "absolute", Relative: "relative", EndOfPath: "end-of-path", Length: "length",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestAttrKey(t *testing.T) {
	bare := Predicate{Kind: Absolute, Op: EQ, Tag1: "a", Value: 1}
	if bare.AttrKey() != "" {
		t.Errorf("bare AttrKey = %q", bare.AttrKey())
	}
	f1 := bare
	f1.Attrs1 = []xpath.AttrFilter{{Name: "x", Op: xpath.AttrEQ, Value: "1"}}
	f2 := bare
	f2.Attrs1 = []xpath.AttrFilter{{Name: "x", Op: xpath.AttrEQ, Value: "2"}}
	f3 := bare
	f3.Attrs2 = []xpath.AttrFilter{{Name: "x", Op: xpath.AttrEQ, Value: "1"}}
	keys := map[string]bool{}
	for _, p := range []Predicate{f1, f2, f3} {
		k := p.AttrKey()
		if k == "" {
			t.Errorf("filtered predicate has empty AttrKey: %s", p)
		}
		if keys[k] {
			t.Errorf("AttrKey collision for %s", p)
		}
		keys[k] = true
	}
	// Identical filters produce identical keys.
	f4 := f1
	if f4.AttrKey() != f1.AttrKey() {
		t.Error("identical filters differ in AttrKey")
	}
}

// TestHoldsExamples spells the comparison rules out on one tuple, for the
// engine's evaluator (Dict.Holds) and for the oracle's (EvalAttrs) alike;
// the exhaustive check of one against the other is FuzzValueResolve.
func TestHoldsExamples(t *testing.T) {
	tup := &xmldoc.Tuple{
		Tag:   "a",
		Attrs: []xmldoc.Attr{{Name: "n", Value: "10"}, {Name: "s", Value: "beta"}},
	}
	cases := []struct {
		f    xpath.AttrFilter
		want bool
	}{
		{xpath.AttrFilter{Name: "n", Op: xpath.AttrExists}, true},
		{xpath.AttrFilter{Name: "missing", Op: xpath.AttrExists}, false},
		{xpath.AttrFilter{Name: "n", Op: xpath.AttrEQ, Value: "10"}, true},
		{xpath.AttrFilter{Name: "n", Op: xpath.AttrEQ, Value: "10.0"}, true}, // numeric equality
		{xpath.AttrFilter{Name: "n", Op: xpath.AttrNE, Value: "9"}, true},
		{xpath.AttrFilter{Name: "n", Op: xpath.AttrGT, Value: "9"}, true}, // numeric: 10 > 9
		{xpath.AttrFilter{Name: "n", Op: xpath.AttrLT, Value: "9"}, false},
		{xpath.AttrFilter{Name: "n", Op: xpath.AttrGE, Value: "10"}, true},
		{xpath.AttrFilter{Name: "n", Op: xpath.AttrLE, Value: "10"}, true},
		{xpath.AttrFilter{Name: "s", Op: xpath.AttrEQ, Value: "beta"}, true},
		{xpath.AttrFilter{Name: "s", Op: xpath.AttrGT, Value: "alpha"}, true}, // lexicographic
		{xpath.AttrFilter{Name: "s", Op: xpath.AttrLT, Value: "alpha"}, false},
		{xpath.AttrFilter{Name: "s", Op: xpath.AttrNE, Value: "beta"}, false},
	}
	d := NewDict()
	var dv DocValues
	var all []xpath.AttrFilter
	for _, tc := range cases {
		all = append(all, tc.f)
	}
	tests := d.Compile(all)
	d.Rerank()
	for i, tc := range cases {
		if got := d.Holds(tests[i], tup, &dv); got != tc.want {
			t.Errorf("Holds(%v) = %v, want %v", tc.f, got, tc.want)
		}
		if got := EvalAttrs([]xpath.AttrFilter{tc.f}, tup); got != tc.want {
			t.Errorf("EvalAttrs(%v) = %v, want %v", tc.f, got, tc.want)
		}
	}
	// Conjunction: all tests must hold; none hold trivially.
	if !d.HoldsAll([]Test{tests[7], tests[9]}, tup, &dv) || d.HoldsAll([]Test{tests[7], tests[6]}, tup, &dv) || !d.HoldsAll(nil, nil, &dv) {
		t.Error("HoldsAll is not the conjunction")
	}
	if !EvalAttrs([]xpath.AttrFilter{all[7], all[9]}, tup) || EvalAttrs([]xpath.AttrFilter{all[7], all[6]}, tup) || !EvalAttrs(nil, tup) {
		t.Error("EvalAttrs is not the conjunction")
	}
	// A compared attribute that is missing fails the filter, whatever the operator.
	gone := xpath.AttrFilter{Name: "missing", Op: xpath.AttrNE, Value: "1"}
	if EvalAttrs([]xpath.AttrFilter{gone}, tup) || d.Holds(d.Compile([]xpath.AttrFilter{gone})[0], tup, &dv) {
		t.Error("a filter on a missing attribute held")
	}
}

// TestEncodingSizeInvariant: an encoding never has more predicates than
// location steps plus one (quick-checked over random expressions).
func TestEncodingSizeInvariant(t *testing.T) {
	tags := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(71))
	gen := func(r *rand.Rand) string {
		n := 1 + r.Intn(6)
		var b strings.Builder
		if r.Intn(2) == 0 {
			b.WriteString("/")
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				if r.Intn(4) == 0 {
					b.WriteString("//")
				} else {
					b.WriteString("/")
				}
			}
			if r.Intn(3) == 0 {
				b.WriteString("*")
			} else {
				b.WriteString(tags[r.Intn(len(tags))])
			}
		}
		return b.String()
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		s := gen(r)
		p := xpath.MustParse(s)
		enc, err := Encode(p, Inline)
		if err != nil {
			return false
		}
		if len(enc.Preds) == 0 || len(enc.Preds) > len(p.Steps)+1 {
			t.Logf("%q: %d predicates for %d steps", s, len(enc.Preds), len(p.Steps))
			return false
		}
		if len(enc.PostAttrs) != len(enc.Preds) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestEncodingDeterministic: encoding the same expression twice yields
// identical predicate sequences.
func TestEncodingDeterministic(t *testing.T) {
	for _, s := range []string{"/a/b/c", "a//b", "*/a/*/b//c/*/*", "/a[@x=1]/b"} {
		a := MustEncode(xpath.MustParse(s), Inline)
		b := MustEncode(xpath.MustParse(s), Inline)
		if a.String() != b.String() {
			t.Errorf("%q encodes differently across calls", s)
		}
	}
}
