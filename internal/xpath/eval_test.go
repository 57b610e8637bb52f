package xpath

import "testing"

// TestClassifiedEvalAgrees: classifying a filter's constant at
// registration must not change a single comparison — numeric and
// non-numeric constants, against numeric and non-numeric values, for every
// operator — and must keep the filter comparable with ==, which the
// matcher's expression dedup uses, even when the constant parses as NaN.
func TestClassifiedEvalAgrees(t *testing.T) {
	consts := []string{"3", "3.0", "-1e2", "abc", "", "NaN", "Inf", "0x10", "10 "}
	values := []string{"3", "03", "2.5", "abc", "abd", "", "nan", "+Inf", "16", "10 "}
	for op := AttrExists; op <= AttrGE; op++ {
		for _, c := range consts {
			lit := AttrFilter{Name: "x", Op: op, Value: c}
			reg := lit.Classified()
			if reg.Name != lit.Name || reg.Op != lit.Op || reg.Value != lit.Value {
				t.Fatalf("Classified changed the filter: %+v -> %+v", lit, reg)
			}
			if reg != lit.Classified() {
				t.Fatalf("%v: two classifications of one filter are not ==", lit)
			}
			for _, v := range values {
				if got, want := reg.Eval(v), lit.Eval(v); got != want {
					t.Errorf("%v over %q: classified=%v, unclassified=%v", lit, v, got, want)
				}
			}
		}
	}
}

// TestClassifiedEvalAllocs: a registered filter with a non-numeric
// constant used to pay a failed ParseFloat — an allocated *NumError — on
// every evaluation.
func TestClassifiedEvalAllocs(t *testing.T) {
	f := AttrFilter{Name: "k", Op: AttrEQ, Value: "headline"}.Classified()
	if n := testing.AllocsPerRun(100, func() { f.Eval("headline"); f.Eval("7") }); n != 0 {
		t.Fatalf("Eval allocates %.1f per call pair, want 0", n)
	}
}
