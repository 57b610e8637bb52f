package predfilter_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"predfilter"
	"predfilter/workload"
)

const sampleDoc = `
<order status="open">
  <customer tier="gold"><name>Ada</name></customer>
  <items>
    <item sku="17" qty="2"><price currency="cad">19</price></item>
    <item sku="42" qty="1"><price currency="usd">350</price></item>
  </items>
</order>`

func TestEngineBasics(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	cases := []struct {
		xpe  string
		want bool
	}{
		{"/order/items/item", true},
		{"/order/customer[@tier=gold]", true},
		{"//price[@currency=usd]", true},
		{"/order/items/item[@qty>=3]", false},
		{"/order[customer]//price", true},
		{"/order/customer[@tier=silver]", false},
		{"*/*/item", true},
		{"/order//sku", false},
	}
	sids := make([]predfilter.SID, len(cases))
	for i, tc := range cases {
		sid, err := eng.Add(tc.xpe)
		if err != nil {
			t.Fatalf("Add(%q): %v", tc.xpe, err)
		}
		sids[i] = sid
	}
	got, err := eng.Match([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[predfilter.SID]bool)
	for _, s := range got {
		set[s] = true
	}
	for i, tc := range cases {
		if set[sids[i]] != tc.want {
			t.Errorf("%q: matched=%v, want %v", tc.xpe, set[sids[i]], tc.want)
		}
	}
}

func TestEngineConfigsAgree(t *testing.T) {
	configs := []predfilter.Config{
		{},
		{Columnar: predfilter.ColumnarOff, PathCacheBytes: -1},
		{AttributeMode: predfilter.PostponedAttributes},
		{PathCacheBytes: -1},
	}
	nitf := workload.NITF()
	xpes, err := workload.Expressions(nitf, 500, workload.ExpressionConfig{Wildcard: 0.2, Descendant: 0.2, Filters: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	docs := workload.Documents(nitf, 5, workload.DocumentConfig{Seed: 3})
	var counts []int
	for _, cfg := range configs {
		eng := predfilter.New(cfg)
		if _, err := eng.AddAll(xpes); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, d := range docs {
			sids, err := eng.Match(d)
			if err != nil {
				t.Fatal(err)
			}
			total += len(sids)
		}
		counts = append(counts, total)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Errorf("config %d matched %d, config 0 matched %d", i, counts[i], counts[0])
		}
	}
}

func TestEngineErrors(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	if _, err := eng.Add("not an xpath ["); err == nil {
		t.Error("Add accepted garbage")
	}
	if _, err := eng.Match([]byte("<a><b></a>")); err == nil {
		t.Error("Match accepted malformed XML")
	}
	if err := eng.Remove(99); err == nil {
		t.Error("Remove accepted an unknown sid")
	}
	if _, err := eng.AddAll([]string{"/a", "]bad["}); err == nil {
		t.Error("AddAll accepted garbage")
	}
}

func TestMatchParsedContext(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	sid, err := eng.Add("/order//price")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := predfilter.ParseDocument([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Elements() != 8 {
		t.Errorf("Elements = %d, want 8", doc.Elements())
	}
	if doc.Paths() != 3 { // leaves: name, price, price
		t.Errorf("Paths = %d, want 3", doc.Paths())
	}
	if got, err := eng.MatchParsedContext(context.Background(), doc); err != nil || len(got) != 1 || got[0] != sid {
		t.Errorf("MatchParsedContext = %v, %v", got, err)
	}
}

func TestStats(t *testing.T) {
	for _, mode := range []predfilter.AttributeMode{predfilter.InlineAttributes, predfilter.PostponedAttributes} {
		eng := predfilter.New(predfilter.Config{AttributeMode: mode})
		sids, err := eng.AddAll([]string{"/a/b", "/a/b", "/a/c", "/a[b]/c"})
		if err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		if st.Expressions != 4 {
			t.Errorf("Expressions = %d, want 4", st.Expressions)
		}
		if st.DistinctExpressions != 3 {
			t.Errorf("DistinctExpressions = %d, want 3", st.DistinctExpressions)
		}
		if st.NestedExpressions != 1 {
			t.Errorf("NestedExpressions = %d, want 1", st.NestedExpressions)
		}
		if st.DistinctPredicates == 0 {
			t.Error("DistinctPredicates = 0")
		}

		// The distinct counts are of expressions somebody subscribes to:
		// they fall when an expression's last SID goes, not before, and
		// whether or not a match has derived anything from the set.
		for i, want := range [][2]int{{3, 1}, {2, 1}, {1, 1}, {0, 0}} { // after removing sids[i]: distinct, nested
			if i == 2 {
				if _, err := eng.Match([]byte("<a><b/><c/></a>")); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Remove(sids[i]); err != nil {
				t.Fatal(err)
			}
			if st := eng.Stats(); st.DistinctExpressions != want[0] || st.NestedExpressions != want[1] {
				t.Errorf("mode %v after %d removes: distinct %d nested %d, want %v", mode, i+1, st.DistinctExpressions, st.NestedExpressions, want)
			}
		}
		var b strings.Builder
		if err := eng.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "\npredfilter_distinct_expressions 0\n") {
			t.Errorf("predfilter_distinct_expressions gauge did not fall to 0")
		}
	}
}

// TestConcurrentMatch exercises the documented concurrency contract:
// concurrent Match calls against a built engine.
func TestConcurrentMatch(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	nitf := workload.NITF()
	xpes, err := workload.Expressions(nitf, 2000, workload.ExpressionConfig{Wildcard: 0.2, Descendant: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddAll(xpes); err != nil {
		t.Fatal(err)
	}
	docs := workload.Documents(nitf, 8, workload.DocumentConfig{Seed: 5})

	// Baseline counts, single-threaded.
	want := make([]int, len(docs))
	for i, d := range docs {
		sids, err := eng.Match(d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(sids)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, d := range docs {
				sids, err := eng.Match(d)
				if err != nil {
					errs <- err
					return
				}
				if len(sids) != want[i] {
					t.Errorf("goroutine %d doc %d: %d matches, want %d", g, i, len(sids), want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWorkloadPackage(t *testing.T) {
	psd := workload.PSD()
	if psd.Name() != "psd" {
		t.Errorf("Name = %q", psd.Name())
	}
	docs := workload.Documents(psd, 3, workload.DocumentConfig{MaxLevels: 6, Seed: 1})
	if len(docs) != 3 {
		t.Fatalf("docs = %d", len(docs))
	}
	for _, d := range docs {
		if _, err := predfilter.ParseDocument(d); err != nil {
			t.Fatalf("generated document does not parse: %v", err)
		}
	}
	xpes, err := workload.Expressions(psd, 100, workload.ExpressionConfig{Wildcard: 0.2, Descendant: 0.2, Distinct: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := predfilter.New(predfilter.Config{})
	if _, err := eng.AddAll(xpes); err != nil {
		t.Fatal(err)
	}
	sids, err := eng.Match(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(sids) == 0 {
		t.Error("no PSD expressions matched a PSD document; the high-match regime is broken")
	}
}

func TestValidateAndExplain(t *testing.T) {
	if err := predfilter.Validate("/a//b[@x>=2]"); err != nil {
		t.Errorf("Validate rejected a valid expression: %v", err)
	}
	if err := predfilter.Validate("]["); err == nil {
		t.Error("Validate accepted garbage")
	}
	if err := predfilter.Validate("/a/*[@x=1]"); err == nil {
		t.Error("Validate accepted a filter on a wildcard step")
	}

	enc, err := predfilter.Explain("a//b/c")
	if err != nil {
		t.Fatal(err)
	}
	if enc != "(d(p_a, p_b), >=, 1) ↦ (d(p_b, p_c), =, 1)" {
		t.Errorf("Explain(a//b/c) = %q", enc)
	}

	nested, err := predfilter.Explain("/a[*/c[d]/e]//c[d]/e")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"main /a//c/e", "(pos, =, 1) /a/*/c/e", "(pos, =, 3) /a/*/c/d", "(pos, =, 2) /a//c/d"} {
		if !strings.Contains(nested, want) {
			t.Errorf("Explain nested missing %q:\n%s", want, nested)
		}
	}

	if _, err := predfilter.Explain("]["); err == nil {
		t.Error("Explain accepted garbage")
	}
}

// TestIntroductionExample ties to the paper's §1 motivating example: in
// s1 = a/b/c/d and s2 = b//b/c the overlapping fragment b/c becomes one
// shared predicate, "stored and processed once".
func TestIntroductionExample(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	if _, err := eng.Add("a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats().DistinctPredicates // d(a,b), d(b,c), d(c,d)
	if before != 3 {
		t.Fatalf("s1 produced %d predicates, want 3", before)
	}
	if _, err := eng.Add("b//b/c"); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats().DistinctPredicates
	// s2 adds only d(b,b)>= — its (d(b,c),=,1) is shared with s1.
	if after != before+1 {
		t.Errorf("s2 added %d predicates, want 1 (b/c shared)", after-before)
	}

	enc1, _ := predfilter.Explain("a/b/c/d")
	enc2, _ := predfilter.Explain("b//b/c")
	shared := "(d(p_b, p_c), =, 1)"
	if !strings.Contains(enc1, shared) || !strings.Contains(enc2, shared) {
		t.Errorf("shared predicate %s missing:\n  %s\n  %s", shared, enc1, enc2)
	}
}

// TestMatchCountsPublic exercises the all-matches mode via the public API.
func TestMatchCountsPublic(t *testing.T) {
	eng := predfilter.New(predfilter.Config{})
	sid, err := eng.Add("//item")
	if err != nil {
		t.Fatal(err)
	}
	counts, err := eng.MatchCountsContext(context.Background(), []byte(`<o><item/><item/><item/></o>`))
	if err != nil {
		t.Fatal(err)
	}
	if counts[sid] != 3 {
		t.Errorf("count = %d, want 3", counts[sid])
	}
	if _, err := eng.MatchCountsContext(context.Background(), []byte("<bad>")); err == nil {
		t.Error("MatchCountsContext accepted malformed XML")
	}
}
