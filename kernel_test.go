package predfilter

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"predfilter/workload"
)

// TestKernelFollowsSetting: PathCacheBytes < 0 selects the scalar reference
// on every entry point — Match, MatchBatchContext, MatchEmit, MatchStream,
// MatchTracedContext, MatchCountsContext and MatchParsedContext all build
// its organizations (freeze) and never the columnar index — and the
// reference agrees with a cached engine on the SIDs, the emitted bytes, the
// counts and every traced verdict. The cached engine is the mirror image:
// a columnar index, no scalar organizations.
func TestKernelFollowsSetting(t *testing.T) {
	nitf := workload.NITF()
	xpes, err := workload.Expressions(nitf, 150, workload.ExpressionConfig{Wildcard: 0.2, Descendant: 0.2, Filters: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	xpes = append(xpes, "/nitf[head/title]/body", "//body[body.content]//p")
	docs := workload.Documents(nitf, 4, workload.DocumentConfig{Seed: 5})
	ref, cached := New(Config{PathCacheBytes: -1}), New(Config{})
	for _, e := range []*Engine{ref, cached} {
		if _, err := e.AddAll(xpes); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	each := func(what string, f func(e *Engine) any) {
		t.Helper()
		if got, want := f(ref), f(cached); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reference %v, cached %v", what, got, want)
		}
	}
	matched := 0
	for i, d := range docs {
		each(fmt.Sprintf("Match doc %d", i), func(e *Engine) any {
			sids, err := e.Match(d)
			if err != nil {
				t.Fatal(err)
			}
			matched += len(sids)
			return sids
		})
		each(fmt.Sprintf("MatchParsedContext doc %d", i), func(e *Engine) any {
			pd, err := ParseDocument(d)
			if err != nil {
				t.Fatal(err)
			}
			sids, err := e.MatchParsedContext(ctx, pd)
			if err != nil {
				t.Fatal(err)
			}
			return sids
		})
		each(fmt.Sprintf("MatchCountsContext doc %d", i), func(e *Engine) any {
			counts, err := e.MatchCountsContext(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			return counts
		})
		each(fmt.Sprintf("MatchTracedContext doc %d", i), func(e *Engine) any {
			sids, tr, err := e.MatchTracedContext(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			verdicts := make(map[string]bool, len(tr.Exprs))
			for _, x := range tr.Exprs {
				verdicts[fmt.Sprint(x.SIDs, x.Expr)] = x.Matched
			}
			return fmt.Sprint(sids, tr.Matches, tr.TruncatedExprs, verdicts)
		})
	}
	if matched == 0 {
		t.Fatal("no document matched: the comparison is vacuous")
	}
	each("MatchBatchContext", func(e *Engine) any {
		var out [][]SID
		for _, r := range e.MatchBatchContext(ctx, docs, 2) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			out = append(out, r.SIDs)
		}
		return out
	})
	each("MatchEmit", func(e *Engine) any {
		var out []string
		e.MatchEmit(ctx, docs, 2, func(i int, em *Emitted, err error) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprint(i, em.N, string(em.Text), em.Words, em.Masks))
		})
		return out
	})
	each("MatchStream", func(e *Engine) any {
		in := make(chan []byte, len(docs))
		for _, d := range docs {
			in <- d
		}
		close(in)
		var out [][]SID
		for r := range e.MatchStream(ctx, in, 2) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			out = append(out, r.SIDs)
		}
		return out
	})

	// The kernels' derived state, read off the matchers' unexported
	// fields: col is the columnar index, frozen the expressions the scalar
	// organizations cover.
	state := func(e *Engine) (col bool, frozen int64) {
		m := reflect.ValueOf(e.m).Elem()
		return !m.FieldByName("col").IsNil(), m.FieldByName("frozen").Int()
	}
	if col, frozen := state(ref); col || frozen == 0 {
		t.Fatalf("reference: columnar index built %v, %d expressions frozen", col, frozen)
	}
	if col, frozen := state(cached); !col || frozen != 0 {
		t.Fatalf("cached: columnar index built %v, %d expressions frozen", col, frozen)
	}
	if st := ref.Stats(); st.Columnar.Docs != 0 || st.Columnar.Paths != 0 || st.Documents == 0 {
		t.Fatalf("reference: %d of %d documents, %d paths on the columnar kernel", st.Columnar.Docs, st.Documents, st.Columnar.Paths)
	}
	if st := cached.Stats(); st.Columnar.Docs == 0 {
		t.Fatal("cached: no document on the columnar kernel")
	}
}
