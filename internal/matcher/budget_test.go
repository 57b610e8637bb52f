package matcher

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"predfilter/internal/guard"
	"predfilter/internal/xmldoc"
)

func chainDoc(t *testing.T, depth int) *xmldoc.Document {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	d, err := xmldoc.Parse(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func stepBudget(max int64) *guard.Budget {
	return guard.NewBudget(context.Background(), guard.Limits{MaxSteps: max})
}

func TestMatchDocumentBudgetNilEqualsUnbudgeted(t *testing.T) {
	for _, v := range allVariants {
		m := New(Options{Variant: v})
		mustAdd(t, m, "//a//a", "/a/a/a", "//a[@k=v]")
		doc := chainDoc(t, 6)
		want := matchSet(m, doc)
		sids, _, err := m.MatchDocumentBudget(doc, nil)
		if err != nil {
			t.Fatalf("variant %v: nil budget errored: %v", v, err)
		}
		got := make(map[SID]bool)
		for _, sid := range sids {
			got[sid] = true
		}
		if len(got) != len(want) {
			t.Fatalf("variant %v: budgeted %v != unbudgeted %v", v, got, want)
		}
		for sid := range want {
			if !got[sid] {
				t.Fatalf("variant %v: missing sid %d", v, sid)
			}
		}
	}
}

func TestMatchDocumentBudgetTripsOnBlowup(t *testing.T) {
	for _, v := range allVariants {
		m := New(Options{Variant: v})
		// steps > depth: no chained combination exists, so occurrence
		// determination must walk the exponential dead-end space.
		mustAdd(t, m, strings.Repeat("//a", 20))
		doc := chainDoc(t, 18)
		sids, _, err := m.MatchDocumentBudget(doc, stepBudget(1000))
		if err == nil {
			t.Fatalf("variant %v: blowup returned %v with no error", v, sids)
		}
		if sids != nil {
			t.Fatalf("variant %v: partial result %v alongside error", v, sids)
		}
		var le *guard.LimitError
		if !errors.As(err, &le) || le.Kind != guard.Steps {
			t.Fatalf("variant %v: err = %v, want Steps *LimitError", v, err)
		}
	}
}

// TestMatchDocumentBudgetDoesNotPoisonCache: a budget trip during a miss
// must not Put a truncated outcome or a partial live plan. The step bound
// is raised one step at a time, so the trip lands at every point of the
// miss — the sweep, the structural candidates, the plan walk or the hit
// program — and after each abort an unbudgeted re-match (served from
// whatever the aborted attempt cached), and a second one on pure hits,
// must agree with an uncached matcher. The first fixture's path repeats a
// tag (plan and transcript); the second's does not, and its entry carries a
// program large enough to be charged: the budget that trips there trips
// after the complete entry was stored, and a hit is charged what the miss's
// tail was.
func TestMatchDocumentBudgetDoesNotPoisonCache(t *testing.T) {
	repeated := []string{
		strings.Repeat("//a", 6),                // structural: cached outcome
		strings.Repeat("//a", 5) + "//a[@k=v]",  // live: plan unit that matches
		strings.Repeat("//a", 5) + "//a[@k=w]",  // live: plan unit that fails its filter
		"/a/a[@k=v]", "//a[@k=v]//a", "/a[a/a]", // more plan units; a nested reader of the transcript
	}
	var b strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, `<a k="%s">`, []string{"v", "u"}[i%2])
	}
	b.WriteString(strings.Repeat("</a>", 8))
	program := []string{"/r/s/t", "/r[@k=v]/s[@k=u]"}
	for i := 0; i < 100; i++ { // 100 tests, 50 of them passing: two 64-operation steps
		program = append(program, fmt.Sprintf("/r/s[@k%s%d]", []string{"<", ">="}[i%2], i))
	}
	for _, fx := range []struct {
		xpes []string
		xml  string
		prog bool
	}{
		{repeated, b.String(), false},
		{program, `<r k="v"><s k="100"><t/></s></r>`, true},
	} {
		doc, err := xmldoc.Parse([]byte(fx.xml))
		if err != nil {
			t.Fatal(err)
		}
		fresh := New(Options{Variant: PrefixCoverAP, PathCacheBytes: -1})
		mustAdd(t, fresh, fx.xpes...)
		want := matchSet(fresh, doc)
		if len(want) < 3 {
			t.Fatalf("uncached matcher found %v, want structural, live and nested matches", want)
		}

		tripped, inProgram := 0, int64(0)
		for steps := int64(1); ; steps++ {
			m := New(Options{Variant: PrefixCoverAP, PathCacheBytes: 1 << 20})
			mustAdd(t, m, fx.xpes...)
			_, _, err := m.MatchDocumentBudget(doc, stepBudget(steps))
			if err == nil {
				if bud := stepBudget(steps); fx.prog {
					// The same budget on the hit: charged the program, not the sweep.
					if _, _, err := m.MatchDocumentBudget(doc, bud); err != nil || bud.Steps() == 0 || bud.Steps() >= steps {
						t.Fatalf("hit under the miss's budget %d: err %v, %d steps", steps, err, bud.Steps())
					}
					if _, _, err := m.MatchDocumentBudget(doc, stepBudget(bud.Steps()-1)); err == nil {
						t.Fatalf("hit survived a budget one step under its charge of %d", bud.Steps())
					}
				}
				break
			}
			tripped++
			if st, _ := m.cacheStats(); st.Entries > 0 {
				inProgram = steps
			}
			for pass := 0; pass < 2; pass++ {
				if got := matchSet(m, doc); !reflect.DeepEqual(got, want) {
					t.Fatalf("budget %d, re-match %d after the abort = %v, want %v (cache poisoned?)", steps, pass, got, want)
				}
			}
		}
		if tripped < 3 {
			t.Fatalf("only %d budgets tripped: the miss was not interrupted at distinct points", tripped)
		}
		if fx.prog && inProgram == 0 {
			t.Fatal("no budget tripped in the hit program")
		}
	}
}

func TestMatchDocumentBudgetScratchReuseAfterAbort(t *testing.T) {
	// The pooled scratch must come back clean after an error return: a
	// budgeted abort followed by normal matches of other documents.
	m := New(Options{Variant: PrefixCoverAP})
	mustAdd(t, m, strings.Repeat("//a", 20))
	sids := mustAdd(t, m, "//b/c")
	if _, _, err := m.MatchDocumentBudget(chainDoc(t, 18), stepBudget(100)); err == nil {
		t.Fatal("budget survived the blowup")
	}
	d, err := xmldoc.Parse([]byte("<b><c/></b>"))
	if err != nil {
		t.Fatal(err)
	}
	got := matchSet(m, d)
	if !got[sids[0]] || len(got) != 1 {
		t.Fatalf("match after abort = %v, want exactly sid %d", got, sids[0])
	}
}

func TestMatchDocumentBudgetCanceledContext(t *testing.T) {
	m := New(Options{Variant: PrefixCoverAP})
	mustAdd(t, m, "//a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := m.MatchDocumentBudget(chainDoc(t, 4), guard.NewBudget(ctx, guard.Limits{}))
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Kind != guard.Canceled {
		t.Fatalf("err = %v, want Canceled *LimitError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("Canceled error should satisfy errors.Is(err, context.Canceled)")
	}
}
