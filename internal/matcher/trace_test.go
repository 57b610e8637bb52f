package matcher

import (
	"encoding/json"
	"strings"
	"testing"

	"predfilter/internal/guard"
	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
)

// scanTrace matches and explains doc through MatchScanned
// (ScanDoc.Explain).
func scanTrace(t *testing.T, m *Matcher, doc string) ([]SID, *Trace) {
	t.Helper()
	d := []ScanDoc{{Doc: []byte(doc), Explain: true}}
	m.MatchScanned(d, guard.Limits{})
	if d[0].Err != nil {
		t.Fatal(d[0].Err)
	}
	return d[0].SIDs, d[0].Trace
}

// findTrace returns the ExprTrace carrying the given sid.
func findTrace(t *testing.T, tr *Trace, sid SID) *ExprTrace {
	t.Helper()
	for i := range tr.Exprs {
		for _, s := range tr.Exprs[i].SIDs {
			if s == sid {
				return &tr.Exprs[i]
			}
		}
	}
	t.Fatalf("no ExprTrace for sid %d", sid)
	return nil
}

// TestMatchDocumentTraced checks that a trace explains at least one hit
// and one miss at the predicate level, agrees with the normal matching
// result, and carries stage costs.
func TestMatchDocumentTraced(t *testing.T) {
	for _, variant := range allVariants {
		m := New(Options{Variant: variant})
		sids := mustAdd(t, m,
			"/a/b/c", // hit
			"/a/b/d", // miss: the (d(p_b, p_d), =, 1) predicate never fires
			"/x/y",   // miss: no predicate hits at all
		)
		got, tr := scanTrace(t, m, "<a><b><c/></b></a>")

		if len(got) != 1 || got[0] != sids[0] {
			t.Fatalf("[%v] traced match = %v, want [%d]", variant, got, sids[0])
		}
		if tr.Paths != 1 || tr.Matches != 1 {
			t.Fatalf("[%v] trace counts = %d paths, %d matches", variant, tr.Paths, tr.Matches)
		}
		if tr.TotalNanos <= 0 || tr.TraceNanos <= 0 {
			t.Fatalf("[%v] stage costs missing: total=%d trace=%d", variant, tr.TotalNanos, tr.TraceNanos)
		}

		// The hit: matched, with per-path evidence where every predicate
		// hit and occurrence determination succeeded.
		hit := findTrace(t, tr, sids[0])
		if !hit.Matched || len(hit.Paths) == 0 {
			t.Fatalf("[%v] hit not explained: %+v", variant, hit)
		}
		ev := hit.Paths[0]
		if ev.Path != "/a/b/c" || !ev.Matched || ev.Steps == 0 {
			t.Fatalf("[%v] hit evidence = %+v", variant, ev)
		}
		for _, pe := range ev.Predicates {
			if !pe.Hit || pe.TotalPairs == 0 || len(pe.Pairs) == 0 {
				t.Fatalf("[%v] hit predicate not explained: %+v", variant, pe)
			}
		}

		// The near miss: some predicates hit on the path, at least one did
		// not, and the expression is reported unmatched.
		miss := findTrace(t, tr, sids[1])
		if miss.Matched {
			t.Fatalf("[%v] miss reported matched", variant)
		}
		if len(miss.Paths) == 0 {
			t.Fatalf("[%v] miss has no evidence", variant)
		}
		mev := miss.Paths[0]
		var hits, misses int
		for _, pe := range mev.Predicates {
			if pe.Hit {
				hits++
			} else {
				misses++
				if pe.TotalPairs != 0 || len(pe.Pairs) != 0 {
					t.Fatalf("[%v] missed predicate carries pairs: %+v", variant, pe)
				}
			}
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("[%v] miss evidence lacks a hit/miss split: %+v", variant, mev)
		}

		// The total miss: no predicate hit anywhere, so no path evidence.
		far := findTrace(t, tr, sids[2])
		if far.Matched || len(far.Paths) != 0 {
			t.Fatalf("[%v] far miss = %+v", variant, far)
		}

		// The trace must serialize (it is served over HTTP).
		if _, err := json.Marshal(tr); err != nil {
			t.Fatalf("[%v] trace does not marshal: %v", variant, err)
		}
	}
}

// TestTracedAgreesWithMatch cross-checks the traced result against
// MatchDocument on a larger random-ish workload for every variant.
func TestTracedAgreesWithMatch(t *testing.T) {
	xpes := []string{
		"/a/b/c", "/a/b", "/a", "a//c", "b/c", "//b/c", "/a/*/c",
		"/x/y/z", "c", "/*/*/*", "/a/b/c/d",
	}
	docs := []string{
		"<a><b><c/></b><d/></a>",
		"<x><y><z/></y></x>",
		"<a><b/><b><c><d/></c></b></a>",
	}
	for _, variant := range allVariants {
		m := New(Options{Variant: variant})
		mustAdd(t, m, xpes...)
		for di, doc := range docs {
			parsed, err := xmldoc.Parse([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			want := matchSet(m, parsed)
			got, tr := scanTrace(t, m, doc)
			if len(got) != len(want) {
				t.Fatalf("[%v] doc %d: traced %d sids, want %d", variant, di, len(got), len(want))
			}
			for _, sid := range got {
				if !want[sid] {
					t.Fatalf("[%v] doc %d: traced extra sid %d", variant, di, sid)
				}
			}
			// Every matched expr trace must be Matched and vice versa.
			for _, et := range tr.Exprs {
				for _, sid := range et.SIDs {
					if et.Matched != want[sid] {
						t.Fatalf("[%v] doc %d: trace %q matched=%v, engine says %v",
							variant, di, et.Expr, et.Matched, want[sid])
					}
				}
			}
		}
	}
}

// TestTracedViaCover: a prefix expression matched through covering is
// attributed to the cover only when its own determination failed; here the
// prefix also matches directly, so ViaCover must stay false. The covering
// attribution itself is exercised with containment covers, where the
// covered expression genuinely cannot match on its own.
func TestTracedViaCover(t *testing.T) {
	m := New(Options{Variant: PrefixCover})
	sids := mustAdd(t, m, "/a/b/c", "/a/b")
	_, tr := scanTrace(t, m, "<a><b><c/></b></a>")
	for _, sid := range sids {
		et := findTrace(t, tr, sid)
		if !et.Matched || et.ViaCover {
			t.Fatalf("sid %d: matched=%v viaCover=%v, want direct match", sid, et.Matched, et.ViaCover)
		}
	}
}

// TestTracedPostponedFilter: a postponed attribute filter that empties a
// level must be reported as FilteredOut, not as a structural miss.
func TestTracedPostponedFilter(t *testing.T) {
	m := New(Options{Variant: Basic, AttrMode: predicate.Postponed})
	sids := mustAdd(t, m, `/a/b[@k="v"]/c`, `/a/b[@k="w"]/c`)
	got, tr := scanTrace(t, m, `<a><b k="v"><c/></b></a>`)
	if len(got) != 1 || got[0] != sids[0] {
		t.Fatalf("traced match = %v, want [%d]", got, sids[0])
	}
	rejected := findTrace(t, tr, sids[1])
	if rejected.Matched || len(rejected.Paths) == 0 {
		t.Fatalf("filter-rejected expr = %+v", rejected)
	}
	if !rejected.Paths[0].FilteredOut {
		t.Fatalf("expected FilteredOut on %+v", rejected.Paths[0])
	}
	accepted := findTrace(t, tr, sids[0])
	if !accepted.Matched || accepted.Paths[0].FilteredOut {
		t.Fatalf("filter-accepted expr = %+v", accepted)
	}
}

// TestTracedNestedSummarized: nested-path expressions appear in the trace
// by source text with the correct matched flag and no per-path evidence.
func TestTracedNestedSummarized(t *testing.T) {
	m := New(Options{Variant: Basic})
	sids := mustAdd(t, m, "/a[b]/c", "/a/b/c")
	got, tr := scanTrace(t, m, `<a><b/><c/></a>`)
	if len(got) != 1 || got[0] != sids[0] {
		t.Fatalf("traced match = %v, want [%d]", got, sids[0])
	}
	nested := findTrace(t, tr, sids[0])
	if !nested.Nested || !nested.Matched || len(nested.Paths) != 0 {
		t.Fatalf("nested trace = %+v", nested)
	}
	if !strings.Contains(nested.Expr, "a") {
		t.Fatalf("nested trace lost its source text: %q", nested.Expr)
	}
}

// TestTraceExprCap: more than MaxTraceExprs registrations truncate the
// trace without affecting the match result.
func TestTraceExprCap(t *testing.T) {
	m := New(Options{Variant: Basic})
	for i := 0; i < MaxTraceExprs+10; i++ {
		if _, err := m.Add("/a/t" + string(rune('a'+i%26)) + "/x" + itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, tr := scanTrace(t, m, "<a><ta><x0/></ta></a>")
	if !tr.TruncatedExprs {
		t.Fatal("trace not marked truncated")
	}
	if len(tr.Exprs) != MaxTraceExprs {
		t.Fatalf("traced %d exprs, want %d", len(tr.Exprs), MaxTraceExprs)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
