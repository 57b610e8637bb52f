package predfilter_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"predfilter"
	"predfilter/internal/xmldoc"
	"predfilter/workload"
)

// The chaos suite: pathological documents against a governed engine. Each
// bomb must fail fast with a typed *LimitError naming its limit — never a
// hang, a panic, or a silent "no match".

func wantLimitErr(t *testing.T, err error, kind predfilter.LimitKind) *predfilter.LimitError {
	t.Helper()
	var le *predfilter.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v (%T), want *predfilter.LimitError", err, err)
	}
	if le.Kind != kind {
		t.Fatalf("tripped %v, want %v (err: %v)", le.Kind, kind, err)
	}
	return le
}

func TestChaosDepthBomb(t *testing.T) {
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxDepth: 64}})
	if _, err := eng.Add("//d"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	sids, err := eng.MatchContext(context.Background(), workload.DepthBomb(1<<16))
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("depth bomb took %v", took)
	}
	if sids != nil {
		t.Fatalf("partial result %v alongside error", sids)
	}
	le := wantLimitErr(t, err, predfilter.LimitDepth)
	if le.Limit != 64 {
		t.Fatalf("Limit = %d, want 64", le.Limit)
	}
}

func TestChaosPathBomb(t *testing.T) {
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxPaths: 1 << 10}})
	if _, err := eng.Add("//p"); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Match(workload.PathBomb(1 << 16))
	wantLimitErr(t, err, predfilter.LimitPaths)
}

func TestChaosTupleBomb(t *testing.T) {
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxTuples: 1 << 10}})
	if _, err := eng.Add("//p"); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Match(workload.PathBomb(1 << 16))
	wantLimitErr(t, err, predfilter.LimitTuples)
}

func TestChaosDocBytesBomb(t *testing.T) {
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxDocBytes: 1 << 10}})
	if _, err := eng.Add("//p"); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Match(workload.PathBomb(1 << 12))
	wantLimitErr(t, err, predfilter.LimitDocBytes)
}

func TestChaosOccurrenceBombSteps(t *testing.T) {
	doc, expr := workload.OccurrenceBomb(200, 204)
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxSteps: 1 << 20}})
	if _, err := eng.Add(expr); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err := eng.Match(doc)
	if took := time.Since(t0); took > 10*time.Second {
		t.Fatalf("occurrence bomb took %v under a step budget", took)
	}
	le := wantLimitErr(t, err, predfilter.LimitSteps)
	if le.Got <= le.Limit {
		t.Fatalf("Got %d <= Limit %d", le.Got, le.Limit)
	}
}

func TestChaosOccurrenceBombDeadline(t *testing.T) {
	// The acceptance bar: on the blowup corpus, MatchContext with a
	// deadline returns within (a small multiple of) the deadline. The
	// occurrence search only consults the clock every 4096 steps, so allow
	// generous scheduler slack but nothing near the unbounded blowup.
	doc, expr := workload.OccurrenceBomb(800, 806)
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MatchDeadline: 100 * time.Millisecond}})
	if _, err := eng.Add(expr); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err := eng.MatchContext(context.Background(), doc)
	took := time.Since(t0)
	le := wantLimitErr(t, err, predfilter.LimitDeadline)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("deadline error should satisfy errors.Is(err, context.DeadlineExceeded)")
	}
	if took > 5*time.Second {
		t.Fatalf("deadline stop took %v, want ~100ms", took)
	}
	if le.Got < int64(100*time.Millisecond) {
		t.Fatalf("Got = %v, want >= the 100ms deadline", time.Duration(le.Got))
	}
}

func TestChaosContextDeadline(t *testing.T) {
	// A context deadline works without any configured limits.
	doc, expr := workload.OccurrenceBomb(800, 806)
	eng := predfilter.New(predfilter.Config{})
	if _, err := eng.Add(expr); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := eng.MatchContext(ctx, doc)
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("context deadline stop took %v", took)
	}
	wantLimitErr(t, err, predfilter.LimitDeadline)
}

func TestChaosLimitTripsCounted(t *testing.T) {
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxDepth: 8}})
	if _, err := eng.Add("//d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Match(workload.DepthBomb(64)); err == nil {
			t.Fatal("depth bomb matched")
		}
	}
	st := eng.Stats()
	if st.LimitTrips["depth"] != 3 {
		t.Fatalf("LimitTrips = %v, want depth:3", st.LimitTrips)
	}
}

func TestChaosHealthyDocsUnaffected(t *testing.T) {
	// Limits generous enough for a normal document change nothing.
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{
		MaxDepth: 100, MaxPaths: 1000, MaxTuples: 10000,
		MaxDocBytes: 1 << 20, MaxSteps: 1 << 20, MatchDeadline: time.Minute,
	}})
	free := predfilter.New(predfilter.Config{})
	doc := []byte("<a><b><c/></b><b/></a>")
	for _, e := range []*predfilter.Engine{eng, free} {
		if _, err := e.AddAll([]string{"/a//c", "//b", "/a/x"}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := free.Match(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.MatchContext(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("governed %v != ungoverned %v (want 2 matches)", got, want)
	}
}

func TestChaosStreamBombsIsolated(t *testing.T) {
	// One bomb in a stream fails alone; surrounding documents still match.
	doc, expr := workload.OccurrenceBomb(200, 204)
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{
		MaxSteps: 1 << 18, MaxDepth: 1 << 10,
	}})
	if _, err := eng.Add(expr); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Add("//ok"); err != nil {
		t.Fatal(err)
	}
	healthy := []byte("<ok/>")
	results := eng.MatchBatchContext(context.Background(), [][]byte{healthy, doc, workload.DepthBomb(1 << 12), healthy}, 2)
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, i := range []int{0, 3} {
		if results[i].Err != nil || len(results[i].SIDs) != 1 {
			t.Fatalf("healthy doc %d: sids=%v err=%v", i, results[i].SIDs, results[i].Err)
		}
	}
	wantLimitErr(t, results[1].Err, predfilter.LimitSteps)
	wantLimitErr(t, results[2].Err, predfilter.LimitDepth)
}

func TestChaosMatchDocBytes(t *testing.T) {
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxDocBytes: 256}})
	if _, err := eng.Add("//p"); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Match(workload.PathBomb(1 << 10))
	wantLimitErr(t, err, predfilter.LimitDocBytes)
}

func TestChaosTracedGoverned(t *testing.T) {
	// The explaining match (the server's ?trace=1 path) must be bounded
	// like the fast path: structural limits at parse, the budget on both
	// the authoritative and the explanation pass.
	doc, expr := workload.OccurrenceBomb(200, 204)
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxSteps: 1 << 20}})
	if _, err := eng.Add(expr); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	sids, tr, err := eng.MatchTracedContext(context.Background(), doc)
	if took := time.Since(t0); took > 10*time.Second {
		t.Fatalf("traced occurrence bomb took %v under a step budget", took)
	}
	if sids != nil || tr != nil {
		t.Fatalf("partial result (sids=%v trace=%v) alongside error", sids, tr != nil)
	}
	wantLimitErr(t, err, predfilter.LimitSteps)

	// Structural limits apply to the traced parse as well.
	deep := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxDepth: 64}})
	if _, err := deep.Add("//d"); err != nil {
		t.Fatal(err)
	}
	_, _, err = deep.MatchTracedContext(context.Background(), workload.DepthBomb(1<<12))
	wantLimitErr(t, err, predfilter.LimitDepth)
}

func TestChaosTraceExplanationPassBudgeted(t *testing.T) {
	// The explanation pass re-evaluates every path directly — no path
	// dedup, no cache, no covers — so it spends far more search effort
	// than the match it explains. Its forked budget must trip even when
	// the authoritative match fits comfortably.
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxSteps: 1 << 10}})
	if _, err := eng.Add("//p"); err != nil {
		t.Fatal(err)
	}
	doc := workload.PathBomb(1 << 12) // 4096 identical paths: dedup makes the fast path ~1 step
	if _, err := eng.Match(doc); err != nil {
		t.Fatalf("fast path should fit the step budget: %v", err)
	}
	sids, tr, err := eng.MatchTracedContext(context.Background(), doc)
	if sids != nil || tr != nil {
		t.Fatalf("partial trace alongside error (sids=%v trace=%v)", sids, tr != nil)
	}
	wantLimitErr(t, err, predfilter.LimitSteps)
}

func TestChaosMatchCountsGoverned(t *testing.T) {
	// Exhaustive combination counting keeps enumerating where filtering
	// stops at the first match; it must honor the engine's limits through
	// both the context and the plain entry point.
	doc, expr := workload.OccurrenceBomb(200, 204)
	eng := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxSteps: 1 << 20}})
	if _, err := eng.Add(expr); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	counts, err := eng.MatchCountsContext(context.Background(), doc)
	if took := time.Since(t0); took > 10*time.Second {
		t.Fatalf("counting occurrence bomb took %v under a step budget", took)
	}
	if counts != nil {
		t.Fatalf("partial counts %v alongside error", counts)
	}
	wantLimitErr(t, err, predfilter.LimitSteps)

	// Structural limits apply to the counting parse as well.
	deep := predfilter.New(predfilter.Config{Limits: predfilter.Limits{MaxDepth: 64}})
	if _, err := deep.Add("//d"); err != nil {
		t.Fatal(err)
	}
	_, err = deep.MatchCountsContext(context.Background(), workload.DepthBomb(1<<12))
	wantLimitErr(t, err, predfilter.LimitDepth)
}

func TestChaosMatchCountsHealthy(t *testing.T) {
	// Governance must not change counting results for ordinary documents.
	doc := []byte("<a><b/><b/><b/></a>")
	free := predfilter.New(predfilter.Config{})
	gov := predfilter.New(predfilter.Config{Limits: predfilter.Limits{
		MaxSteps: 1 << 20, MatchDeadline: time.Minute, MaxDepth: 100,
	}})
	for _, e := range []*predfilter.Engine{free, gov} {
		if _, err := e.Add("//b"); err != nil {
			t.Fatal(err)
		}
	}
	want, err := free.MatchCountsContext(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gov.MatchCountsContext(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 1 {
		t.Fatalf("governed counts %v != ungoverned %v", got, want)
	}
	for sid, n := range want {
		if got[sid] != n {
			t.Fatalf("governed counts %v != ungoverned %v", got, want)
		}
	}
}

// TestChaosParseVerdictBeatsBudget: every engine matches each path as its
// leaf closes, so the step budget trips on a document's first path here,
// long before its end — yet a parse-stage verdict anywhere in the document
// still wins, as it does when the document is parsed before it is matched:
// the expected verdict is the parse's under the same limits
// (xmldoc.ParseLimitsMode), else the scalar reference's on the parsed
// document (MatchParsedContext). After the trip the scan runs on to the
// parse verdict without matching: a later MaxPaths overflow, a mismatched
// last element or trailing content. A namespaced last element sends the
// scanner to the encoding/xml fallback, which accepts it; the budget
// restarts with the fallback's pass and trips again.
func TestChaosParseVerdictBeatsBudget(t *testing.T) {
	lim := predfilter.Limits{MaxSteps: 32, MaxPaths: 8}
	served := predfilter.New(predfilter.Config{Limits: lim})
	ref := predfilter.New(predfilter.Config{Limits: lim, PathCacheBytes: -1})
	for _, eng := range []*predfilter.Engine{served, ref} {
		if _, err := eng.AddAll([]string{strings.Repeat("//a", 10), "//p"}); err != nil {
			t.Fatal(err)
		}
	}
	chain := strings.Repeat("<a>", 8) + strings.Repeat("</a>", 8) // 2^8 search against 10 steps
	for _, c := range []struct {
		doc  string
		kind predfilter.LimitKind // -1: a parse error, not a limit
	}{
		{"<r>" + chain + strings.Repeat("<p/>", 8) + "</r>", predfilter.LimitPaths},
		{"<r>" + chain + "<p></q></r>", -1},
		{"<r>" + chain + "</r><r/>", -1},
		{"<r>" + chain + `<x:p xmlns:x="u"/></r>`, predfilter.LimitSteps},
	} {
		_, want := xmldoc.ParseLimitsMode([]byte(c.doc), lim, xmldoc.ModeAuto)
		if want == nil {
			pd, err := predfilter.ParseDocument([]byte(c.doc))
			if err != nil {
				t.Fatal(err)
			}
			_, want = ref.MatchParsedContext(context.Background(), pd)
		}
		for _, eng := range []*predfilter.Engine{served, ref} {
			sids, err := eng.Match([]byte(c.doc))
			if sids != nil || err == nil {
				t.Fatalf("%q: sids %v, err %v", c.doc, sids, err)
			}
			var le *predfilter.LimitError
			if c.kind < 0 {
				if errors.As(err, &le) || err.Error() != want.Error() {
					t.Fatalf("%q: err %v, want the parse error %v", c.doc, err, want)
				}
				continue
			}
			wantLimitErr(t, err, c.kind)
		}
		if c.kind >= 0 {
			wantLimitErr(t, want, c.kind)
		}
	}
}
