package matcher

import (
	"errors"
	"strings"
	"testing"
	"time"

	"predfilter/internal/guard"
	"predfilter/internal/metrics"
	"predfilter/internal/predicate"
)

// TestServedWorkCounters runs fixed histories through the served entry, one
// document per call on a fresh matcher, and reads the work counters that
// say where the match went: distinct paths, attribute tests hit programs
// decided, units sent through occurrence determination and the occurrence
// pairs those visited. Each history reads the same exact values in two
// runs.
func TestServedWorkCounters(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		xpes []string
		docs []string
		want [4]int64 // distinct paths, attribute tests, occurrence evals, pairs
	}{{
		// A repeated tag whose units read one pair per level: the miss
		// determines the structural unit and checks the live one's
		// structural chain, two pairs each; the live one is then a
		// conjunction unit, one test per document.
		name: "repeated tag",
		xpes: []string{"/a//a", "/a//a[@x=1]"},
		docs: []string{`<a><a x="1"><b/></a></a>`, `<a><a x="1"><b/></a></a>`, `<a><a x="2"><b/></a></a>`},
		want: [4]int64{3, 3, 2, 4},
	}, {
		// A chain unit: //b[@x=1] has the pairs (1,1) and (2,2) on /a/b/b,
		// each guarded by the test on its b. The miss checks the chain (the
		// single level stops at its first pair); a hit determines over the
		// pairs whose b passed, none on the last document. A b without
		// attributes fails its test unevaluated.
		name: "chain unit",
		xpes: []string{"//b[@x=1]"},
		docs: []string{`<a><b><b x="1"/></b></a>`, `<a><b><b x="1"/></b></a>`, `<a><b x="1"><b/></b></a>`, `<a><b><b/></b></a>`},
		want: [4]int64{4, 3, 1 + 3, 1 + 3},
	}, {
		// A tag repeated three deep, under a plain chain and a nested
		// path. On /a/a/a, determination of //a/a/a reads both pairs of
		// its first level, (1,2) and (2,3), and the last level up to its
		// first kept pair, (2,3): 4 pairs; on /a/a, a miss of another
		// shape, it reads (1,2) twice. Recombination enumerates the
		// nested path's two chains on each path, dead ends included:
		// 4 + 3 pairs on /a/a/a, 2 + 2 on /a/a.
		name: "repeated tag, several pairs",
		xpes: []string{"//a/a/a", "/a[a]//a"},
		docs: []string{`<a><a><a/></a><a/></a>`},
		want: [4]int64{2, 0, 2, 4 + 2 + 7 + 4},
	}, {
		// No tag repeats: every live unit is a conjunction unit.
		name: "programs",
		xpes: []string{"/r/s[@k=1]", "/r/t[@k>=2]", "/r/s"},
		docs: []string{`<r><s k="1"/><t k="3"/></r>`, `<r><s k="2"/><t k="3"/><s k="1"/></r>`},
		want: [4]int64{5, 5, 0, 0}, // the second s is another node: its test is decided again
	}, {
		// Postponed mode: the two filters share one group representative,
		// decided on the miss; on an unambiguous path each member is a
		// conjunction unit, so every fresh b decides both tests.
		name: "postponed",
		opts: Options{AttrMode: predicate.Postponed},
		xpes: []string{"/a/b[@x=1]", "/a/b[@x=2]"},
		docs: []string{`<a><b x="1"/><b x="2"/></a>`, `<a><b x="3"/></a>`},
		want: [4]int64{3, 6, 0, 0},
	}} {
		run := func() [4]int64 {
			mx := metrics.NewSet()
			opts := tc.opts
			opts.Metrics = mx
			m := New(opts)
			mustAdd(t, m, tc.xpes...)
			for _, doc := range tc.docs {
				docs := []ScanDoc{{Doc: []byte(doc)}}
				m.MatchScanned(docs, guard.Limits{})
				if docs[0].Err != nil {
					t.Fatalf("%s: %v", tc.name, docs[0].Err)
				}
			}
			s := mx.Scrape()
			return [4]int64{s.PathsDistinct, s.AttrTests, s.OccurEvals, s.OccurPairs}
		}
		first, second := run(), run()
		if first != second {
			t.Errorf("%s: two runs read %v and %v", tc.name, first, second)
		}
		if first != tc.want {
			t.Errorf("%s: counters %v, want %v", tc.name, first, tc.want)
		}
	}
}

// TestScannedStageTimes pins the served timing contract: whether the
// document is plain, falls back to encoding/xml mid-scan, is traced or
// trips its budget, its parse and match stages are not negative and
// together fit in the call's wall time.
func TestScannedStageTimes(t *testing.T) {
	m := New(Options{})
	mustAdd(t, m, "/a/b", "//c[@z=2]", strings.Repeat("//a", 20))
	deep := strings.Repeat("<a>", 18) + strings.Repeat("</a>", 18)
	for _, tc := range []struct {
		name    string
		d       ScanDoc
		tripped bool
	}{
		{name: "plain", d: ScanDoc{Doc: []byte(`<a x="1"><b y="2"/><c z="2"/></a>`)}},
		{name: "fallback", d: ScanDoc{Doc: []byte(`<a x="1"><b y="&amp;"/><p:c xmlns:p="u" z="2"/></a>`)}},
		{name: "traced", d: ScanDoc{Doc: []byte(`<a x="1"><b y="2"/><c z="2"/></a>`), Explain: true}},
		{name: "budget", d: ScanDoc{Doc: []byte(deep), Bud: stepBudget(1000)}, tripped: true},
	} {
		docs := []ScanDoc{tc.d}
		t0 := time.Now()
		m.MatchScanned(docs, guard.Limits{})
		wall := time.Since(t0)
		d := &docs[0]
		var le *guard.LimitError
		if tripped := errors.As(d.Err, &le); tripped != tc.tripped || !tripped && d.Err != nil {
			t.Fatalf("%s: err %v", tc.name, d.Err)
		}
		if d.Parse < 0 || d.Match < 0 || d.Parse+d.Match > wall {
			t.Errorf("%s: parse %v + match %v against wall %v", tc.name, d.Parse, d.Match, wall)
		}
	}
}
