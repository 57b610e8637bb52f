package predfilter_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"predfilter"
	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
	"predfilter/workload"
)

// FuzzMatch drives the whole public pipeline — expression registration,
// parsing, matching — with arbitrary (expression, document) pairs and
// checks the engine against the refmatch oracle. The engine must never
// panic or hang; when both inputs are accepted, the match verdict must
// equal the oracle's, and a governed engine (generous limits, far above
// anything the fuzzer can construct) must agree exactly with an
// ungoverned one: limits change when the engine gives up, never what it
// answers.
func FuzzMatch(f *testing.F) {
	seeds := [][2]string{
		{"//a", "<a/>"},
		{"/a/b", "<a><b/></a>"},
		{"/a//c", "<a><b><c/></b><d/></a>"},
		{"//a//a", "<a><a><a/></a></a>"},
		{"/a[@k=v]", `<a k="v"/>`},
		{"/a[@k=1v]/b", `<a k="v"><b/></a>`},                        // fails as recorded, passes in the variant
		{"//b[@n>=12]//b", `<b n="3"><b><b/></b></b>`},              // the same on an ambiguous path
		{"//b//b[@n>=12]", `<b><b n="3"><b n="20"/></b></b>`},       // the filtered level has two pairs: a chain unit
		{"/a[@k<-2][@j]/b[@k!=-3]", `<a k="3" j=""><b k="3"/></a>`}, // two filters on a step, both tags of a predicate; passes when signed
		{"//b[@k]", `<a><b k="1"/></a>`},
		{"/a[b]/c", "<a><b/><c/></a>"},
		{"/a[b[c]]//d", "<a><b><c/></b><d/></a>"},
		{"*/a", "<x><a/></x>"},
		{"//a", "<a><a><b></a></a>"}, // malformed document
		{"a[", "<a/>"},               // malformed expression
		{"//a//a//a", "<a><a/></a>"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	limited := predfilter.Limits{
		MaxDepth:      1 << 10,
		MaxPaths:      1 << 12,
		MaxTuples:     1 << 14,
		MaxDocBytes:   1 << 20,
		MaxSteps:      1 << 22,
		MatchDeadline: time.Minute,
	}
	f.Fuzz(func(t *testing.T, expr, doc string) {
		eng := predfilter.New(predfilter.Config{})
		sid, err := eng.Add(expr)
		if err != nil {
			return // expression rejected: fine, as long as we didn't panic
		}
		sids, err := eng.Match([]byte(doc))
		if err != nil {
			// Document rejected. The governed engine must reject it too
			// (same parser), not silently match.
			geng := predfilter.New(predfilter.Config{Limits: limited})
			if _, err := geng.Add(expr); err != nil {
				t.Fatalf("governed engine rejected %q that the plain one accepted: %v", expr, err)
			}
			if _, gerr := geng.Match([]byte(doc)); gerr == nil {
				t.Fatalf("plain engine rejected %q (%v) but the governed one matched it", doc, err)
			}
			return
		}
		matched := len(sids) == 1 && sids[0] == sid

		// Oracle agreement.
		p, perr := xpath.Parse(expr)
		if perr != nil {
			t.Fatalf("engine accepted %q but xpath.Parse rejects it: %v", expr, perr)
		}
		d, derr := xmldoc.Parse([]byte(doc))
		if derr != nil {
			t.Fatalf("engine matched %q but xmldoc.Parse rejects it: %v", doc, derr)
		}
		if want := refmatch.Match(p, d); matched != want {
			t.Fatalf("%q over %q: engine=%v oracle=%v", expr, doc, matched, want)
		}

		// Limits-on/off equivalence: bounds far above the fuzzer's reach
		// must not change the verdict.
		geng := predfilter.New(predfilter.Config{Limits: limited})
		gsid, err := geng.Add(expr)
		if err != nil {
			t.Fatalf("governed Add(%q): %v", expr, err)
		}
		gsids, err := geng.Match([]byte(doc))
		if err != nil {
			// Giving up is allowed — but only with the typed limit error,
			// and only when a limit genuinely tripped (a determined fuzzer
			// can build a wide document that does exceed the path bound).
			var le *predfilter.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("governed engine failed without a *LimitError: %v", err)
			}
			return
		}
		gmatched := len(gsids) == 1 && gsids[0] == gsid
		if gmatched != matched {
			t.Fatalf("%q over %q: governed=%v ungoverned=%v", expr, doc, gmatched, matched)
		}
	})
}

// FuzzMatchColumnar drives the served kernel with arbitrary (expression,
// document) pairs and checks it against the refmatch oracle and the
// scalar reference engine (PathCacheBytes < 0). With a cache that keeps no
// entry, through MatchBatch (so every path is a miss that sweeps and builds
// its own entry; the batch repeats the document so the second copy
// exercises the pooled scratch reuse within one batch). And
// cached, through single Match calls: the document (a miss builds each
// entry and its program), then a variant with the same path signatures
// but every attribute value changed (to values most constants no longer
// equal, then to values below them), and the document again between — hits
// that run programs compiled on a document with other values,
// in both orders, each result also checked against refmatch. A cached
// Postponed engine rides the same variants against the Postponed scalar
// reference.
func FuzzMatchColumnar(f *testing.F) {
	seeds := [][2]string{
		{"//a", "<a/>"},
		{"/a/b", "<a><b/></a>"},
		{"//a//a", "<a><a><a/></a></a>"},     // ambiguous path: scalar determination
		{"/a/b/c", "<a><b><c/></b><b/></a>"}, // repeated tag across siblings
		{"/a[@k=v]", `<a k="v"/>`},
		{"/a[@k=1v]/b", `<a k="v"><b/></a>`},                        // fails as recorded, passes in the variant
		{"//b[@n>=12]//b", `<b n="3"><b><b/></b></b>`},              // the same on an ambiguous path
		{"//b//b[@n>=12]", `<b><b n="3"><b n="20"/></b></b>`},       // the filtered level has two pairs: a chain unit
		{"/a[@k<-2][@j]/b[@k!=-3]", `<a k="3" j=""><b k="3"/></a>`}, // two filters on a step, both tags of a predicate; passes when signed
		{"/a[b]/c", "<a><b/><c/></a>"},                              // nested filter
		{"/*/*", "<a><b/></a>"},                                     // wildcard-only (length) chain
		{"a[", "<a/>"},                                              // malformed expression
		{"//a", "<a><a><b></a></a>"},                                // malformed document
		// Nested paths over repeated tags.
		{"//a[a]//a", "<a><a><a/></a><a/></a>"},
		{"/r/b[c]/d", "<r><b><b><c/></b><d/></b><b><d/></b></r>"},
		{"//b[b//c]", "<r><b><b><c/></b><d/></b><b><d/></b></r>"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, expr, doc string) {
		scalar := predfilter.New(predfilter.Config{PathCacheBytes: -1})
		col := predfilter.New(predfilter.Config{PathCacheBytes: 1}) // keeps no entry: every path a miss
		sid, err := scalar.Add(expr)
		if err != nil {
			return
		}
		if _, err := col.Add(expr); err != nil {
			t.Fatalf("columnar engine rejected %q that the scalar one accepted: %v", expr, err)
		}
		want, err := scalar.Match([]byte(doc))
		batch := col.MatchBatchContext(context.Background(), [][]byte{[]byte(doc), []byte(doc)}, 1)
		if err != nil {
			for _, r := range batch {
				if r.Err == nil {
					t.Fatalf("scalar rejected %q (%v) but columnar matched it", doc, err)
				}
			}
			return
		}
		matched := len(want) == 1 && want[0] == sid
		for i, r := range batch {
			if r.Err != nil {
				t.Fatalf("columnar doc %d failed on input scalar accepted: %v", i, r.Err)
			}
			if got := len(r.SIDs) == 1 && r.SIDs[0] == sid; got != matched {
				t.Fatalf("%q over %q copy %d: columnar=%v scalar=%v", expr, doc, i, got, matched)
			}
		}
		served := predfilter.New(predfilter.Config{})
		postScalar := predfilter.New(predfilter.Config{AttributeMode: predfilter.PostponedAttributes, PathCacheBytes: -1})
		postServed := predfilter.New(predfilter.Config{AttributeMode: predfilter.PostponedAttributes})
		for _, eng := range []*predfilter.Engine{served, postScalar, postServed} {
			if _, err := eng.Add(expr); err != nil {
				t.Fatalf("cached or Postponed engine rejected %q that the scalar one accepted: %v", expr, err)
			}
		}
		p, perr := xpath.Parse(expr)
		if perr != nil {
			t.Fatalf("engine accepted an expression the parser rejects: %v", perr)
		}
		// Variants that keep every path signature and change every
		// attribute value: a prefix, so most equal no constant any more,
		// and a sign, which puts numbers below every constant.
		for i, d := range []string{doc, strings.ReplaceAll(doc, `="`, `="1`), doc, strings.ReplaceAll(doc, `="`, `="-`), doc} {
			want, werr := scalar.Match([]byte(d))
			got, gerr := served.Match([]byte(d))
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%q copy %d: scalar err %v, cached err %v", d, i, werr, gerr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%q over %q copy %d: cached=%v scalar=%v", expr, d, i, got, want)
			}
			pwant, pwerr := postScalar.Match([]byte(d))
			pgot, pgerr := postServed.Match([]byte(d))
			if (pwerr == nil) != (pgerr == nil) || (pwerr == nil) != (werr == nil) {
				t.Fatalf("%q copy %d: Postponed scalar err %v, Postponed cached err %v, scalar err %v", d, i, pwerr, pgerr, werr)
			}
			if !slices.Equal(pgot, pwant) || !slices.Equal(pgot, want) {
				t.Fatalf("%q over %q copy %d: Postponed cached=%v Postponed scalar=%v scalar=%v", expr, d, i, pgot, pwant, want)
			}
			if werr != nil {
				continue
			}
			pd, derr := xmldoc.Parse([]byte(d))
			if derr != nil {
				t.Fatalf("engine accepted a document the parser rejects: %v", derr)
			}
			if oracle := refmatch.Match(p, pd); (len(got) == 1) != oracle {
				t.Fatalf("%q over %q: engine=%v oracle=%v", expr, d, got, oracle)
			}
		}
	})
}

// scanSeeds returns the FuzzScanEquivalence corpus: the scanner edge-case
// table and the corpus entries checked in beside it.
func scanSeeds(f *testing.F) []string {
	data, err := os.ReadFile("internal/xmldoc/testdata/scan_cases.txt")
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	corpus, err := filepath.Glob("internal/xmldoc/testdata/fuzz/FuzzScanEquivalence/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpus {
		entry, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1" then one line: []byte("...")
		for _, l := range strings.Split(string(entry), "\n") {
			if q, ok := strings.CutPrefix(l, "[]byte("); ok {
				lines = append(lines, strings.TrimSuffix(q, ")"))
			}
		}
	}
	var seeds []string
	for _, l := range lines {
		if l == "" || l[0] == '#' {
			continue
		}
		s, err := strconv.Unquote(l)
		if err != nil {
			f.Fatalf("%s: %v", l, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzMatchScanned is the differential oracle for matching inside the
// scan. On arbitrary bytes, Engine.Match — each path matched as its leaf
// closes, the encoding/xml fallback restarting the document — must agree
// with parsing first (ParseDocument + MatchParsedContext on the same
// engine) and with the scalar reference (PathCacheBytes < 0), which runs
// the paper's per-unit loop inside the scan too and, on the parsed
// document, over a Document: equal match sets, and equal errors (a
// *LimitError's Kind, Limit and Got, or else the text). MatchCountsContext
// is held to the same verdict, an expression counting combinations exactly
// when it matched, wherever its enumeration fits a step budget (which the
// fuzzer's documents can exhaust). Under tight limits the materialized side
// parses under them first (a parse verdict beats a budget trip) and runs on
// a twin engine, so the step charges of the two see the same cache. Two
// comparisons of step trips are out of reach and skipped: across kernels,
// which charge differently, and after a fallback, whose discarded pass may
// have warmed the cache the twin still misses in.
func FuzzMatchScanned(f *testing.F) {
	for _, s := range scanSeeds(f) {
		f.Add([]byte(s))
	}
	for _, d := range workload.Documents(workload.NITF(), 4, workload.DocumentConfig{MaxLevels: 6, Seed: 3}) {
		f.Add(d)
	}
	chain := strings.Repeat("<a>", 6) + strings.Repeat("</a>", 6) // trips the tight step budget on //a×8
	for _, late := range []string{
		strings.Repeat("<p/>", 8) + "</r>", // a step-budget blowup ahead of a MaxPaths overflow
		"<p></q></r>",                      // a mismatched last element
		`<x:p xmlns:x="u"/></r>`,           // a namespaced last element: the fallback, restarted
		"</r><r/>",                         // trailing content
		"<p k='&bad;'/></r>",               // an entity the fallback rejects too
	} {
		f.Add([]byte("<r>" + chain + late))
	}
	// Nested paths over repeated tags, registered on odd-length documents:
	// the same document at both parities.
	f.Add([]byte("<r><b><b><c/></b><d/></b><b><d/></b></r>"))
	f.Add([]byte("<r><b><b><c/></b><d/></b><b><d/></b></r>\n"))
	for _, s := range []string{ // one shape repeated, attributes varying at every depth
		`<r><a x="2"><b/></a><a><b x="00"/></a><a x="1"><b x="1"/></a><a x="2"><b y="1"/></a></r>`,
		`<a x="3"><a v="00"><b/><b x="1"/></a><a v="2" x="1"><b x="3"/><b/></a></a>`,
		`<a x="2"><b x="1"><b v="1"><p k="1"/><p/></b><b v="0"><p k=""/></b></b><b><b x="1"><p/></b></b></a>`,
	} {
		f.Add([]byte(s))
	}
	nitf, err := workload.Expressions(workload.NITF(), 24, workload.ExpressionConfig{MaxLength: 6, Wildcard: 0.2, Descendant: 0.2, Filters: 1, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	xpes := append([]string{
		"//a", "/a/b", "/a//c", "//a//a", "/*/*", "/r/a/a", strings.Repeat("//a", 8),
		"//p", "/r/p", "//b[@x]", `//a[@x="1"]`, "//a[@v>=1]", "//p[@k]", "/a[@x<=2]/b", "//d//d",
	}, nitf...)
	nested := []string{"/a[b]/c", "//r[p]//a", "/nitf[head/title]/body", "//a[a]//a", "/r/b[c]/d", "//b[b//c]"}
	tight := predfilter.Limits{MaxDepth: 8, MaxPaths: 8, MaxTuples: 40, MaxDocBytes: 512, MaxSteps: 24}
	f.Fuzz(func(t *testing.T, doc []byte) {
		engine := func(cfg predfilter.Config) *predfilter.Engine {
			eng := predfilter.New(cfg)
			regs := xpes
			if len(doc)%2 == 1 { // nested paths change the kernel's dedup and cache rules
				regs = append(xpes[:len(xpes):len(xpes)], nested...)
			}
			if _, err := eng.AddAll(regs); err != nil {
				t.Fatal(err)
			}
			return eng
		}
		scalar := predfilter.Config{PathCacheBytes: -1}
		ctx := context.Background()

		// No limits: one engine scanned, materialized and counted; the
		// reference.
		eng, ref := engine(predfilter.Config{}), engine(scalar)
		got, gerr := eng.Match(doc)
		want, werr := ref.Match(doc)
		sameVerdict(t, "scanned", "reference", got, gerr, want, werr)
		var mat []predfilter.SID
		pd, merr := predfilter.ParseDocument(doc)
		if merr == nil {
			mat, merr = eng.MatchParsedContext(ctx, pd)
		}
		sameVerdict(t, "scanned", "materialized", got, gerr, mat, merr)
		if pd != nil { // the scalar loop over a Document
			rmat, rerr := ref.MatchParsedContext(ctx, pd)
			sameVerdict(t, "scanned", "reference materialized", got, gerr, rmat, rerr)
		}
		// Emitted, by the kernel (one document in the caller's goroutine,
		// two through the stream) and by the scalar reference's []SID
		// rendered: Match's result in Match's order.
		for _, e := range []*predfilter.Engine{eng, ref} {
			for _, n := range []int{1, 2} {
				e.MatchEmit(ctx, [][]byte{doc, doc}[:n], 2, func(i int, em *predfilter.Emitted, err error) {
					checkEmitted(t, em, err, got, gerr)
				})
			}
		}
		counts, cerr := engine(predfilter.Config{Limits: predfilter.Limits{MaxSteps: 1 << 20}}).MatchCountsContext(ctx, doc)
		if !isSteps(cerr) {
			var counted []predfilter.SID
			for sid, n := range counts {
				if n <= 0 {
					t.Fatalf("sid %d counted %d combinations", sid, n)
				}
				counted = append(counted, sid)
			}
			sameVerdict(t, "counted", "scanned", counted, cerr, got, gerr)
		}

		// Tight limits: twins, cold and then warm.
		scfg, rcfg := predfilter.Config{Limits: tight}, scalar
		rcfg.Limits = tight
		s, m, ref := engine(scfg), engine(scfg), engine(rcfg)
		for round := 0; round < 2; round++ {
			got, gerr := s.Match(doc)
			var mat []predfilter.SID
			_, merr := xmldoc.ParseLimitsMode(doc, tight, xmldoc.ModeAuto)
			if merr == nil {
				pd, _ := predfilter.ParseDocument(doc)
				mat, merr = m.MatchParsedContext(ctx, pd)
			}
			if fellBack := s.Stats().ParseFallbacks > 0; !fellBack || !isSteps(gerr) && !isSteps(merr) {
				sameVerdict(t, "tight scanned", "tight materialized", got, gerr, mat, merr)
			}
			if want, werr := ref.Match(doc); !isSteps(gerr) && !isSteps(werr) {
				sameVerdict(t, "tight scanned", "tight reference", got, gerr, want, werr)
			}
		}
	})
}

// checkEmitted fails the test unless em, err is the emitted form of sids,
// serr: the same verdict, a text that parses to exactly sids in the same
// order, a count of len(sids), and a bitset of exactly their set.
func checkEmitted(t *testing.T, em *predfilter.Emitted, err error, sids []predfilter.SID, serr error) {
	t.Helper()
	if err != nil || serr != nil {
		sameVerdict(t, "emitted", "scanned", nil, err, sids, serr)
		if err != nil && em != nil {
			t.Fatalf("emitted %+v with error %v", em, err)
		}
		return
	}
	var text []predfilter.SID
	for _, f := range strings.SplitAfter(string(em.Text), ",") {
		if f == "" {
			continue
		}
		v, perr := strconv.Atoi(strings.TrimSuffix(f, ","))
		if perr != nil || !strings.HasSuffix(f, ",") || strconv.Itoa(v) != strings.TrimSuffix(f, ",") {
			t.Fatalf("emitted text %q: field %q", em.Text, f)
		}
		text = append(text, predfilter.SID(v))
	}
	if !slices.Equal(text, sids) || em.N != len(sids) {
		t.Fatalf("emitted %d ids %v (text %q), Match %v", em.N, text, em.Text, sids)
	}
	set := map[predfilter.SID]bool{}
	if len(em.Words) != len(em.Masks) {
		t.Fatalf("emitted %d words, %d masks", len(em.Words), len(em.Masks))
	}
	for i, w := range em.Words {
		if em.Masks[i] == 0 {
			t.Fatalf("emitted word %d is empty", w)
		}
		for b := 0; b < 64; b++ {
			if em.Masks[i]>>b&1 != 0 {
				sid := predfilter.SID(int(w)<<6 | b)
				if set[sid] {
					t.Fatalf("emitted word %d twice", w)
				}
				set[sid] = true
			}
		}
	}
	if len(set) != len(sids) {
		t.Fatalf("emitted bitset holds %d ids, Match %d", len(set), len(sids))
	}
	for _, sid := range sids {
		if !set[sid] {
			t.Fatalf("emitted bitset lacks %d", sid)
		}
	}
}

func isSteps(err error) bool {
	var le *predfilter.LimitError
	return errors.As(err, &le) && le.Kind == predfilter.LimitSteps
}

// sameVerdict fails the test unless two outcomes agree: equal match sets,
// or errors with the same LimitError Kind, Limit and Got, else the same
// text.
func sameVerdict(t *testing.T, a, b string, sa []predfilter.SID, ea error, sb []predfilter.SID, eb error) {
	t.Helper()
	if ea == nil && eb == nil {
		if !slices.Equal(sortedSIDs(sa), sortedSIDs(sb)) {
			t.Fatalf("%s matched %v, %s %v", a, sa, b, sb)
		}
		return
	}
	var la, lb *predfilter.LimitError
	switch {
	case ea == nil || eb == nil:
	case errors.As(ea, &la) && errors.As(eb, &lb):
		if la.Kind == lb.Kind && la.Limit == lb.Limit && la.Got == lb.Got {
			return
		}
	case ea.Error() == eb.Error():
		return
	}
	t.Fatalf("%s: %v (sids %v); %s: %v (sids %v)", a, ea, sa, b, eb, sb)
}
