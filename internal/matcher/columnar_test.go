package matcher

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"predfilter/internal/guard"
	"predfilter/internal/metrics"
	"predfilter/internal/predicate"
	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// colMatchSets matches XML documents as one served batch (MatchScanned)
// and folds each document's result into a set, failing on errors.
func colMatchSets(t *testing.T, m *Matcher, docs ...[]byte) []map[SID]bool {
	t.Helper()
	batch := scanBatch(docs...)
	m.MatchScanned(batch, guard.Limits{})
	sets := make([]map[SID]bool, len(docs))
	for i, d := range batch {
		if d.Err != nil {
			t.Fatalf("columnar doc %d: %v", i, d.Err)
		}
		sets[i] = make(map[SID]bool)
		for _, sid := range d.SIDs {
			sets[i][sid] = true
		}
	}
	return sets
}

// scanBatch makes an unbudgeted MatchScanned batch of XML documents.
func scanBatch(docs ...[]byte) []ScanDoc {
	batch := make([]ScanDoc, len(docs))
	for i, d := range docs {
		batch[i].Doc = d
	}
	return batch
}

func setsEqual(a, b map[SID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for sid := range a {
		if !b[sid] {
			return false
		}
	}
	return true
}

// nestedXPEs are fixed nested-filter expressions mixed into the random
// workloads: nested paths bypass dedup and the path cache's structural
// half, exercising the columnar kernel's collect loop.
var nestedXPEs = []string{"/a[b]/c", "a[b/c]", "//b[c]/d", "/a[b][c]/d"}

// TestColumnarEquivalenceRandomized is the kernel's Theorem A.1 test: on
// random workloads (attribute filters, repeated-tag paths, nested filters
// on alternate rounds) the served kernel must produce exactly the match
// sets of refmatch and of the scalar cache-off reference — crossing both
// attribute modes, all three organizations and containment covering, with
// the path cache off, tiny (evicting) and on. Every document is matched
// cold (a miss builds the entry and its live plan) and again (a hit walks
// the plan), as the scanned batch and parsed, one document at a time, with
// an Add, a Remove and a re-rank of the value dictionary between hits.
func TestColumnarEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 25; round++ {
		xpes := make([]string, 0, 36)
		for len(xpes) < 30 {
			xpes = append(xpes, randXPE(rng, true))
		}
		if round%2 == 1 {
			xpes = append(xpes, nestedXPEs...)
		}
		extra := randXPE(rng, true) // added between hits
		paths := make([]*xpath.Path, len(xpes))
		for i, s := range xpes {
			paths[i] = xpath.MustParse(s)
		}
		xmls := make([][]byte, 6)
		docs := make([]*xmldoc.Document, len(xmls))
		for i := range docs {
			xmls[i] = randXML(rng, true)
			docs[i] = mustParse(t, string(xmls[i]))
		}
		for _, v := range allVariants {
			for mode := 0; mode < 2; mode++ {
				for _, cacheBytes := range []int64{-1, 1 << 9, 1 << 20} {
					opts := Options{Variant: v, AttrMode: predAttrMode(mode), PathCacheBytes: cacheBytes}
					name := fmt.Sprintf("round %d %+v", round, opts)
					m := New(opts)
					opts.PathCacheBytes = -1
					ref := New(opts) // MatchDocument on it is the scalar reference
					sids := mustAdd(t, m, xpes...)
					mustAdd(t, ref, xpes...)

					// Cold batch, against the reference matcher.
					got := colMatchSets(t, m, xmls...)
					for di, doc := range docs {
						for i, p := range paths {
							if want := refmatch.Match(p, doc); got[di][sids[i]] != want {
								t.Fatalf("%s doc %d: %q columnar=%v, ref=%v\npaths: %v",
									name, di, xpes[i], got[di][sids[i]], want, docPaths(doc))
							}
						}
					}
					check := func(stage string) {
						t.Helper()
						for di, doc := range docs {
							want := matchSet(ref, doc)
							out, _, err := m.MatchDocumentColumnar(doc, nil)
							if err != nil {
								t.Fatal(err)
							}
							single := make(map[SID]bool)
							for _, sid := range out {
								single[sid] = true
							}
							if !setsEqual(single, want) {
								t.Fatalf("%s doc %d %s: single %v != scalar reference %v", name, di, stage, single, want)
							}
						}
						for di, set := range colMatchSets(t, m, xmls...) {
							if want := matchSet(ref, docs[di]); !setsEqual(set, want) {
								t.Fatalf("%s doc %d %s: batch %v != scalar reference %v", name, di, stage, set, want)
							}
						}
					}
					check("warm")
					// Registration changes between hits: both invalidate, and
					// the Add refreezes, so plans are rebuilt against new
					// unit columns.
					if err := m.Remove(sids[0]); err != nil {
						t.Fatal(err)
					}
					if err := ref.Remove(sids[0]); err != nil {
						t.Fatal(err)
					}
					check("after Remove")
					mustAdd(t, m, extra)
					mustAdd(t, ref, extra)
					check("after Add")
					// Constants below and between the others on attributes the
					// retained entries test, in an expression that evicts
					// nothing: the programs run on re-ranked codes.
					rerank := []string{"/nowhere[@x<0.5]", "/nowhere[@y>=-1]", "/nowhere[@x!=2.25]", "/nowhere[@y<=aa]"}
					mustAdd(t, m, rerank...)
					mustAdd(t, ref, rerank...)
					check("after re-rank")
				}
			}
		}
	}
}

// TestPlanSameSignatureDifferentValues drills the live plan's soundness
// argument directly: documents share every path signature and differ only
// in attribute values, so the second rides entries the first recorded. A
// plan built from a document that *fails* a filter must still hold the
// unit for a later document that passes, and the reverse; on unambiguous
// and repeated-tag paths, in both attribute modes, for every organization,
// against the scalar cache-off reference.
func TestPlanSameSignatureDifferentValues(t *testing.T) {
	xpes := []string{
		"/a/b[@x=1]/c", "/a/b/c", "//b[@x=1]", "/a/b[@x=1]", "b[@y=2]/c", "/a[@x=1]/b[@x=1]/c",
		"//b[@x=1]//c", "b/b[@x=1]", "/a/b[@x!=1]/b", "b[@x=1]/b[@x=2]/c", "b/c", "//c[@x>=2]",
		"//b[@x<2][@y]", "/a[@y]/b", "//b[@x>1.5]", "//c[@x<=z]",
	}
	shapes := []string{
		`<a%s><b%s><c%s/></b></a>`,        // unambiguous
		`<a%s><b%s><b%s><c/></b></b></a>`, // b repeats: occurrence determination
	}
	// The first three reach every element; 1.7 and q equal no constant.
	values := []string{``, ` x="1"`, ` x="2"`, ` x="1" y="2"`, ` y="2"`, ` x="1.7"`, ` x="q" y=""`}
	for _, shape := range shapes {
		var docs []*xmldoc.Document
		for _, v1 := range values {
			for _, v2 := range values {
				for _, v3 := range values[:3] {
					d, err := xmldoc.Parse([]byte(fmt.Sprintf(shape, v1, v2, v3)))
					if err != nil {
						t.Fatal(err)
					}
					docs = append(docs, d)
				}
			}
		}
		for _, v := range allVariants {
			for mode := 0; mode < 2; mode++ {
				opts := Options{Variant: v, AttrMode: predAttrMode(mode)}
				optsRef := opts
				optsRef.PathCacheBytes = -1
				ref := New(optsRef)
				mustAdd(t, ref, xpes...)
				// Forward, then reversed: every document is at some point
				// the one whose values the entry was recorded from.
				for _, reversed := range []bool{false, true} {
					m := New(opts)
					mustAdd(t, m, xpes...)
					for k := range docs {
						doc := docs[k]
						if reversed {
							doc = docs[len(docs)-1-k]
						}
						out, _, err := m.MatchDocumentColumnar(doc, nil)
						if err != nil {
							t.Fatal(err)
						}
						got := make(map[SID]bool)
						for _, sid := range out {
							got[sid] = true
						}
						if want := matchSet(ref, doc); !setsEqual(got, want) {
							t.Fatalf("%+v reversed=%v doc %v: plan %v != scalar reference %v",
								opts, reversed, docPaths(doc), got, want)
						}
					}
					// One signature set: everything after the first
					// document was served from recorded entries.
					if st, _ := m.cacheStats(); st.Misses > 2 || st.Hits == 0 {
						t.Fatalf("%+v: documents did not share signatures: %+v", opts, st)
					}
				}
			}
		}
	}
}

// TestColumnarBudget pins the governance contract: a budget generous
// enough for the scalar matcher never trips only under the columnar one;
// a blowup trips the same typed error; a canceled context surfaces as
// Canceled; nil budgets are unlimited.
func TestColumnarBudget(t *testing.T) {
	t.Run("generous", func(t *testing.T) {
		m := New(Options{Variant: PrefixCoverAP})
		mustAdd(t, m, "//a//a", "/a/a/a", "//a[@k=v]", "/a/*/a")
		doc := chainDoc(t, 6)
		want, _, err := m.MatchDocumentBudget(doc, stepBudget(1_000_000))
		if err != nil {
			t.Fatalf("scalar budget tripped: %v", err)
		}
		out, _, err := m.MatchDocumentColumnar(doc, stepBudget(1_000_000))
		if err != nil {
			t.Fatalf("columnar tripped where scalar did not: %v", err)
		}
		if len(out) != len(want) {
			t.Fatalf("columnar %v != scalar %v", out, want)
		}
	})

	t.Run("blowup", func(t *testing.T) {
		m := New(Options{Variant: PrefixCoverAP})
		mustAdd(t, m, strings.Repeat("//a", 20))
		// An ambiguous path (every tuple's tag repeats), so candidates run
		// the scalar determination and hit the exponential dead-end space.
		out, _, err := m.MatchDocumentColumnar(chainDoc(t, 18), stepBudget(1000))
		var le *guard.LimitError
		if !errors.As(err, &le) || le.Kind != guard.Steps {
			t.Fatalf("err = %v, want Steps *LimitError", err)
		}
		if out != nil {
			t.Fatalf("partial result %v alongside error", out)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		m := New(Options{Variant: Basic})
		mustAdd(t, m, "//a")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := m.MatchDocumentColumnar(chainDoc(t, 4), guard.NewBudget(ctx, guard.Limits{}))
		var le *guard.LimitError
		if !errors.As(err, &le) || le.Kind != guard.Canceled {
			t.Fatalf("err = %v, want Canceled *LimitError", err)
		}
	})

	t.Run("per-document independence", func(t *testing.T) {
		m := New(Options{Variant: PrefixCoverAP})
		sids := mustAdd(t, m, strings.Repeat("//a", 20), "//b/c")
		// Doc 0 trips its budget; docs 1 (nil budget) and 2 must be
		// unaffected by the abort, including scratch-state reuse.
		good := []byte("<b><c/></b>")
		batch := scanBatch([]byte(strings.Repeat("<a>", 18)+strings.Repeat("</a>", 18)), good, good)
		batch[0].Bud = stepBudget(100)
		m.MatchScanned(batch, guard.Limits{})
		if batch[0].Err == nil {
			t.Fatal("doc 0 budget survived the blowup")
		}
		for i := 1; i < 3; i++ {
			if d := batch[i]; d.Err != nil || len(d.SIDs) != 1 || d.SIDs[0] != sids[1] {
				t.Fatalf("doc %d = %v, %v, want [%d]", i, d.SIDs, d.Err, sids[1])
			}
		}
	})
}

// TestColumnarRebuildOnMutation: the columnar index is keyed to the
// freeze generation — registrations after a batch must be visible to the
// next batch, and removals must stop matching.
func TestColumnarRebuildOnMutation(t *testing.T) {
	m := New(Options{Variant: PrefixCoverAP, Metrics: metrics.NewSet()})
	sidA := mustAdd(t, m, "/a/b")[0]
	doc := []byte("<a><b/></a>")
	got := colMatchSets(t, m, doc)[0]
	if !got[sidA] || len(got) != 1 {
		t.Fatalf("first batch = %v, want {%d}", got, sidA)
	}

	sidB := mustAdd(t, m, "a/*")[0]
	got = colMatchSets(t, m, doc)[0]
	if !got[sidA] || !got[sidB] || len(got) != 2 {
		t.Fatalf("after Add = %v, want {%d,%d}", got, sidA, sidB)
	}

	if err := m.Remove(sidA); err != nil {
		t.Fatal(err)
	}
	got = colMatchSets(t, m, doc)[0]
	if got[sidA] || !got[sidB] {
		t.Fatalf("after Remove = %v, want only %d", got, sidB)
	}
}

// TestColumnarEmptyAndDegenerate covers the maxLen == 0 sweep (no
// expressions), the all-wildcard length-predicate chains, and an empty
// batch.
func TestColumnarEmptyAndDegenerate(t *testing.T) {
	doc := []byte("<a><b><c/></b></a>")

	m := New(Options{})
	if got := colMatchSets(t, m, doc)[0]; len(got) != 0 {
		t.Fatalf("empty matcher: %v", got)
	}

	m2 := New(Options{})
	sids := mustAdd(t, m2, "/*/*/*", "/*/*/*/*", "*")
	got := colMatchSets(t, m2, doc)[0]
	if !got[sids[0]] || got[sids[1]] || !got[sids[2]] {
		t.Fatalf("wildcard chains = %v, want {%d,%d}", got, sids[0], sids[2])
	}

	m2.MatchScanned(nil, guard.Limits{}) // an empty batch
}

// TestColumnarRepeatedTagDocs drills the ambiguous-path branch directly:
// the occurrence-number examples from the paper must hold under the
// columnar kernel (candidates on repeated-tag paths go through scalar
// occurrence determination).
func TestColumnarRepeatedTagDocs(t *testing.T) {
	doc := []byte("<a><b><c><a><b><c/></b></a></c></b></a>")
	for _, v := range allVariants {
		m := New(Options{Variant: v})
		sids := mustAdd(t, m, "a//b/c", "c//b//a", "/a/b/c", "//c//a//c")
		got := colMatchSets(t, m, doc)[0]
		want := map[SID]bool{sids[0]: true, sids[2]: true, sids[3]: true}
		if !setsEqual(got, want) {
			t.Fatalf("%v: columnar = %v, want %v", v, got, want)
		}
	}
}

// TestScannedNeverFreezes: the scan is the only way a served engine reads
// a document — a match, a count and a trace alike — and none of them
// builds the scalar reference's organizations (prefix covers, the
// longest-first order, access-predicate clusters). Options are the
// engine's defaults.
func TestScannedNeverFreezes(t *testing.T) {
	for _, mode := range []predicate.AttrMode{predicate.Inline, predicate.Postponed} {
		xpes := []string{"/a/b/c", "/a/b", "//c[@k>1]", "/a[b]//c"}
		m := New(Options{Variant: PrefixCoverAP, AttrMode: mode})
		mustAdd(t, m, xpes...)
		doc := []byte(`<a><b><c k="2"/></b><b><c/></b></a>`)
		for _, opt := range []ScanDoc{{}, {Count: true}, {Explain: true}} {
			opt.Doc = doc
			d := []ScanDoc{opt}
			m.MatchScanned(d, guard.Limits{})
			if d[0].Err != nil {
				t.Fatal(d[0].Err)
			}
		}
		if m.frozen != 0 || len(m.ordered) != 0 || m.clusters != nil {
			t.Fatalf("mode %d: frozen %d, %d ordered, %d clusters", mode, m.frozen, len(m.ordered), len(m.clusters))
		}
		// The fields are the ones the uncached scalar reference fills.
		ref := New(Options{Variant: PrefixCoverAP, AttrMode: mode, PathCacheBytes: -1})
		mustAdd(t, ref, xpes...)
		if ref.MatchDocument(xmldoc.FromPaths([]string{"a", "b"})); ref.frozen == 0 || len(ref.ordered) == 0 || ref.clusters == nil {
			t.Fatalf("mode %d: the scalar reference did not freeze", mode)
		}
	}
}
