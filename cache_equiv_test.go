package predfilter_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"predfilter"
	"predfilter/internal/matcher"
	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
	"predfilter/internal/xpgen"
	"predfilter/workload"
)

// nestedVariant rewrites a plain generated path expression into a
// nested-path-filter form ("/a/b/c" → "/a/b[c]") so the property test also
// covers the value-dependent nested branch of the cache. It returns "" when
// the expression has no safely liftable final step.
func nestedVariant(xpe string) string {
	if strings.ContainsAny(xpe, "[*") {
		return ""
	}
	i := strings.LastIndex(xpe, "/")
	if i <= 0 || xpe[i-1] == '/' || i == len(xpe)-1 {
		return ""
	}
	return xpe[:i] + "[" + xpe[i+1:] + "]"
}

func sortedSIDs(sids []predfilter.SID) []predfilter.SID {
	out := slices.Clone(sids)
	slices.Sort(out)
	return out
}

// churnOps are the registration changes the matcher tells apart (see
// internal/matcher/cache.go): the first two add to the set of distinct
// expressions, the other four change subscription ids only. "add new
// constant" registers an expression no document can match structurally —
// so every cache entry is retained — whose filter puts a constant below all
// others on an attribute live filters already test: the value dictionary
// re-ranks that attribute under the retained entries' programs.
var churnOps = []string{"add new distinct", "add new constant", "add registered", "add unsubscribed", "remove one of several", "remove last"}

// filterOf returns the attribute name of the expression's first filter
// ("" when it has none).
func filterOf(xpe string) string {
	_, rest, ok := strings.Cut(xpe, "[@")
	if !ok {
		return ""
	}
	return rest[:strings.IndexAny(rest, "=!<>]")]
}

// TestCacheEquivalenceRandomized is the DTD-driven model test for the
// served match path: engines on the one kernel — default cache, a tiny
// bound that forces evictions, cache off, and ColumnarOff with the cache on
// (the cache has one kernel, so that is the cached path too) — and the
// incrementally maintained scalar engine must produce exactly the match
// sets of a scalar cache-off engine built fresh from the live
// subscriptions, after every operation of a randomized interleaving of
// churnOps and repeated matching (which serves later documents from
// outcomes and plans cached before the change), through Match, and every
// so often through MatchBatchContext and MatchStream. Match and the stream's
// groups match each path as the scan closes it; the first engine is also
// held to the same sets on the parsed document (MatchParsedContext), and
// the fresh reference and the maintained scalar engine parse first. The reference is rebuilt
// each time because a maintained one shares the append-only history of
// the engines under test and would share a stale entry's mistake. The
// subtests cross both attribute modes, the three organizations of the
// scalar engines, path dedup on and off and the presence of nested-path expressions (which
// keep transcripts unpruned and flush instead of evicting); two thirds of
// the expressions carry one or two attribute filters, over all six
// operators and the existence test, numeric and lexicographic constants,
// some equal to no document value. Since every engine here decides
// filters through the same value dictionary, each result is also held
// against refmatch, which evaluates AttrFilter.Eval on the strings. The CI
// race leg runs this under -race, which also checks the shared cache's synchronization in the
// worker pipeline and the catch-up under concurrent registration.
func TestCacheEquivalenceRandomized(t *testing.T) {
	// The organizations, numbered in the subtest names as 0 basic-pc-ap,
	// 1 basic-pc, 2 basic.
	orgs := []matcher.Variant{matcher.Basic, matcher.PrefixCover, matcher.PrefixCoverAP}
	schemas := []workload.Schema{workload.NITF(), workload.PSD()}
	seen := make(map[string]int) // churn op → times exercised
	for trial := 0; trial < 24; trial++ {
		schema := schemas[trial%2]
		base := predfilter.Config{AttributeMode: predfilter.AttributeMode(trial / 3 % 2)}
		org, noDedup := orgs[trial%3], trial/6%2 == 1
		nested := trial/12 == 1
		t.Run(fmt.Sprintf("%s/org%d-attr%d-nodedup%v-nested%v", schema.Name(), int(matcher.PrefixCoverAP-org), base.AttributeMode, noDedup, nested), func(t *testing.T) {
			seed := int64(1000*trial + 17)
			rng := rand.New(rand.NewSource(seed))
			docs := workload.Documents(schema, 6, workload.DocumentConfig{MaxLevels: 6, Seed: seed})
			var xpes []string
			for filters := 0; filters < 3; filters++ { // none, one, two (on one step or two)
				part, err := workload.Expressions(schema, 10, workload.ExpressionConfig{
					MaxLength:  6,
					Wildcard:   0.2,
					Descendant: 0.2,
					Filters:    filters,
					Seed:       seed + int64(filters),
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range part {
					xpes = append(xpes, xpgen.VaryFilters(rng, x))
				}
			}
			rng.Shuffle(len(xpes), func(i, j int) { xpes[i], xpes[j] = xpes[j], xpes[i] })
			if nested {
				for _, x := range xpes[:len(xpes):len(xpes)] {
					if nv := nestedVariant(x); nv != "" && len(xpes) < 40 {
						xpes = append(xpes, nv)
					}
				}
			}

			with := func(edit func(*predfilter.Config)) *predfilter.Engine {
				cfg := base
				edit(&cfg)
				return predfilter.NewOrganized(cfg, org, noDedup)
			}
			scalar := func(c *predfilter.Config) { c.Columnar = predfilter.ColumnarOff; c.PathCacheBytes = -1 }
			engines := []*predfilter.Engine{
				with(func(c *predfilter.Config) {}),                                      // default cache
				with(func(c *predfilter.Config) { c.PathCacheBytes = 8 << 10 }),          // tiny: constant eviction pressure
				with(func(c *predfilter.Config) { c.PathCacheBytes = -1 }),               // the kernel uncached
				with(func(c *predfilter.Config) { c.Columnar = predfilter.ColumnarOff }), // cached: still the one kernel
				with(scalar), // the scalar loop, maintained through the same history
			}
			type sub struct {
				sid predfilter.SID
				xpe string
			}
			var live []sub
			subscribers := make(map[string]int) // expression → live SIDs; 0 once unsubscribed
			add := func(x string) {
				var want predfilter.SID
				for i, eng := range engines {
					sid, err := eng.Add(x)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						want = sid
					} else if sid != want {
						t.Fatalf("sid drift: engine %d assigned %d, want %d", i, sid, want)
					}
				}
				live = append(live, sub{want, x})
				subscribers[x]++
			}
			// reference is the model: a scalar cache-off engine that has
			// seen nothing but the live subscriptions.
			reference := func() *predfilter.Engine {
				ref := with(scalar)
				for _, s := range live {
					if err := ref.AddWithSID(s.xpe, s.sid); err != nil {
						t.Fatal(err)
					}
				}
				return ref
			}
			parsed := make([]*xmldoc.Document, len(docs))
			materialized := make([]*predfilter.Document, len(docs))
			for i, d := range docs {
				var err error
				if parsed[i], err = xmldoc.Parse(d); err != nil {
					t.Fatal(err)
				}
				if materialized[i], err = predfilter.ParseDocument(d); err != nil {
					t.Fatal(err)
				}
			}
			check := func(step int, pipeline bool) {
				ref := reference()
				for _, d := range []int{step % len(docs), rng.Intn(len(docs))} {
					doc := docs[d]
					want, err := ref.Match(doc)
					if err != nil {
						t.Fatal(err)
					}
					ws := sortedSIDs(want)
					var oracle []predfilter.SID
					for _, s := range live {
						if refmatch.Match(xpath.MustParse(s.xpe), parsed[d]) {
							oracle = append(oracle, s.sid)
						}
					}
					if !slices.Equal(sortedSIDs(oracle), ws) {
						t.Fatalf("step %d doc %d: fresh reference %v != refmatch %v", step, d, ws, sortedSIDs(oracle))
					}
					for i, eng := range engines {
						got, err := eng.Match(doc)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(sortedSIDs(got), ws) {
							t.Fatalf("step %d engine %d doc %d: match %v != fresh reference %v", step, i, d, sortedSIDs(got), ws)
						}
					}
					// The materialized column: parsed first, then matched, on
					// the engine whose Match scans.
					mat, err := engines[0].MatchParsedContext(context.Background(), materialized[d])
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(sortedSIDs(mat), ws) {
						t.Fatalf("step %d doc %d: materialized %v != fresh reference %v", step, d, sortedSIDs(mat), ws)
					}
				}
				if !pipeline {
					return
				}
				want := ref.MatchBatchContext(context.Background(), docs, 3)
				for i, eng := range engines {
					in := make(chan []byte, len(docs))
					for _, d := range docs {
						in <- d
					}
					close(in)
					j := 0
					for r := range eng.MatchStream(context.Background(), in, 3) {
						if r.Err != nil || want[j].Err != nil {
							t.Fatalf("stream errs %v / %v", r.Err, want[j].Err)
						}
						if !slices.Equal(sortedSIDs(r.SIDs), sortedSIDs(want[j].SIDs)) {
							t.Fatalf("step %d engine %d doc %d: stream %v != fresh reference batch %v",
								step, i, j, sortedSIDs(r.SIDs), sortedSIDs(want[j].SIDs))
						}
						j++
					}
					if j != len(docs) {
						t.Fatalf("stream returned %d results, want %d", j, len(docs))
					}
				}
			}

			next, consts := 0, 0
			for step := 0; step < 40; step++ {
				var unsubscribed []string
				for x, n := range subscribers {
					if n == 0 {
						unsubscribed = append(unsubscribed, x)
					}
				}
				slices.Sort(unsubscribed)
				var filtered []string // attributes live filters test
				for _, s := range live {
					if name := filterOf(s.xpe); name != "" {
						filtered = append(filtered, name)
					}
				}
				op := ""
				switch r := rng.Intn(13); {
				case r < 3 && next < len(xpes):
					op = "add new distinct"
					add(xpes[next])
					next++
				case r == 12 && len(filtered) > 0:
					op = "add new constant"
					consts++ // "-1", "-2", ...: below every schema value as a number and as a string
					before := engines[0].Stats().PathCache
					add(fmt.Sprintf("/no-such-tag[@%s>=-%d]", filtered[rng.Intn(len(filtered))], consts))
					check(step, false)
					if after := engines[0].Stats().PathCache; !nested && (after.Evictions != before.Evictions || after.Invalidations != before.Invalidations) {
						t.Fatalf("step %d: an unmatchable expression cost the cache entries: before %+v after %+v", step, before, after)
					}
				case r == 3 && len(live) > 0:
					op = "add registered"
					add(live[rng.Intn(len(live))].xpe)
				case r == 4 && len(unsubscribed) > 0:
					op = "add unsubscribed"
					add(unsubscribed[rng.Intn(len(unsubscribed))])
				case r < 8 && len(live) > 0:
					i := rng.Intn(len(live))
					s := live[i]
					op = "remove one of several"
					if subscribers[s.xpe] == 1 {
						op = "remove last"
					}
					for _, eng := range engines {
						if err := eng.Remove(s.sid); err != nil {
							t.Fatal(err)
						}
					}
					live = slices.Delete(live, i, i+1)
					subscribers[s.xpe]--
				}
				if op != "" {
					seen[op]++
				}
				// Every step matches two documents, so those after a change
				// ride what was cached before it.
				check(step, step%20 == 19)
			}

			// The default-cache engine must actually have been serving
			// hits, or the test proved nothing about the cached path.
			if pc := engines[0].Stats().PathCache; !pc.Enabled || pc.Hits == 0 {
				t.Fatalf("default cache saw no hits: %+v", pc)
			}
			if pc := engines[1].Stats().PathCache; pc.Evictions == 0 {
				t.Fatalf("tiny cache saw no evictions: %+v", pc)
			}
			// Every engine but the scalar one must have run its documents —
			// single publishes included — through the columnar kernel, or
			// the property was vacuous.
			for i, eng := range engines[:len(engines)-1] {
				st := eng.Stats()
				if st.Columnar.Docs != st.Documents || st.Documents == 0 {
					t.Fatalf("engine %d: %d of %d documents on the columnar kernel", i, st.Columnar.Docs, st.Documents)
				}
			}
			if st := engines[len(engines)-1].Stats(); st.Columnar.Docs != 0 {
				t.Fatalf("the scalar engine ran %d documents on the columnar kernel", st.Columnar.Docs)
			}
		})
	}
	for _, op := range churnOps {
		if seen[op] == 0 {
			t.Errorf("no interleaving exercised %q", op)
		}
	}
}
