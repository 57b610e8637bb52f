package predfilter_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"predfilter"
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

// TestCacheEquivalenceRandomized is the DTD-driven property test for the
// served match path: engines on the one kernel — default cache, a tiny
// bound that forces evictions, cache off, and ColumnarOff with the cache on
// (the cache has one kernel, so that is the cached path too) — must
// produce exactly the match sets of the scalar cache-off reference, across
// randomized interleavings of Add, Remove (both invalidate the cache, and
// rebuild live plans against new unit columns) and repeated matching
// (which serves later documents from cached outcomes and plans), through
// Match, MatchBatch and MatchStream. The subtests cross both attribute
// modes with the three organizations; containment covering and the
// presence of nested-path expressions (which keep transcripts unpruned)
// alternate across them. The CI race leg runs this under -race, which also
// checks the shared cache's synchronization in the worker pipeline and the
// columnar index's freeze-generation rebuilds under concurrent
// registration.
func TestCacheEquivalenceRandomized(t *testing.T) {
	orgs := []predfilter.Organization{predfilter.Basic, predfilter.PrefixCover, predfilter.PrefixCoverAP}
	for si, schema := range []workload.Schema{workload.NITF(), workload.PSD()} {
		for trial := 0; trial < 6; trial++ {
			base := predfilter.Config{
				Organization:        orgs[trial%3],
				AttributeMode:       predfilter.AttributeMode(trial / 3),
				ContainmentCovering: (trial+si)%2 == 1,
			}
			nested := (trial/3+trial+si)%2 == 0
			t.Run(fmt.Sprintf("%s/org%d-attr%d-cc%v-nested%v", schema.Name(), base.Organization, base.AttributeMode, base.ContainmentCovering, nested), func(t *testing.T) {
				seed := int64(1000*trial + 17)
				rng := rand.New(rand.NewSource(seed))
				docs := workload.Documents(schema, 6, workload.DocumentConfig{MaxLevels: 6, Seed: seed})
				var xpes []string
				for filters := 0; filters < 2; filters++ { // half carry an attribute filter
					part, err := workload.Expressions(schema, 15, workload.ExpressionConfig{
						MaxLength:  6,
						Wildcard:   0.2,
						Descendant: 0.2,
						Filters:    filters,
						Seed:       seed + int64(filters),
					})
					if err != nil {
						t.Fatal(err)
					}
					xpes = append(xpes, part...)
				}
				if nested {
					for _, x := range xpes {
						if nv := nestedVariant(x); nv != "" {
							xpes = append(xpes, nv)
							if len(xpes) >= 40 {
								break
							}
						}
					}
				}

				with := func(edit func(*predfilter.Config)) *predfilter.Engine {
					cfg := base
					edit(&cfg)
					return predfilter.New(cfg)
				}
				engines := []*predfilter.Engine{
					with(func(c *predfilter.Config) {}),                             // default cache
					with(func(c *predfilter.Config) { c.PathCacheBytes = 8 << 10 }), // tiny: constant eviction pressure
					with(func(c *predfilter.Config) { c.PathCacheBytes = 8 << 10; c.StreamBatch = 4 }),
					with(func(c *predfilter.Config) { c.PathCacheBytes = -1 }),                                      // the kernel uncached
					with(func(c *predfilter.Config) { c.Columnar = predfilter.ColumnarOff }),                        // cached: still the one kernel
					with(func(c *predfilter.Config) { c.Columnar = predfilter.ColumnarOff; c.PathCacheBytes = -1 }), // scalar reference
				}
				add := func(x string) predfilter.SID {
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
					return want
				}
				remove := func(sid predfilter.SID) {
					for _, eng := range engines {
						if err := eng.Remove(sid); err != nil {
							t.Fatal(err)
						}
					}
				}
				compareDoc := func(doc []byte, step int) {
					want, err := engines[len(engines)-1].Match(doc)
					if err != nil {
						t.Fatal(err)
					}
					ws := sortedSIDs(want)
					for i, eng := range engines[:len(engines)-1] {
						got, err := eng.Match(doc)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(sortedSIDs(got), ws) {
							t.Fatalf("step %d engine %d: cached match %v != uncached %v", step, i, sortedSIDs(got), ws)
						}
					}
				}

				var live []predfilter.SID
				next := 0
				for step := 0; step < 60; step++ {
					switch op := rng.Intn(10); {
					case op < 3 && next < len(xpes): // add
						live = append(live, add(xpes[next]))
						next++
					case op < 5 && len(live) > 0: // remove
						i := rng.Intn(len(live))
						remove(live[i])
						live = append(live[:i], live[i+1:]...)
					default: // match (repeats hit the cache)
						compareDoc(docs[rng.Intn(len(docs))], step)
					}
				}

				// Batch and stream through the worker pipeline, twice so the
				// second pass is all cache hits on the shared cache.
				for pass := 0; pass < 2; pass++ {
					ref := engines[len(engines)-1].MatchBatch(docs, 3)
					for i, eng := range engines[:len(engines)-1] {
						in := make(chan []byte, len(docs))
						for _, d := range docs {
							in <- d
						}
						close(in)
						j := 0
						for r := range eng.MatchStream(context.Background(), in, 3) {
							if r.Err != nil || ref[j].Err != nil {
								t.Fatalf("stream errs %v / %v", r.Err, ref[j].Err)
							}
							if !slices.Equal(sortedSIDs(r.SIDs), sortedSIDs(ref[j].SIDs)) {
								t.Fatalf("pass %d engine %d doc %d: stream %v != batch ref %v",
									pass, i, j, sortedSIDs(r.SIDs), sortedSIDs(ref[j].SIDs))
							}
							j++
						}
						if j != len(docs) {
							t.Fatalf("stream returned %d results, want %d", j, len(docs))
						}
					}
				}

				// The default-cache engine must actually have been serving
				// hits, or the test proved nothing about the cached path.
				if pc := engines[0].Stats().PathCache; !pc.Enabled || pc.Hits == 0 {
					t.Fatalf("default cache saw no hits: %+v", pc)
				}
				if pc := engines[1].Stats().PathCache; pc.Evictions == 0 {
					t.Fatalf("tiny cache saw no evictions: %+v", pc)
				}
				// Every engine but the reference must have run its documents —
				// single publishes included — through the columnar kernel, or
				// the property was vacuous.
				for i, eng := range engines[:len(engines)-1] {
					st := eng.Stats()
					if st.Columnar.Docs != st.Documents || st.Documents == 0 {
						t.Fatalf("engine %d: %d of %d documents on the columnar kernel", i, st.Columnar.Docs, st.Documents)
					}
				}
				if st := engines[len(engines)-1].Stats(); st.Columnar.Docs != 0 {
					t.Fatalf("the scalar reference ran %d documents on the columnar kernel", st.Columnar.Docs)
				}
			})
		}
	}
}
