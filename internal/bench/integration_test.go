package bench

import (
	"testing"

	"predfilter/internal/dtd"
	"predfilter/internal/matcher"
	"predfilter/internal/predicate"
	"predfilter/internal/refmatch"
	"predfilter/internal/xpath"
)

// TestWorkloadScaleOracle cross-validates the predicate engine against
// the reference matcher on real generated workloads — schema-valid
// expressions over schema-valid documents, both DTDs, with and without
// attribute filters. This complements the small-alphabet randomized
// equivalence tests in internal/matcher with realistic tag vocabularies,
// depths and attribute distributions.
func TestWorkloadScaleOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("workload-scale oracle is slow")
	}
	for _, schema := range []*dtd.DTD{dtd.NITF(), dtd.PSD()} {
		for _, filters := range []int{0, 1} {
			cfg := DefaultWorkloadConfig(400)
			cfg.Docs = 6
			cfg.Filters = filters
			w := MustWorkload(schema, cfg)
			docs, err := w.ParseDocs()
			if err != nil {
				t.Fatal(err)
			}
			paths := make([]*xpath.Path, len(w.XPEs))
			for i, s := range w.XPEs {
				paths[i] = xpath.MustParse(s)
			}
			for _, opts := range []matcher.Options{
				{Variant: matcher.PrefixCoverAP, AttrMode: predicate.Inline},
				{Variant: matcher.PrefixCoverAP, AttrMode: predicate.Postponed},
				{Variant: matcher.Basic, AttrMode: predicate.Inline},
			} {
				m := matcher.New(opts)
				sids := make([]matcher.SID, len(w.XPEs))
				for i, s := range w.XPEs {
					sid, err := m.Add(s)
					if err != nil {
						t.Fatalf("%s: Add(%q): %v", schema.Name, s, err)
					}
					sids[i] = sid
				}
				for di, doc := range docs {
					got := make(map[matcher.SID]bool)
					out, _, _ := m.MatchDocument(doc, nil)
					for _, sid := range out {
						got[sid] = true
					}
					for i, p := range paths {
						want := refmatch.Match(p, doc)
						if got[sids[i]] != want {
							t.Fatalf("%s filters=%d doc=%d %+v: %q matched=%v, ref=%v",
								schema.Name, filters, di, opts, w.XPEs[i], got[sids[i]], want)
						}
					}
				}
			}
		}
	}
}

// TestBaselinesWorkloadScaleOracle does the same for YFilter and
// Index-Filter on structural workloads.
func TestBaselinesWorkloadScaleOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("workload-scale oracle is slow")
	}
	for _, schema := range []*dtd.DTD{dtd.NITF(), dtd.PSD()} {
		cfg := DefaultWorkloadConfig(400)
		cfg.Docs = 6
		w := MustWorkload(schema, cfg)
		for _, algo := range []Algorithm{AlgoYFilter, AlgoIndexFilter} {
			r1, err := Run(algo, w)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(AlgoPCAP, w)
			if err != nil {
				t.Fatal(err)
			}
			if r1.MatchedFrac != r2.MatchedFrac {
				t.Errorf("%s/%s: matched fraction %v vs %v", schema.Name, algo, r1.MatchedFrac, r2.MatchedFrac)
			}
		}
	}
}
