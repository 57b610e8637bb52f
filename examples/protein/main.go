// Protein: annotation routing over PSD-style protein records — the
// high-match regime where the predicate-based engine shines. The example
// registers the same expression set in the served engine (the columnar
// kernel over the path cache), in the paper's scalar reference loop
// (basic-pc-ap, uncached) and in the served engine with postponed
// attribute filters, checks that all three agree, and compares their
// filter times on one generated record stream. The paper's organizations
// (basic, basic-pc, basic-pc-ap) are compared by xfbench -exp fig6b.
//
//	go run ./examples/protein
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"predfilter"
	"predfilter/workload"
)

func main() {
	psd := workload.PSD()
	exprs, err := workload.Expressions(psd, 8000, workload.ExpressionConfig{
		Wildcard: 0.2, Descendant: 0.2, Distinct: true, Filters: 1, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	docs := workload.Documents(psd, 40, workload.DocumentConfig{Seed: 11})

	fmt.Printf("protein: %d expressions over %d records\n\n", len(exprs), len(docs))

	configs := []struct {
		name string
		cfg  predfilter.Config
	}{
		{"served / inline", predfilter.Config{}},
		{"scalar reference / inline", predfilter.Config{Columnar: predfilter.ColumnarOff, PathCacheBytes: -1}},
		{"served / postponed", predfilter.Config{AttributeMode: predfilter.PostponedAttributes}},
	}
	var firstMatches int
	for _, c := range configs {
		eng := predfilter.New(c.cfg)
		if _, err := eng.AddAll(exprs); err != nil {
			log.Fatal(err)
		}
		var matches int
		t0 := time.Now()
		for _, d := range docs {
			sids, err := eng.MatchContext(context.Background(), d)
			if err != nil {
				log.Fatal(err)
			}
			matches += len(sids)
		}
		took := time.Since(t0)
		if firstMatches == 0 {
			firstMatches = matches
		} else if matches != firstMatches {
			log.Fatalf("%s disagreed: %d matches vs %d", c.name, matches, firstMatches)
		}
		st := eng.Stats()
		fmt.Printf("%-26s %8v/record  %d notifications  (%d distinct predicates)\n",
			c.name, (took / time.Duration(len(docs))).Round(time.Microsecond), matches, st.DistinctPredicates)
	}
	fmt.Printf("\nall configurations agree on %d notifications (%.0f%% of expressions match per record)\n",
		firstMatches, 100*float64(firstMatches)/float64(len(exprs)*len(docs)))
}
