// Traced matching: ask the engine to explain, per expression and per
// document path, which chain predicates hit, which came up empty, and
// what each pipeline stage cost — the same explanation xfserve serves on
// POST /publish?trace=1 and xfilter prints with -trace.
//
//	go run ./examples/traced
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"predfilter"
)

const doc = `
<feed>
  <alert level="high"><region>west</region></alert>
  <trade sym="XAU"><qty>10</qty></trade>
</feed>`

func main() {
	eng := predfilter.New(predfilter.Config{})

	subscriptions := []string{
		`/feed/alert[@level="high"]`, // hits: both predicates produce pairs
		`/feed/alert[@level="low"]`,  // misses at the attribute predicate
		`/feed/crash`,                // misses structurally
		`//qty`,                      // hits on the trade path
	}
	for _, s := range subscriptions {
		if _, err := eng.Add(s); err != nil {
			log.Fatal(err)
		}
	}

	sids, tr, err := eng.MatchTracedContext(context.Background(), []byte(doc))
	if err != nil {
		log.Fatal(err)
	}

	// The match result is the authoritative fast-path answer; the trace
	// is the slow explanation pass laid over it.
	fmt.Printf("matched %d of %d subscriptions over %d document paths\n",
		len(sids), len(subscriptions), tr.Paths)
	fmt.Printf("stage costs: parse %v, match %v (explanation itself: %v)\n\n",
		time.Duration(tr.ParseNanos), time.Duration(tr.TotalNanos), time.Duration(tr.TraceNanos))

	for _, e := range tr.Exprs {
		verdict := "miss"
		if e.Matched {
			verdict = "HIT"
		}
		fmt.Printf("[%-4s] %s\n", verdict, e.Expr)
		if len(e.Paths) == 0 {
			fmt.Println("       no path produced a single predicate hit")
		}
		for _, p := range e.Paths {
			fmt.Printf("       %s  (chain depth %d, %d search steps)\n",
				p.Path, p.MaxDepth, p.Steps)
			for _, pe := range p.Predicates {
				mark := "miss"
				if pe.Hit {
					mark = "hit "
				}
				fmt.Printf("         %s %s  %d occurrence pair(s)\n",
					mark, pe.Predicate, pe.TotalPairs)
			}
		}
	}
}
