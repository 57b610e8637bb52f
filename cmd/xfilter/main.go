// Command xfilter filters XML documents against a set of XPath
// expressions, printing for each document the expressions it matches.
//
// Expressions come from -e flags and/or an expression file (one per line,
// '#' comments); documents are file arguments or stdin.
//
// Usage:
//
//	xfilter -e '/nitf/body//p' -e '//keyword[@key=storm]' doc1.xml doc2.xml
//	xfilter -f subscriptions.txt < doc.xml
//	xfilter -f subs.txt -attrs postponed -count docs/*.xml
//	xfilter -f subs.txt -workers 4 -count docs/*.xml
//	xfilter -e '/nitf/body//p' -trace doc.xml      # per-predicate match evidence
//
// Every mode runs the served columnar kernel. The paper's expression
// organizations (basic, basic-pc, basic-pc-ap) are compared by the figure
// experiments instead: xfbench -exp fig6a (and fig6b … fig9b).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"predfilter"
)

type exprList []string

func (e *exprList) String() string     { return strings.Join(*e, ", ") }
func (e *exprList) Set(s string) error { *e = append(*e, s); return nil }

func main() {
	var (
		exprs     exprList
		exprFile  = flag.String("f", "", "file with one XPath expression per line")
		attrs     = flag.String("attrs", "inline", "attribute filter evaluation: inline, postponed")
		countOnly = flag.Bool("count", false, "print match counts only")
		allMode   = flag.Bool("all", false, "report the number of match combinations per expression (all-matches mode)")
		timing    = flag.Bool("t", false, "print per-document filter time")
		workers   = flag.Int("workers", 1, "filter documents concurrently with this many workers (ignored with -all)")
		cacheMB   = flag.Int64("cache-mb", 0, "path-signature cache bound in MiB (0 = default 16, negative = disabled)")
		traceDoc  = flag.Bool("trace", false, "explain each expression's match or miss with per-predicate evidence (ignored with -all or -workers)")

		// Resource governance (0 disables each bound). A document exceeding
		// a bound fails with a typed limit error naming the bound.
		maxDepth      = flag.Int("max-depth", 0, "maximum XML nesting depth per document (0 = unlimited)")
		maxPaths      = flag.Int("max-paths", 0, "maximum root-to-leaf paths per document (0 = unlimited)")
		maxTuples     = flag.Int("max-tuples", 0, "maximum total path tuples per document (0 = unlimited)")
		maxDocBytes   = flag.Int64("max-doc-bytes", 0, "maximum document size in bytes (0 = unlimited)")
		maxSteps      = flag.Int64("max-steps", 0, "occurrence-determination step budget per document (0 = unlimited)")
		matchDeadline = flag.Duration("match-deadline", 0, "wall-clock match deadline per document (0 = none)")
	)
	flag.Var(&exprs, "e", "XPath expression (repeatable)")
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `usage: xfilter [flags] [doc.xml ...]

Every mode runs the served columnar kernel. The paper's expression
organizations (basic, basic-pc, basic-pc-ap) are compared by
xfbench -exp fig6a (and fig6b … fig9b).

`)
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := predfilter.Config{}
	switch *attrs {
	case "inline", "":
		cfg.AttributeMode = predfilter.InlineAttributes
	case "postponed":
		cfg.AttributeMode = predfilter.PostponedAttributes
	default:
		fatal(fmt.Errorf("unknown -attrs %q", *attrs))
	}
	switch {
	case *cacheMB < 0:
		cfg.PathCacheBytes = -1
	case *cacheMB > 0:
		cfg.PathCacheBytes = *cacheMB << 20
	}
	cfg.Limits = predfilter.Limits{
		MaxDepth:      *maxDepth,
		MaxPaths:      *maxPaths,
		MaxTuples:     *maxTuples,
		MaxDocBytes:   *maxDocBytes,
		MaxSteps:      *maxSteps,
		MatchDeadline: *matchDeadline,
	}

	all := []string(exprs)
	if *exprFile != "" {
		fromFile, err := readExprFile(*exprFile)
		if err != nil {
			fatal(err)
		}
		all = append(all, fromFile...)
	}
	if len(all) == 0 {
		fatal(fmt.Errorf("no expressions; use -e or -f"))
	}

	eng := predfilter.New(cfg)
	bySID := make(map[predfilter.SID]string, len(all))
	for _, s := range all {
		sid, err := eng.Add(s)
		if err != nil {
			fatal(err)
		}
		bySID[sid] = s
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "xfilter: %d expressions (%d distinct, %d distinct predicates)\n",
		st.Expressions, st.DistinctExpressions, st.DistinctPredicates)

	files := flag.Args()
	if len(files) == 0 {
		files = []string{"-"}
	}

	// With -workers, documents go through the batch pipeline; results come
	// back in input order, so the output is identical to the sequential
	// loop below.
	if *workers > 1 && !*allMode {
		names := make([]string, len(files))
		docs := make([][]byte, len(files))
		for i, name := range files {
			var err error
			if name == "-" {
				docs[i], err = io.ReadAll(os.Stdin)
				name = "<stdin>"
			} else {
				docs[i], err = os.ReadFile(name)
			}
			if err != nil {
				fatal(err)
			}
			names[i] = name
		}
		t0 := time.Now()
		results := eng.MatchBatchContext(context.Background(), docs, *workers)
		took := time.Since(t0)
		for i, r := range results {
			if r.Err != nil {
				fatal(fmt.Errorf("%s: %w", names[i], r.Err))
			}
			fmt.Printf("%s: %d matches", names[i], len(r.SIDs))
			if !*countOnly {
				for _, sid := range r.SIDs {
					fmt.Printf("\n  %s", bySID[sid])
				}
			}
			fmt.Println()
		}
		if *timing {
			fmt.Printf("filtered %d documents in %v (%d workers)\n", len(files), took, *workers)
		}
		return
	}

	for _, name := range files {
		var data []byte
		var err error
		if name == "-" {
			data, err = io.ReadAll(os.Stdin)
			name = "<stdin>"
		} else {
			data, err = os.ReadFile(name)
		}
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		var sids []predfilter.SID
		var counts map[predfilter.SID]int
		var tr *predfilter.MatchTrace
		var err2 error
		switch {
		case *allMode:
			counts, err2 = eng.MatchCountsContext(context.Background(), data)
			for sid := range counts {
				sids = append(sids, sid)
			}
		case *traceDoc:
			sids, tr, err2 = eng.MatchTracedContext(context.Background(), data)
		default:
			sids, err2 = eng.Match(data)
		}
		took := time.Since(t0)
		if err2 != nil {
			fatal(fmt.Errorf("%s: %w", name, err2))
		}
		fmt.Printf("%s: %d matches", name, len(sids))
		if !*countOnly {
			for _, sid := range sids {
				if *allMode {
					fmt.Printf("\n  %s (%d combinations)", bySID[sid], counts[sid])
				} else {
					fmt.Printf("\n  %s", bySID[sid])
				}
			}
		}
		if *timing {
			fmt.Printf("  (%v)", took)
		}
		fmt.Println()
		if tr != nil {
			printTrace(tr)
		}
	}
}

// printTrace renders the per-expression match explanation: which
// predicates hit at which document paths, and where a missed expression's
// chain first came up empty.
func printTrace(tr *predfilter.MatchTrace) {
	fmt.Printf("  trace: %d paths, parse %v, cache %v, predicates %v, occurrence %v\n",
		tr.Paths, time.Duration(tr.ParseNanos), time.Duration(tr.CacheNanos),
		time.Duration(tr.PredMatchNanos), time.Duration(tr.OccurNanos))
	for _, e := range tr.Exprs {
		verdict := "miss"
		if e.Matched {
			verdict = "HIT"
		}
		note := ""
		if e.ViaCover {
			note = " (via covering expression)"
		}
		if e.Nested {
			note = " (nested; evidence summarized)"
		}
		fmt.Printf("  [%-4s] %s%s\n", verdict, e.Expr, note)
		for _, p := range e.Paths {
			fmt.Printf("         %s", p.Path)
			if p.FilteredOut {
				fmt.Printf("  [postponed filter rejected]")
			}
			fmt.Println()
			for _, pe := range p.Predicates {
				mark := "miss"
				if pe.Hit {
					mark = "hit "
				}
				fmt.Printf("           %s %s (%d occurrence pairs)\n", mark, pe.Predicate, pe.TotalPairs)
			}
		}
	}
	if tr.TruncatedExprs {
		fmt.Println("  trace: further expressions not traced (cap reached)")
	}
}

func readExprFile(name string) ([]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xfilter:", err)
	os.Exit(1)
}
