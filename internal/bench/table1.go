package bench

import (
	"fmt"
	"strings"

	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// Table1Index returns a predicate index loaded with the Table 1
// expressions (a//b/c and c//b//a); used by micro-benchmarks.
func Table1Index() *predindex.Index {
	ix := predindex.New()
	for _, s := range []string{"a//b/c", "c//b//a"} {
		for _, p := range predicate.MustEncode(xpath.MustParse(s), predicate.Inline).Preds {
			ix.Insert(p)
		}
	}
	return ix
}

// Table1Text renders Table 1 of the paper: the per-predicate matching
// results of the expressions a//b/c and c//b//a over the document path
// (a, b, c, a, b, c), annotated with occurrence numbers.
func Table1Text() string {
	var b strings.Builder
	ix := predindex.New()
	type row struct {
		xpe  string
		pids []predindex.PID
	}
	var rows []row
	for _, s := range []string{"a//b/c", "c//b//a"} {
		enc := predicate.MustEncode(xpath.MustParse(s), predicate.Inline)
		pids := make([]predindex.PID, len(enc.Preds))
		for i, p := range enc.Preds {
			pids[i] = ix.Insert(p)
		}
		rows = append(rows, row{xpe: s, pids: pids})
	}
	doc := xmldoc.FromPaths([]string{"a", "b", "c", "a", "b", "c"})
	res := predindex.NewResults(ix.Len())
	res.Reset(ix.Len())
	ix.MatchPath(&doc.Paths[0], res, true)

	fmt.Fprintf(&b, "document path: (a^1, b^1, c^1, a^2, b^2, c^2)\n")
	fmt.Fprintf(&b, "%-10s %-24s %s\n", "XPE", "Predicate", "Matching results (occurrence pairs)")
	for _, r := range rows {
		for i, pid := range r.pids {
			name := ""
			if i == 0 {
				name = r.xpe
			}
			var pairs []string
			for _, pr := range res.Get(pid) {
				pairs = append(pairs, fmt.Sprintf("(%d,%d)", pr.A, pr.B))
			}
			fmt.Fprintf(&b, "%-10s %-24s %s\n", name, ix.Pred(pid).String(), strings.Join(pairs, ", "))
		}
	}
	return b.String()
}
