//go:build !race

// See alloc_test.go: AllocsPerRun bounds are asserted only without the
// race detector's instrumentation.

package matcher

import (
	"fmt"
	"strings"
	"testing"

	"predfilter/internal/metrics"
	"predfilter/internal/xmldoc"
)

// TestColumnarBatchAllocs pins the steady-state allocation cost of
// columnar batch matching: with the pooled columnar scratch warm, one
// MatchDocumentsColumnar call allocates only the three result-vector
// headers plus one []SID per document that matched something — no
// per-path or per-word allocations, with metrics recording on.
func TestColumnarBatchAllocs(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<a>")
	for i := 0; i < 20; i++ {
		sb.WriteString(fmt.Sprintf("<b><c n=\"%d\"/></b><d/>", i))
	}
	sb.WriteString("</a>")
	doc, err := xmldoc.Parse([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	miss, err := xmldoc.Parse([]byte("<q><r/></q>"))
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range []Variant{Basic, PrefixCover, PrefixCoverAP} {
		t.Run(v.String(), func(t *testing.T) {
			// Cache off: the bound must hold on the pure columnar path,
			// not be rescued by signature hits.
			m := New(Options{Variant: v, PathCacheBytes: -1, Metrics: metrics.NewSet()})
			for _, x := range []string{"/a/b/c", "//d", "/a/*", "//b", "/a/x", "//y/z"} {
				if _, err := m.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			// Two matching documents, one non-matching: expected allocs are
			// the outs/bds/errs headers (3) plus one result slice per
			// matching document (2).
			docs := []*xmldoc.Document{doc, miss, doc}
			m.MatchDocumentsColumnar(docs, nil) // warm pools and sizing
			const bound = 5
			got := testing.AllocsPerRun(50, func() {
				outs, _, errs := m.MatchDocumentsColumnar(docs, nil)
				for i := range docs {
					if errs[i] != nil {
						t.Fatalf("doc %d: %v", i, errs[i])
					}
				}
				if len(outs[0]) == 0 || len(outs[1]) != 0 {
					t.Fatal("unexpected match sets")
				}
			})
			if got > bound {
				t.Fatalf("columnar batch allocs = %v, want <= %d", got, bound)
			}
		})
	}
}
