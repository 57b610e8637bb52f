//go:build !race

// See alloc_test.go: AllocsPerRun bounds are asserted only without the
// race detector's instrumentation.

package matcher

import (
	"fmt"
	"strings"
	"testing"

	"predfilter/internal/guard"
	"predfilter/internal/metrics"
	"predfilter/internal/xmldoc"
)

// TestColumnarBatchAllocs pins the steady-state allocation cost of the
// served batch (MatchScanned): with the pools warm, a batch allocates one
// []SID per document that matched something — no per-document, per-path
// or per-word allocations, with metrics recording on.
func TestColumnarBatchAllocs(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<a>")
	for i := 0; i < 20; i++ {
		sb.WriteString(fmt.Sprintf("<b><c n=\"%d\"/></b><d/>", i))
	}
	sb.WriteString("</a>")
	doc, miss := []byte(sb.String()), []byte("<q><r/></q>")

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
			// Two matching documents, one non-matching: one result slice
			// per matching document.
			batch := make([]ScanDoc, 3)
			run := func() {
				for i, d := range [][]byte{doc, miss, doc} {
					batch[i] = ScanDoc{Src: xmldoc.Source{Bytes: d}}
				}
				m.MatchScanned(batch, guard.Limits{})
				for i := range batch {
					if batch[i].Err != nil {
						t.Fatalf("doc %d: %v", i, batch[i].Err)
					}
				}
				if len(batch[0].SIDs) == 0 || len(batch[1].SIDs) != 0 {
					t.Fatal("unexpected match sets")
				}
			}
			run() // warm pools and sizing
			const bound = 2
			if got := testing.AllocsPerRun(50, run); got > bound {
				t.Fatalf("columnar batch allocs = %v, want <= %d", got, bound)
			}
		})
	}
}
