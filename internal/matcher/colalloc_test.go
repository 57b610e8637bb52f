//go:build !race

// See alloc_test.go: AllocsPerRun bounds are asserted only without the
// race detector's instrumentation.

package matcher

import (
	"fmt"
	"strings"
	"testing"

	"predfilter/internal/dtd"
	"predfilter/internal/guard"
	"predfilter/internal/metrics"
	"predfilter/internal/xmlgen"
	"predfilter/internal/xpgen"
)

// TestColumnarBatchAllocs pins the steady-state allocation cost of the
// served batch (MatchScanned): with the pools and the path cache warm, a
// batch allocates one []SID per document that matched something — no
// per-document, per-path or per-word allocations, with metrics recording
// on.
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
			m := New(Options{Variant: v, Metrics: metrics.NewSet()})
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
					batch[i] = ScanDoc{Doc: d}
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
			run() // warm pools, sizing and the cache
			const bound = 2
			if got := testing.AllocsPerRun(50, run); got > bound {
				t.Fatalf("columnar batch allocs = %v, want <= %d", got, bound)
			}
		})
	}
}

// TestEmitAllocsPSD pins a served PSD-shaped match to no allocation per
// document when its result is emitted: the blocks are copied into the
// pooled Emit, and no []SID is built. The same documents returning SIDs
// cost one allocation each, the result slice.
func TestEmitAllocsPSD(t *testing.T) {
	d := dtd.PSD()
	xpes, err := xpgen.Generate(d, xpgen.Config{Count: 2000, MaxLength: 6, Wildcard: 0.2, Descendant: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{})
	for _, x := range xpes {
		if _, err := m.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	docs := xmlgen.New(d, xmlgen.Config{Seed: 2}).GenerateN(8)
	emits := make([]Emit, len(docs))
	batch := make([]ScanDoc, len(docs))
	matches := 0
	run := func(emit bool) func() {
		return func() {
			matches = 0
			for i, doc := range docs {
				batch[i] = ScanDoc{Doc: doc}
				if emit {
					batch[i].Emit = &emits[i]
				}
			}
			m.MatchScanned(batch, guard.Limits{})
			for i := range batch {
				if batch[i].Err != nil {
					t.Fatal(batch[i].Err)
				}
				matches += batch[i].Matches()
			}
		}
	}
	run(true)() // warm the pools, the cache and the emit buffers
	if got := testing.AllocsPerRun(20, run(true)); got > 0 {
		t.Fatalf("emitting %d PSD documents (%d matches) allocates %v times, want 0", len(docs), matches, got)
	}
	if matches < 100*len(docs) {
		t.Fatalf("%d matches over %d documents: not PSD-shaped", matches, len(docs))
	}
	if got := testing.AllocsPerRun(20, run(false)); got != float64(len(docs)) {
		t.Fatalf("returning SIDs for %d PSD documents allocates %v times, want %d", len(docs), got, len(docs))
	}
}
