//go:build !race

// The race detector's instrumentation changes allocation behavior, so the
// AllocsPerRun assertions only run in the regular test legs.

package matcher

import (
	"fmt"
	"strings"
	"testing"

	"predfilter/internal/guard"
	"predfilter/internal/metrics"
	"predfilter/internal/xmldoc"
)

// TestMatchDocumentCacheHitAllocs pins the steady-state allocation cost of
// the cache-hit path: once the document's path signatures are resident,
// MatchDocument performs zero per-path heap allocations — the only
// allocation left is the caller's result slice, and none at all when
// nothing matches. The document carries many paths so any per-path
// allocation would blow well past the bounds.
func TestMatchDocumentCacheHitAllocs(t *testing.T) {
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

	for _, v := range []Variant{Basic, PrefixCover, PrefixCoverAP} {
		for _, tc := range []struct {
			name  string
			xpes  []string
			bound float64 // allowed allocs per MatchDocument call
		}{
			// One allocation: the returned []SID.
			{"matching", []string{"/a/b/c", "//d", "/a/*", "//b"}, 1},
			// Nothing matches, so the result slice stays nil: zero allocs.
			{"non-matching", []string{"/a/x", "//y/z", "/q"}, 0},
		} {
			t.Run(fmt.Sprintf("%v/%s", v, tc.name), func(t *testing.T) {
				// Metrics are always on in the engine, so the allocation
				// bounds are asserted with recording enabled: observing a
				// document must not add a single allocation (the
				// zero-allocation contract of internal/metrics).
				m := New(Options{Variant: v, Metrics: metrics.NewSet()})
				for _, x := range tc.xpes {
					if _, err := m.Add(x); err != nil {
						t.Fatal(err)
					}
				}
				// Warm up: freeze, size the scratch buffers, fill the cache.
				m.MatchDocument(doc)
				if st, ok := m.cacheStats(); !ok || st.Misses == 0 {
					t.Fatalf("cache not active after warmup: %+v ok=%v", st, ok)
				}
				allocs := testing.AllocsPerRun(50, func() { m.MatchDocument(doc) })
				if allocs > tc.bound {
					t.Fatalf("MatchDocument allocates %.1f per call on cache hits, want <= %.0f", allocs, tc.bound)
				}
				if st, _ := m.cacheStats(); st.Hits == 0 {
					t.Fatalf("no cache hits recorded: %+v", st)
				}
			})
		}
	}
}

// TestMatchDocumentPlanHitAllocs is the same guard for value-dependent
// work: on a one-filter-per-expression set, a cache-hit document resolves
// its attribute values (numeric and non-numeric, against numeric and
// non-numeric constants alike), runs each entry's program, and still
// allocates only the result slice — nothing per value, per test or per
// unit.
func TestMatchDocumentPlanHitAllocs(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<a>")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, `<b n="%d" s="v%d"><c n="%d"/></b><d s="v%d"/>`, i%4, i%4, i%3, i%5)
	}
	sb.WriteString("</a>")
	doc, err := xmldoc.Parse([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var xpes []string
	for i := 0; i < 8; i++ {
		xpes = append(xpes,
			fmt.Sprintf("/a/b[@n=%d]/c", i), fmt.Sprintf("//c[@n>=%d]", i),
			fmt.Sprintf("/a/b[@s=v%d]", i), fmt.Sprintf("//d[@s!=v%d]", i))
	}
	xpes = append(xpes, "//d[@s>=3]", "//c[@n<k]") // each attribute compared both ways
	// Inline mode, the default: Postponed verification re-indexes the
	// path's tuples by tag (buildByTag), which allocates per path.
	m := New(Options{Metrics: metrics.NewSet()})
	mustAdd(t, m, xpes...)
	if out, _, _ := m.MatchDocumentColumnar(doc, nil); len(out) < 8 { // warm-up
		t.Fatalf("only %d of %d filter expressions match", len(out), len(xpes))
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := m.MatchDocumentColumnar(doc, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("cache-hit document with live plan allocates %.1f per call, want <= 1", allocs)
	}
	if st, _ := m.cacheStats(); st.Hits == 0 {
		t.Fatalf("no cache hits recorded: %+v", st)
	}
}

// TestMatchScannedCacheHitAllocs holds the served entry, which matches each
// path inside the scan as its leaf closes, to the bounds above with the
// parse included: once the vocabulary is interned and the pools are warm, a
// cache-hit document allocates its result slice and nothing else — no
// Document, and nothing per element, attribute value or path.
func TestMatchScannedCacheHitAllocs(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<a>")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, `<b k="v%d"><c n="%d"/></b><d s="x&amp;y"/>`, i%3, i)
	}
	sb.WriteString("</a>")
	src := []byte(sb.String())
	for _, tc := range []struct {
		name  string
		xpes  []string
		bound float64
	}{
		{"matching", []string{"/a/b/c", "//d", "/a/b[@k=v1]/c", "//c[@n>=7]"}, 1},
		{"non-matching", []string{"/a/x", "//y/z", "/a/b[@k=w]", "//c[@n>99]"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Options{Metrics: metrics.NewSet()})
			mustAdd(t, m, tc.xpes...)
			docs := make([]ScanDoc, 1)
			scan := func() {
				docs[0] = ScanDoc{Doc: src}
				m.MatchScanned(docs, guard.Limits{})
				if docs[0].Err != nil {
					t.Fatal(docs[0].Err)
				}
			}
			scan() // warm-up: catch up, size the pools, fill the cache
			if st, _ := m.cacheStats(); st.Misses == 0 {
				t.Fatalf("cache not filled by the warm-up: %+v", st)
			}
			allocs := testing.AllocsPerRun(50, scan)
			if allocs > tc.bound {
				t.Fatalf("MatchScanned allocates %.1f per cache-hit document, want <= %.0f", allocs, tc.bound)
			}
			if (len(docs[0].SIDs) > 0) != (tc.bound > 0) {
				t.Fatalf("matched %v", docs[0].SIDs)
			}
		})
	}
}
