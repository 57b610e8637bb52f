//go:build !race

// The race detector's instrumentation changes allocation behavior, so the
// AllocsPerRun assertions only run in the regular test legs.

package xmldoc

import (
	"fmt"
	"strings"
	"testing"

	"predfilter/internal/guard"
)

// TestParseScanAllocs pins the steady-state allocation cost of the
// zero-copy parse path. After a warm-up parse (which sizes the pooled
// scratch and interns the vocabulary), a parse allocates only the
// finalized Document: the value string, the attr/tuple/path arrays and
// the Document header — a constant, regardless of document size. The
// bound is deliberately loose against pool churn but far below both the
// ~40-element document's size and the >1000 allocs/doc the encoding/xml
// path costs, so any per-element or per-token regression trips it.
func TestParseScanAllocs(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, `<sec id="s%d"><p class="x">text &amp; more</p><p>t</p></sec>`, i)
	}
	sb.WriteString("</doc>")
	data := []byte(sb.String())

	// Warm up pool, dictionary, and scratch capacities.
	for i := 0; i < 3; i++ {
		if _, err := ParseLimitsMode(data, guard.Limits{}, ModeAuto); err != nil {
			t.Fatal(err)
		}
	}
	const bound = 8
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseLimitsMode(data, guard.Limits{}, ModeAuto); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("scanner parse allocates %.1f per document, want <= %d", allocs, bound)
	}
}

// TestParseScanAllocsReader is the reader-mode variant: the retained input
// buffer and read scratch are pooled too, so a stream parse stays within a
// small constant plus the one reader wrapper the caller provides.
func TestParseScanAllocsReader(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, `<sec id="s%d"><p>text</p></sec>`, i)
	}
	sb.WriteString("</doc>")
	data := sb.String()

	for i := 0; i < 3; i++ {
		if _, err := parseReader(strings.NewReader(data), guard.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	const bound = 12
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := parseReader(strings.NewReader(data), guard.Limits{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("reader-mode scanner parse allocates %.1f per document, want <= %d", allocs, bound)
	}
}
