package workload

import (
	"bytes"
	"strings"
)

// Pathological document generators for the chaos/fault-injection suite.
// Each targets one resource axis of the pipeline: nesting depth (the
// parser's element stack), root-to-leaf path count (the decomposition's
// memory), and occurrence-pair blowup (the exponential enumeration of
// nested-path recombination). All three are tiny on the wire — the point
// is that their cost is wildly disproportionate to their size, which is
// exactly what resource governance must catch.

// DepthBomb returns a well-formed document nesting a single element chain
// depth levels deep: <d><d>...</d></d>. It decomposes into one path of
// depth tuples, so both MaxDepth and MaxTuples catch it.
func DepthBomb(depth int) []byte {
	var b bytes.Buffer
	b.Grow(7 * depth)
	for i := 0; i < depth; i++ {
		b.WriteString("<d>")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</d>")
	}
	return b.Bytes()
}

// PathBomb returns a shallow document with the given number of leaf
// children: <r><p/><p/>...</r>. Every leaf is one root-to-leaf path, so
// the decomposition materializes paths publications from a document whose
// depth is only 2.
func PathBomb(paths int) []byte {
	var b bytes.Buffer
	b.Grow(4*paths + 8)
	b.WriteString("<r>")
	for i := 0; i < paths; i++ {
		b.WriteString("<p/>")
	}
	b.WriteString("</r>")
	return b.Bytes()
}

// OccurrenceBomb returns a document and an expression whose matching
// visits ~steps·depth²/2 occurrence pairs. The document is a single chain
// of depth repetitions of one tag, so the descendant self-pair predicate
// d(p_a, p_a) yields every (i, j), i < j ≤ depth, as an occurrence pair
// (~depth²/2 of them) at every level of a chain. The expression chains
// steps descendant steps of that tag under a trailing [a] filter, which
// makes it a nested path: recombination runs occurrence determination
// forward and backward over its sub-expressions' chains, each pair
// visited at most once — quadratic pairs per level, not an exponential
// walk. With steps > depth no combination exists. Size it to the limit a
// test must trip: depth = steps = 200 exceeds a 1<<20 step budget, and
// depth 800 runs well past a 100 ms deadline.
func OccurrenceBomb(depth, steps int) (doc []byte, expr string) {
	var b bytes.Buffer
	b.Grow(7 * depth)
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	return b.Bytes(), strings.Repeat("//a", steps) + "[a]"
}
