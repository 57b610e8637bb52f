package xpath

import (
	"math"
	"strconv"
	"strings"
)

// numKind classifies a filter constant.
type numKind uint8

const (
	unclassified numKind = iota // literal-built filter: Eval classifies per call
	numeric
	notNumeric
)

func classify(value string) (numKind, uint64) {
	if fn, err := strconv.ParseFloat(value, 64); err == nil {
		return numeric, math.Float64bits(fn)
	}
	return notNumeric, 0
}

// Classified returns f with its constant parsed once, so Eval neither
// re-parses it nor — for a non-numeric constant, where the failed parse
// allocates its error — allocates per evaluation. Engines call it when an
// expression is registered; Name, Op and Value are unchanged.
func (f AttrFilter) Classified() AttrFilter {
	if f.Op != AttrExists {
		f.kind, f.num = classify(f.Value)
	}
	return f
}

// Eval reports whether an attribute value satisfies the filter.
// Comparison is numeric when both the filter value and the attribute
// value parse as floating point numbers, and lexicographic otherwise;
// AttrExists is satisfied by any present value. This is the single source
// of truth for attribute comparison across all engines.
func (f AttrFilter) Eval(value string) bool {
	if f.Op == AttrExists {
		return true
	}
	kind, num := f.kind, f.num
	if kind == unclassified {
		kind, num = classify(f.Value)
	}
	if kind == numeric {
		if vn, err := strconv.ParseFloat(value, 64); err == nil {
			return f.cmpOK(compareFloat(vn, math.Float64frombits(num)))
		}
	}
	return f.cmpOK(strings.Compare(value, f.Value))
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func (f AttrFilter) cmpOK(c int) bool {
	switch f.Op {
	case AttrEQ:
		return c == 0
	case AttrNE:
		return c != 0
	case AttrLT:
		return c < 0
	case AttrLE:
		return c <= 0
	case AttrGT:
		return c > 0
	case AttrGE:
		return c >= 0
	}
	return true
}
