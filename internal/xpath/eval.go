package xpath

import (
	"strconv"
	"strings"
)

// Eval reports whether an attribute value satisfies the filter.
// Comparison is numeric when both the filter value and the attribute
// value parse as floating point numbers, and lexicographic otherwise;
// AttrExists is satisfied by any present value. This is the definition of
// attribute comparison: the baseline engines and the oracle evaluate it,
// and the predicate engine's value dictionary (predicate.Dict) is held
// equal to it.
func (f AttrFilter) Eval(value string) bool {
	if f.Op == AttrExists {
		return true
	}
	if fn, err := strconv.ParseFloat(f.Value, 64); err == nil {
		if vn, err := strconv.ParseFloat(value, 64); err == nil {
			return f.Op.Holds(compareFloat(vn, fn))
		}
	}
	return f.Op.Holds(strings.Compare(value, f.Value))
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

// Holds reports whether a comparison outcome c (negative, zero, positive:
// the attribute value is below, equal to, above the constant) satisfies the
// operator.
func (o AttrOp) Holds(c int) bool {
	switch o {
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
