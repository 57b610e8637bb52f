// Package predicate implements the paper's predicate language (§3.2): the
// four structural predicate types — absolute, relative, end-of-path and
// length-of-expression — optionally augmented with attribute filters (§5),
// and the encoder that translates a parsed XPath expression into its
// ordered set of predicates.
package predicate

import (
	"fmt"
	"strings"

	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// Kind distinguishes the four predicate types of the paper.
type Kind int

const (
	// Absolute is (p_t, op, v): a constraint on the position of tag t.
	Absolute Kind = iota
	// Relative is (d(p_t1, p_t2), op, v): a constraint on the distance
	// between two tags.
	Relative
	// EndOfPath is (p_t⊣, >=, v): a constraint on the position of tag t
	// relative to the end of the document path.
	EndOfPath
	// Length is (length, >=, v): a constraint on the document path length.
	Length
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case Absolute:
		return "absolute"
	case Relative:
		return "relative"
	case EndOfPath:
		return "end-of-path"
	case Length:
		return "length"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op is the relational operator of a predicate. The paper uses only
// equality and greater-than-or-equal; EndOfPath and Length predicates are
// always GE.
type Op int

const (
	// EQ is the equality operator.
	EQ Op = iota
	// GE is the greater-than-or-equal operator.
	GE
)

// String returns the operator's mathematical spelling.
func (o Op) String() string {
	if o == EQ {
		return "="
	}
	return ">="
}

// Predicate is one (attribute, operator, value) triple of the paper's
// predicate calculus. Tag1 is the predicate's tag (or the first tag for
// Relative predicates); Tag2 is the second tag of Relative predicates.
// Attrs1/Attrs2 carry inline attribute filters attached to the respective
// tag variables; they participate in predicate identity, so two structural
// twins with different filters are distinct predicates.
type Predicate struct {
	Kind   Kind
	Op     Op
	Tag1   string
	Tag2   string
	Value  int
	Attrs1 []xpath.AttrFilter
	Attrs2 []xpath.AttrFilter
}

// String renders the predicate in the paper's notation, e.g.
// (d(p_a, p_b), =, 2) or (p_a([x,=,3]), >=, 1).
func (p Predicate) String() string {
	tag := func(t string, attrs []xpath.AttrFilter) string {
		s := "p_" + t
		if len(attrs) > 0 {
			parts := make([]string, len(attrs))
			for i, a := range attrs {
				parts[i] = fmt.Sprintf("[%s,%s,%s]", a.Name, a.Op, a.Value)
			}
			s += "(" + strings.Join(parts, "") + ")"
		}
		return s
	}
	switch p.Kind {
	case Absolute:
		return fmt.Sprintf("(%s, %s, %d)", tag(p.Tag1, p.Attrs1), p.Op, p.Value)
	case Relative:
		return fmt.Sprintf("(d(%s, %s), %s, %d)", tag(p.Tag1, p.Attrs1), tag(p.Tag2, p.Attrs2), p.Op, p.Value)
	case EndOfPath:
		return fmt.Sprintf("(%s⊣, >=, %d)", tag(p.Tag1, p.Attrs1), p.Value)
	case Length:
		return fmt.Sprintf("(length, >=, %d)", p.Value)
	}
	return "(?)"
}

// AttrKey returns a canonical serialization of the predicate's attribute
// filters, used by the predicate index to separate structural twins.
// It is "" when the predicate carries no filters.
func (p Predicate) AttrKey() string {
	if len(p.Attrs1) == 0 && len(p.Attrs2) == 0 {
		return ""
	}
	var b strings.Builder
	for _, a := range p.Attrs1 {
		fmt.Fprintf(&b, "1:%s%d%s;", a.Name, a.Op, a.Value)
	}
	for _, a := range p.Attrs2 {
		fmt.Fprintf(&b, "2:%s%d%s;", a.Name, a.Op, a.Value)
	}
	return b.String()
}

// HasAttrs reports whether the predicate carries inline attribute filters.
func (p Predicate) HasAttrs() bool { return len(p.Attrs1) > 0 || len(p.Attrs2) > 0 }

// EvalAttrs reports whether the tuple's attributes satisfy every filter,
// by xpath.AttrFilter.Eval on the strings: the reference the oracle
// (refmatch) and the brute-force test oracles evaluate. The engine decides
// filters through Dict.Holds.
func EvalAttrs(filters []xpath.AttrFilter, t *xmldoc.Tuple) bool {
	for _, f := range filters {
		if v, ok := t.Attr(f.Name); !ok || !f.Eval(v) {
			return false
		}
	}
	return true
}
