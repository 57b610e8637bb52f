// Package xpath parses the XPath fragment used by the predicate-based
// filtering paper (Hou & Jacobsen, ICDE 2006): the child (/) and
// descendant (//) axes, name tests, wildcards (*), attribute filters
// ([@a op v]) and nested path filters ([p]).
//
// The package produces a small AST (Path, Step, AttrFilter) with a
// canonical string form; Parse and Path.String round-trip.
package xpath

import "strings"

// Axis identifies how a location step relates to the previous one.
type Axis int

const (
	// Child is the parent-child axis, written "/".
	Child Axis = iota
	// Descendant is the ancestor-descendant axis, written "//".
	Descendant
)

// String returns the XPath spelling of the axis.
func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// AttrOp is a relational operator in an attribute filter.
type AttrOp int

const (
	// AttrExists tests mere presence of the attribute: [@a].
	AttrExists AttrOp = iota
	// AttrEQ is [@a = v].
	AttrEQ
	// AttrNE is [@a != v].
	AttrNE
	// AttrLT is [@a < v].
	AttrLT
	// AttrLE is [@a <= v].
	AttrLE
	// AttrGT is [@a > v].
	AttrGT
	// AttrGE is [@a >= v].
	AttrGE
)

var attrOpNames = map[AttrOp]string{
	AttrExists: "",
	AttrEQ:     "=",
	AttrNE:     "!=",
	AttrLT:     "<",
	AttrLE:     "<=",
	AttrGT:     ">",
	AttrGE:     ">=",
}

// String returns the XPath spelling of the operator ("" for AttrExists).
func (o AttrOp) String() string { return attrOpNames[o] }

// AttrFilter is an attribute-based filter attached to a location step,
// e.g. [@x = 3]. Value is kept as written; numeric comparison is applied
// when both sides parse as numbers (see Eval).
type AttrFilter struct {
	Name  string
	Op    AttrOp
	Value string
}

// String returns the filter in canonical form, e.g. `[@x = "3"]` is
// rendered as [@x=3] (values are printed bare when possible, quoted when
// they contain characters that would not re-parse; inside quotes only the
// backslash and the quote itself are escaped).
func (f AttrFilter) String() string {
	var b strings.Builder
	b.WriteString("[@")
	b.WriteString(f.Name)
	if f.Op != AttrExists {
		b.WriteString(f.Op.String())
		if needsQuoting(f.Value) {
			b.WriteByte('"')
			for i := 0; i < len(f.Value); i++ {
				c := f.Value[i]
				if c == '"' || c == '\\' {
					b.WriteByte('\\')
				}
				b.WriteByte(c)
			}
			b.WriteByte('"')
		} else {
			b.WriteString(f.Value)
		}
	}
	b.WriteString("]")
	return b.String()
}

func needsQuoting(v string) bool {
	if v == "" {
		return true
	}
	for _, r := range v {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '_', r == '-', r == '.', r == ':':
		default:
			return true
		}
	}
	return false
}

// Step is a single location step: an axis, a name test (a tag name or the
// wildcard), and zero or more filters.
type Step struct {
	Axis     Axis
	Name     string // tag name; ignored when Wildcard
	Wildcard bool
	Attrs    []AttrFilter
	Nested   []*Path // nested path filters, e.g. the [d] in a[d]/e
}

// Test returns the name test as written: the tag name or "*".
func (s Step) Test() string {
	if s.Wildcard {
		return "*"
	}
	return s.Name
}

// String renders the step without its leading axis.
func (s Step) String() string {
	var b strings.Builder
	b.WriteString(s.Test())
	for _, a := range s.Attrs {
		b.WriteString(a.String())
	}
	for _, n := range s.Nested {
		b.WriteString("[")
		b.WriteString(n.String())
		b.WriteString("]")
	}
	return b.String()
}

// Path is a parsed XPath expression.
type Path struct {
	// Absolute reports whether the expression is anchored at the document
	// root (it was written with a leading "/" or "//").
	Absolute bool
	Steps    []Step
}

// String renders the path in canonical form; Parse(p.String()) yields an
// equal Path.
func (p *Path) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		if i > 0 || p.Absolute || s.Axis == Descendant {
			b.WriteString(s.Axis.String())
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// IsSinglePath reports whether the expression is a single linear path,
// i.e. no step carries a nested path filter. Attribute filters are allowed.
func (p *Path) IsSinglePath() bool {
	for _, s := range p.Steps {
		if len(s.Nested) > 0 {
			return false
		}
	}
	return true
}

// HasAttrFilters reports whether any step (at any nesting depth) carries an
// attribute filter.
func (p *Path) HasAttrFilters() bool {
	for _, s := range p.Steps {
		if len(s.Attrs) > 0 {
			return true
		}
		for _, n := range s.Nested {
			if n.HasAttrFilters() {
				return true
			}
		}
	}
	return false
}

// Len returns the number of location steps of the top-level path.
func (p *Path) Len() int { return len(p.Steps) }

// Clone returns a deep copy of the path.
func (p *Path) Clone() *Path {
	q := &Path{Absolute: p.Absolute, Steps: make([]Step, len(p.Steps))}
	for i, s := range p.Steps {
		cs := s
		if len(s.Attrs) > 0 {
			cs.Attrs = append([]AttrFilter(nil), s.Attrs...)
		}
		if len(s.Nested) > 0 {
			cs.Nested = make([]*Path, len(s.Nested))
			for j, n := range s.Nested {
				cs.Nested[j] = n.Clone()
			}
		}
		q.Steps[i] = cs
	}
	return q
}

// Equal reports structural equality of two paths.
func (p *Path) Equal(q *Path) bool {
	if p.Absolute != q.Absolute || len(p.Steps) != len(q.Steps) {
		return false
	}
	for i := range p.Steps {
		if !stepEqual(p.Steps[i], q.Steps[i]) {
			return false
		}
	}
	return true
}

func stepEqual(a, b Step) bool {
	if a.Axis != b.Axis || a.Wildcard != b.Wildcard || (!a.Wildcard && a.Name != b.Name) {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Nested) != len(b.Nested) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Nested {
		if !a.Nested[i].Equal(b.Nested[i]) {
			return false
		}
	}
	return true
}
