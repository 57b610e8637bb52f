package predicate

import (
	"fmt"

	"predfilter/internal/xpath"
)

// Side identifies which tag variable of a predicate a location step maps to.
type Side int

const (
	// Left is Tag1 of the predicate.
	Left Side = iota
	// Right is Tag2 of a Relative predicate.
	Right
)

// StepRef locates, for a non-wildcard location step of the source
// expression, the predicate (by index into Encoding.Preds) and tag side
// that references it. It is what lets nested-path recombination and
// selection-postponed attribute evaluation recover "which document element
// matched step i" from an occurrence assignment.
type StepRef struct {
	Pred int
	Side Side
}

// Encoding is the ordered set of predicates for one single-path expression
// (paper §3.2), plus bookkeeping that maps location steps back onto
// predicates.
type Encoding struct {
	// Preds is the ordered predicate sequence pre_1 ↦ ... ↦ pre_n.
	Preds []Predicate
	// Refs maps each non-wildcard step index (0-based) of the source path
	// to the predicate/side referencing it. Empty for length-only
	// encodings.
	Refs map[int]StepRef
	// PostAttrs holds, for selection-postponed evaluation, the attribute
	// filters of the step referenced by each predicate position; the
	// predicates themselves are bare in that mode. PostAttrs[i] aligns
	// with Preds[i]; it is nil when the mode is inline or the expression
	// has no filters.
	PostAttrs []SideAttrs
	// Steps is the number of location steps of the source expression.
	Steps int
}

// SideAttrs carries postponed attribute filters for the two tag sides of a
// predicate position.
type SideAttrs struct {
	Left  []xpath.AttrFilter
	Right []xpath.AttrFilter
}

func (s SideAttrs) empty() bool { return len(s.Left) == 0 && len(s.Right) == 0 }

// HasPostAttrs reports whether any predicate position carries postponed
// attribute filters.
func (e *Encoding) HasPostAttrs() bool {
	for _, a := range e.PostAttrs {
		if !a.empty() {
			return true
		}
	}
	return false
}

// String renders the encoding as pre_1 ↦ pre_2 ↦ ... in the paper's
// notation.
func (e *Encoding) String() string {
	s := ""
	for i, p := range e.Preds {
		if i > 0 {
			s += " ↦ "
		}
		s += p.String()
	}
	return s
}

// AttrMode selects how attribute filters are evaluated (paper §5).
type AttrMode int

const (
	// Inline attaches attribute filters to the structural predicates, so
	// they are checked during predicate matching.
	Inline AttrMode = iota
	// Postponed strips attribute filters from the predicates and records
	// them for verification after structural matching.
	Postponed
)

// Encode translates a single-path XPath expression into its ordered set of
// predicates. It returns an error for expressions outside the supported
// fragment (nested path filters — use Decompose first — and filters
// attached to wildcard steps).
func Encode(p *xpath.Path, mode AttrMode) (*Encoding, error) {
	if !p.IsSinglePath() {
		return nil, fmt.Errorf("predicate: expression %q has nested path filters; decompose first", p)
	}
	for i, s := range p.Steps {
		if s.Wildcard && len(s.Attrs) > 0 {
			return nil, fmt.Errorf("predicate: attribute filter on wildcard step %d of %q is not supported", i+1, p)
		}
	}
	n := len(p.Steps)

	// Indices of the non-wildcard steps.
	var tags []int
	for i, s := range p.Steps {
		if !s.Wildcard {
			tags = append(tags, i)
		}
	}

	enc := &Encoding{Refs: make(map[int]StepRef), Steps: n}
	if len(tags) == 0 {
		// Only wildcards: (length, >=, n). Absolute and relative forms are
		// deliberately not distinguished (paper §3.2).
		enc.Preds = []Predicate{{Kind: Length, Op: GE, Value: n}}
		enc.PostAttrs = make([]SideAttrs, 1)
		return enc, nil
	}

	first := tags[0]
	last := tags[len(tags)-1]
	trailing := n - 1 - last

	// descUpTo reports whether any step in [from, to] (inclusive, 0-based)
	// uses the descendant axis.
	descIn := func(from, to int) bool {
		for i := from; i <= to; i++ {
			if p.Steps[i].Axis == xpath.Descendant {
				return true
			}
		}
		return false
	}

	attach := func(step int, side Side, pred *Predicate, post *SideAttrs) {
		attrs := p.Steps[step].Attrs
		if _, seen := enc.Refs[step]; seen {
			return
		}
		enc.Refs[step] = StepRef{Pred: len(enc.Preds), Side: side}
		if len(attrs) == 0 {
			return
		}
		own := append([]xpath.AttrFilter(nil), attrs...) // never the parsed path's
		switch {
		case mode == Inline && side == Left:
			pred.Attrs1 = own
		case mode == Inline:
			pred.Attrs2 = own
		case side == Left:
			post.Left = own
		default:
			post.Right = own
		}
	}

	emit := func(pred Predicate, post SideAttrs) {
		enc.Preds = append(enc.Preds, pred)
		enc.PostAttrs = append(enc.PostAttrs, post)
	}

	// First-tag predicate. For an absolute expression with no descendant
	// axis up to the first tag it is (p_t, =, first+1) and always emitted.
	// Otherwise the candidate is (p_t, >=, first+1), emitted only when it
	// carries information the rest of the encoding does not: when the
	// minimum position exceeds 1, or when it would be the only reference
	// to the expression's only tag (paper's s2 and s9 versus s3 and s8).
	firstDesc := descIn(0, first)
	switch {
	case p.Absolute && !firstDesc:
		pred := Predicate{Kind: Absolute, Op: EQ, Tag1: p.Steps[first].Name, Value: first + 1}
		var post SideAttrs
		attach(first, Left, &pred, &post)
		emit(pred, post)
	case first+1 >= 2 || (len(tags) == 1 && trailing == 0):
		pred := Predicate{Kind: Absolute, Op: GE, Tag1: p.Steps[first].Name, Value: first + 1}
		var post SideAttrs
		attach(first, Left, &pred, &post)
		emit(pred, post)
	}

	// Relative predicates between consecutive non-wildcard tags.
	for j := 1; j < len(tags); j++ {
		u, w := tags[j-1], tags[j]
		op := EQ
		if descIn(u+1, w) {
			op = GE
		}
		pred := Predicate{
			Kind:  Relative,
			Op:    op,
			Tag1:  p.Steps[u].Name,
			Tag2:  p.Steps[w].Name,
			Value: w - u,
		}
		var post SideAttrs
		attach(u, Left, &pred, &post)
		attach(w, Right, &pred, &post)
		emit(pred, post)
	}

	// End-of-path predicate for trailing wildcards.
	if trailing > 0 {
		pred := Predicate{Kind: EndOfPath, Op: GE, Tag1: p.Steps[last].Name, Value: trailing}
		var post SideAttrs
		attach(last, Left, &pred, &post)
		emit(pred, post)
	}

	return enc, nil
}

// MustEncode is Encode that panics on error; intended for tests.
func MustEncode(p *xpath.Path, mode AttrMode) *Encoding {
	e, err := Encode(p, mode)
	if err != nil {
		panic(err)
	}
	return e
}
