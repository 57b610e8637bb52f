// Package dtd provides a lightweight DTD-style content model — element
// declarations with child particles, repetition and attribute lists — used
// by the document generator (internal/xmlgen) and the XPath workload
// generator (internal/xpgen).
//
// Two built-in schemas, NITF and PSD, stand in for the News Industry Text
// Format and Protein Sequence Database DTDs the paper generated its
// workloads from (see DESIGN.md §2 for the substitution rationale): NITF
// is large, irregular and attribute-rich, which makes randomly generated
// expressions highly selective; PSD is small and regular, which makes most
// schema-valid expressions match most documents.
package dtd

import "fmt"

// Repeat describes the repetition of a child particle, mirroring DTD
// occurrence indicators.
type Repeat int

const (
	// One is exactly one occurrence (no indicator).
	One Repeat = iota
	// Optional is "?": zero or one.
	Optional
	// Star is "*": zero or more.
	Star
	// Plus is "+": one or more.
	Plus
)

// Child is one child particle of an element declaration.
type Child struct {
	Name   string
	Repeat Repeat
}

// Attr is one attribute declaration. Values enumerates the values the
// generator chooses from (an abstraction of CDATA/enumerated types);
// Required attributes are always emitted, optional ones probabilistically.
type Attr struct {
	Name     string
	Required bool
	Values   []string
}

// Element is one element declaration.
type Element struct {
	Name     string
	Children []Child
	Attrs    []Attr
}

// DTD is a complete document type: a named root plus element declarations.
type DTD struct {
	Name     string
	Root     string
	Elements map[string]*Element
}

// Element returns the declaration of name, or nil.
func (d *DTD) Element(name string) *Element { return d.Elements[name] }

// Validate checks internal consistency: the root exists and every child
// particle refers to a declared element.
func (d *DTD) Validate() error {
	if d.Elements[d.Root] == nil {
		return fmt.Errorf("dtd %s: root element %q not declared", d.Name, d.Root)
	}
	for name, el := range d.Elements {
		if el.Name != name {
			return fmt.Errorf("dtd %s: element %q declared under key %q", d.Name, el.Name, name)
		}
		for _, c := range el.Children {
			if d.Elements[c.Name] == nil {
				return fmt.Errorf("dtd %s: element %q references undeclared child %q", d.Name, name, c.Name)
			}
		}
		for _, a := range el.Attrs {
			if len(a.Values) == 0 {
				return fmt.Errorf("dtd %s: element %q attribute %q has no values", d.Name, name, a.Name)
			}
		}
	}
	return nil
}

// builder accumulates declarations with a compact notation.
type builder struct {
	d *DTD
}

func newBuilder(name, root string) *builder {
	return &builder{d: &DTD{Name: name, Root: root, Elements: make(map[string]*Element)}}
}

// el declares an element; children use suffix notation: "p*", "title?",
// "author+", "uid".
func (b *builder) el(name string, children ...string) *Element {
	e := &Element{Name: name}
	for _, c := range children {
		rep := One
		switch c[len(c)-1] {
		case '?':
			rep, c = Optional, c[:len(c)-1]
		case '*':
			rep, c = Star, c[:len(c)-1]
		case '+':
			rep, c = Plus, c[:len(c)-1]
		}
		e.Children = append(e.Children, Child{Name: c, Repeat: rep})
	}
	b.d.Elements[name] = e
	return e
}

// attr attaches an attribute declaration to an element.
func (e *Element) attr(name string, required bool, values ...string) *Element {
	e.Attrs = append(e.Attrs, Attr{Name: name, Required: required, Values: values})
	return e
}

func nums(from, to int) []string {
	out := make([]string, 0, to-from+1)
	for i := from; i <= to; i++ {
		out = append(out, fmt.Sprint(i))
	}
	return out
}
