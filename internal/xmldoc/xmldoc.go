// Package xmldoc decomposes XML documents into root-to-leaf paths and
// encodes each path as a "publication": the set of (attribute, value)
// tuples defined in §3.3 of the paper — a (length, n) tuple plus one
// (tag, position) tuple per location step, annotated with per-path tag
// occurrence numbers, element attributes, per-document node identifiers
// and child indices (the <m1,...,mn> structure tuples of §5).
//
// Scan is the one decomposition: only the open elements are retained, and
// each path is handed to a Visitor as its leaf closes. Two loops feed it.
// The default is the zero-copy scanner of internal/xmlscan (pooled
// scratch, interned tag dictionary, no allocation per document once warm);
// input the scanner does not accept — malformed or outside its subset,
// e.g. DOCTYPE declarations or namespaced element names — is re-parsed
// with encoding/xml, whose verdict is authoritative. ModeStd forces the
// encoding/xml loop outright. Parse is Scan into a visitor that collects
// the paths into a Document.
package xmldoc

import (
	"strings"
	"time"

	"predfilter/internal/guard"
	"predfilter/internal/metrics"
)

// Attr is an attribute name/value pair attached to an element.
type Attr struct {
	Name  string
	Value string
}

// Tuple is one (tag, position) pair of a publication. Pos is the 1-based
// position of the tag in the path; Occ is the tag's occurrence number
// within the path (1-based: the k-th time this tag name appears in the
// path); NodeID identifies the element within its document so that nested
// path recombination can detect shared ancestors; ChildIdx says this
// element is the ChildIdx-th child element of its parent (1 for the root).
type Tuple struct {
	Tag      string
	Pos      int
	Occ      int
	NodeID   int
	ChildIdx int
	Attrs    []Attr
}

// Attr returns the value of the named attribute and whether it is present.
func (t *Tuple) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Publication is the encoding of a single document path
// {(length, n), (t1, 1), ..., (tn, n)}.
type Publication struct {
	Length int
	Tuples []Tuple
}

// String renders the path as /t1/t2/.../tn.
func (p *Publication) String() string {
	var b strings.Builder
	for _, t := range p.Tuples {
		b.WriteByte('/')
		b.WriteString(t.Tag)
	}
	return b.String()
}

// Document is the path-decomposed form of one XML document.
type Document struct {
	Paths    []Publication
	Elements int // total number of elements in the document
}

// Parse decomposes the XML document in data.
func Parse(data []byte) (*Document, error) {
	return ParseLimitsMode(data, guard.Limits{}, ModeAuto)
}

// ParseLimitsMode is Parse with the structural limits Scan enforces and an
// explicit parser selection (see Mode): Scan into a visitor that collects
// every path.
func ParseLimitsMode(data []byte, lim guard.Limits, mode Mode) (*Document, error) {
	d, _, err := parse(data, lim, mode)
	return d, err
}

// ParseSource is ParseLimitsMode under the scanner, with the parse stage
// observed in ms (see Scanned.Observe).
func ParseSource(data []byte, ms *metrics.Set, lim guard.Limits) (*Document, Scanned, error) {
	t0 := time.Now()
	d, st, err := parse(data, lim, ModeAuto)
	st.Observe(ms, time.Since(t0), err)
	return d, st, err
}

// FromPaths builds a Document directly from tag-name paths, computing
// occurrence numbers. It is intended for tests and synthetic workloads
// where no serialized XML exists. Node ids are unique per tuple (paths are
// treated as disjoint except for nothing), and child indices are all 1.
func FromPaths(paths ...[]string) *Document {
	doc := &Document{}
	nextID := 0
	for _, tags := range paths {
		pub := Publication{Length: len(tags), Tuples: make([]Tuple, len(tags))}
		occ := make(map[string]int, len(tags))
		for i, tag := range tags {
			occ[tag]++
			pub.Tuples[i] = Tuple{Tag: tag, Pos: i + 1, Occ: occ[tag], NodeID: nextID, ChildIdx: 1}
			nextID++
		}
		doc.Paths = append(doc.Paths, pub)
		doc.Elements += len(tags)
	}
	return doc
}
