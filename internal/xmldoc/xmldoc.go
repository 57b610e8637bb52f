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
	"hash/maphash"
	"strings"

	"predfilter/internal/guard"
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
// {(length, n), (t1, 1), ..., (tn, n)}. Its identity in the process is
// Shape, a hash of the tag sequence, and Key, of the tags with every
// attribute name and value; a scan builds both once per element from the
// parent's, every constructor fills them, and Rehash follows tuple edits.
type Publication struct {
	Length     int
	Tuples     []Tuple
	Shape, Key uint64
}

// Rehash recomputes Shape and Key from the tuples.
func (p *Publication) Rehash() {
	p.Shape, p.Key = 0, 0
	for _, t := range p.Tuples {
		var attrs uint64
		for _, a := range t.Attrs {
			attrs = attrStep(attrs, hashString(a.Name), a.Value)
		}
		p.Shape, p.Key = elemStep(p.Shape, p.Key, hashString(t.Tag), attrs)
	}
}

var seed = maphash.MakeSeed()

// hashString hashes a name or an attribute value.
func hashString(s string) uint64 { return maphash.String(seed, s) }

// mix is the splitmix64 finalizer: every input bit flips each output bit
// with probability about ½, so distinct paths collide with odds ≈ 2⁻⁶⁴.
func mix(h uint64) uint64 {
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// elemStep extends a parent's Shape and Key by one element's tag and attributes.
func elemStep(shape, key, tag, attrs uint64) (uint64, uint64) {
	return mix(shape + tag), mix(mix(key+tag) + attrs)
}

// attrStep folds one attribute, in document order, into its element's hash.
func attrStep(h, name uint64, value string) uint64 {
	return mix(mix(h+name) + hashString(value))
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
		pub.Rehash()
		doc.Paths = append(doc.Paths, pub)
		doc.Elements += len(tags)
	}
	return doc
}
