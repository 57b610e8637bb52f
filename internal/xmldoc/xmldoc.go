// Package xmldoc decomposes XML documents into root-to-leaf paths and
// encodes each path as a "publication": the set of (attribute, value)
// tuples defined in §3.3 of the paper — a (length, n) tuple plus one
// (tag, position) tuple per location step, annotated with per-path tag
// occurrence numbers, element attributes, per-document node identifiers
// and child indices (the <m1,...,mn> structure tuples of §5).
//
// Parsing is streaming (SAX style): only a stack of open elements is
// retained, and a path is emitted each time a leaf element closes. Two
// parsers implement that contract. The default is the zero-copy scanner
// of internal/xmlscan (pooled scratch, interned tag dictionary, a handful
// of allocations per document); input the scanner does not accept —
// malformed or outside its subset, e.g. DOCTYPE declarations or
// namespaced element names — is transparently re-parsed with
// encoding/xml, whose verdict is authoritative. ModeStd forces the
// encoding/xml path outright.
package xmldoc

import (
	"encoding/xml"
	"fmt"
	"io"
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

// Tags returns the tag names of the path in order.
func (p *Publication) Tags() []string {
	tags := make([]string, len(p.Tuples))
	for i, t := range p.Tuples {
		tags[i] = t.Tag
	}
	return tags
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

// ParseLimitsMode is Parse with structural limits enforced as the document
// streams — nesting depth, path count, total tuple count, and raw size
// (checked up front for byte-slice input) — and an explicit parser
// selection (see Mode). Exceeding a limit returns a typed
// *guard.LimitError; zero limits enforce nothing.
func ParseLimitsMode(data []byte, lim guard.Limits, mode Mode) (*Document, error) {
	d, _, err := parseBytesMode(data, lim, mode)
	return d, err
}

// ParseMetered is ParseLimitsMode with stage observation: the parse + path
// extraction duration, the input size and which parse path served the
// document (scanner fast path vs encoding/xml fallback) land in ms (the
// engine's metric set). A nil ms records nothing.
func ParseMetered(data []byte, ms *metrics.Set, lim guard.Limits, mode Mode) (*Document, error) {
	t0 := time.Now()
	d, fellBack, err := parseBytesMode(data, lim, mode)
	ms.ObserveParse(time.Since(t0), len(data), err)
	ms.ObserveParsePath(mode != ModeStd && err == nil && !fellBack, fellBack)
	return d, err
}

// ParseReader is ParseMetered over a stream: the limits are enforced as
// the stream is consumed, and its size not being known, only the duration
// is recorded. Input with more than one top-level element is rejected.
func ParseReader(r io.Reader, ms *metrics.Set, lim guard.Limits, mode Mode) (*Document, error) {
	t0 := time.Now()
	d, fellBack, err := parseReaderMode(r, lim, mode)
	ms.ObserveParse(time.Since(t0), 0, err)
	ms.ObserveParsePath(mode != ModeStd && err == nil && !fellBack, fellBack)
	return d, err
}

// limitReader bounds the bytes consumed from a stream, failing with a
// typed *guard.LimitError once the bound is crossed (unlike io.LimitReader
// it errors instead of faking EOF, so a truncated bomb cannot masquerade
// as a well-formed smaller document error).
type limitReader struct {
	r   io.Reader
	n   int64 // bytes consumed
	max int64
}

func (l *limitReader) Read(p []byte) (int, error) {
	// Allow one sentinel byte past the bound: a document ending exactly at
	// the bound reads EOF there and parses, while a longer one trips.
	rem := l.max - l.n + 1
	if rem <= 0 {
		return 0, guard.ParseError(guard.DocBytes, l.max, l.n)
	}
	if int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := l.r.Read(p)
	l.n += int64(n)
	if l.n > l.max {
		return n, guard.ParseError(guard.DocBytes, l.max, l.n)
	}
	return n, err
}

// parseStdReader is the encoding/xml path: the original parser, kept both
// as the ModeStd implementation and as the authority the scanner fast
// path falls back to on any input it does not accept.
func parseStdReader(r io.Reader, lim guard.Limits) (*Document, error) {
	if lim.MaxDocBytes > 0 {
		r = &limitReader{r: r, max: lim.MaxDocBytes}
	}
	dec := xml.NewDecoder(r)
	doc, err := parseOneLimits(dec, lim)
	if err == io.EOF {
		return nil, fmt.Errorf("xmldoc: no document element")
	}
	if err != nil {
		return nil, err
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return doc, nil
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: %w", err)
		}
		switch tok.(type) {
		case xml.StartElement, xml.EndElement:
			return nil, fmt.Errorf("xmldoc: content after the document root")
		}
	}
}

// parseOneLimits decodes a single document's element tree from an open
// decoder (io.EOF when none starts), enforcing the limits as the token
// stream is consumed: the decoder never holds more than MaxDepth open
// elements, and path extraction stops at MaxPaths paths / MaxTuples total
// tuples — a bomb is rejected while still small, not after
// materialization.
func parseOneLimits(dec *xml.Decoder, lim guard.Limits) (*Document, error) {
	doc := &Document{}
	type frame struct {
		tag      string
		attrs    []Attr
		nodeID   int
		childIdx int
		children int
	}
	var stack []frame
	nextID := 0
	started := false
	tuples := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			if !started {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("xmldoc: unexpected EOF with %d open elements", len(stack))
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			started = true
			if lim.MaxDepth > 0 && len(stack) >= lim.MaxDepth {
				return nil, guard.ParseError(guard.Depth, int64(lim.MaxDepth), int64(len(stack)+1))
			}
			childIdx := 1
			if n := len(stack); n > 0 {
				stack[n-1].children++
				childIdx = stack[n-1].children
			}
			var attrs []Attr
			if len(t.Attr) > 0 {
				attrs = make([]Attr, len(t.Attr))
				for i, a := range t.Attr {
					attrs[i] = Attr{Name: a.Name.Local, Value: a.Value}
				}
			}
			stack = append(stack, frame{tag: t.Name.Local, attrs: attrs, nodeID: nextID, childIdx: childIdx})
			nextID++
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmldoc: unbalanced end element <%s>", t.Name.Local)
			}
			if stack[len(stack)-1].children == 0 {
				if lim.MaxPaths > 0 && len(doc.Paths) >= lim.MaxPaths {
					return nil, guard.ParseError(guard.Paths, int64(lim.MaxPaths), int64(len(doc.Paths)+1))
				}
				tuples += len(stack)
				if lim.MaxTuples > 0 && tuples > lim.MaxTuples {
					return nil, guard.ParseError(guard.Tuples, int64(lim.MaxTuples), int64(tuples))
				}
				pub := Publication{Length: len(stack), Tuples: make([]Tuple, len(stack))}
				for i, f := range stack {
					// Occurrence number by scanning the open ancestors:
					// quadratic in the nesting depth, but depths are small
					// and it beats a per-path map allocation on the parse
					// hot path.
					occ := 1
					for j := 0; j < i; j++ {
						if stack[j].tag == f.tag {
							occ++
						}
					}
					pub.Tuples[i] = Tuple{
						Tag: f.tag, Pos: i + 1, Occ: occ,
						NodeID: f.nodeID, ChildIdx: f.childIdx, Attrs: f.attrs,
					}
				}
				doc.Paths = append(doc.Paths, pub)
			}
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				doc.Elements = nextID
				return doc, nil
			}
		}
	}
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
