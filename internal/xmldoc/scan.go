package xmldoc

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
	"unsafe"

	"predfilter/internal/guard"
	"predfilter/internal/metrics"
	"predfilter/internal/xmlscan"
)

// Mode selects the XML parser behind Parse and friends.
type Mode int

const (
	// ModeAuto is the zero-copy scanner, with its encoding/xml fallback
	// for out-of-subset input.
	ModeAuto Mode = iota
	// ModeStd forces encoding/xml.
	ModeStd
)

// Visitor receives one document's root-to-leaf paths from Scan.
type Visitor interface {
	// Path is called as each leaf element closes, with the path from the
	// root down to it. pub and everything it holds — tuples, attribute
	// slices, attribute value strings — are the scan's pooled storage,
	// valid during the call only.
	Path(pub *Publication)
	// Restart is called when the scanner stops on input outside its
	// subset and hands the document to the encoding/xml fallback, which
	// emits every path again from the first: whatever the visitor derived
	// from the earlier calls must be discarded.
	Restart()
}

// Source is one document's input: Bytes, or Reader when it is non-nil.
type Source struct {
	Bytes  []byte
	Reader io.Reader
}

// Scanned describes a finished scan.
type Scanned struct {
	Bytes    int64 // input consumed; a stream's whole size once it parsed
	Paths    int   // paths handed to the visitor (by the fallback, if it ran)
	Elements int
	FellBack bool // the scanner stopped and encoding/xml re-parsed the document
}

// Observe records a ModeAuto document's parse stage in ms (nil records
// nothing): its duration, size and parser, or — err being the scan's
// verdict — one document error.
func (s Scanned) Observe(ms *metrics.Set, d time.Duration, err error) {
	ms.ObserveParse(d, int(s.Bytes), err)
	ms.ObserveParsePath(err == nil && !s.FellBack, s.FellBack)
}

// Scan decomposes the document in src into its root-to-leaf paths and
// hands each to v as its leaf closes; no Document is built. The structural
// limits are enforced as the input streams (raw size up front for bytes),
// each exceeded one a typed *guard.LimitError; zero limits enforce nothing.
// The scanner runs first; input it does not accept is re-parsed from its
// first byte by encoding/xml (after v.Restart), whose verdict is
// authoritative. The error is the document's parse verdict, which the
// visitor cannot stop early.
func Scan(src Source, lim guard.Limits, v Visitor) (Scanned, error) {
	b := builders.Get().(*builder)
	st, err := b.run(src, lim, ModeAuto, v)
	b.release()
	return st, err
}

// parse is a scan into the collecting visitor, finalized into a Document.
func parse(src Source, lim guard.Limits, mode Mode) (*Document, Scanned, error) {
	b := builders.Get().(*builder)
	b.col.Restart()
	st, err := b.run(src, lim, mode, &b.col)
	var d *Document
	if err == nil {
		d = b.col.finalize(st.Elements)
	}
	b.release()
	return d, st, err
}

// The scanner hands a document to the fallback whenever it stops for any
// reason other than a structural limit trip: malformed input, input outside
// its subset (DOCTYPE, namespaced element names, Unicode names), or a
// builder-detected structural error. encoding/xml's verdict — accept or the
// exact rejection the old parser produced — is then authoritative, so the
// scanner never changes the package's observable accept/reject behavior; it
// only has to agree with encoding/xml on documents it accepts (the
// differential fuzz target pins that).
var (
	errTrailing   = errors.New("xmldoc: content after the document root")
	errUnbalanced = errors.New("xmldoc: unbalanced end element")
	errMismatched = errors.New("xmldoc: mismatched end element")
	errIncomplete = errors.New("xmldoc: incomplete document")
)

// builder is the pooled state of one scan. Its open elements are the path
// itself: pub.Tuples holds one tuple per open element, root first, each
// computed once when the element opens, so a closing leaf hands its path
// over as it stands.
type builder struct {
	sc     xmlscan.Scanner
	lr     limitReader
	v      Visitor
	pub    Publication
	frames []frame // per open element, beside its tuple
	// The arena: the document's attributes in element order, their values
	// decoded into vbuf and aliased by the Value strings. It is reset for
	// the next document, so no value string may outlive the scan.
	attrs  []Attr
	vbuf   []byte
	attrLo int // where the element being opened starts in attrs

	nextID, paths, tuples int
	col                   collector
}

type frame struct{ children, attrLo int }

var builders = sync.Pool{New: func() any {
	b := new(builder)
	b.col.b = b
	return b
}}

// run scans src into v: the scanner first (ModeAuto), then, if it stopped
// short of a verdict, encoding/xml from the first byte — for a stream, the
// bytes the scanner consumed replayed ahead of the rest, through a fresh
// limitReader, so nothing is charged twice.
func (b *builder) run(src Source, lim guard.Limits, mode Mode, v Visitor) (Scanned, error) {
	b.v = v
	st := Scanned{Bytes: int64(len(src.Bytes))}
	r := src.Reader
	if r == nil && lim.MaxDocBytes > 0 && st.Bytes > lim.MaxDocBytes {
		return st, guard.ParseError(guard.DocBytes, lim.MaxDocBytes, st.Bytes)
	}
	if mode != ModeStd {
		b.reset()
		if r == nil {
			b.sc.ResetBytes(src.Bytes)
		} else {
			b.lr = limitReader{r: r, max: lim.MaxDocBytes}
			b.sc.ResetReader(&b.lr)
		}
		err := b.scan(lim)
		if err == nil {
			return b.scanned(st, src.Reader), nil
		}
		var le *guard.LimitError
		if errors.As(err, &le) {
			if le.Kind == guard.DocBytes {
				// Only a stream trips this mid-scan. encoding/xml hands
				// reader errors through in the package prefix; the
				// builder's own trips are bare on both paths.
				err = fmt.Errorf("xmldoc: %w", err)
			}
			return st, err
		}
		st.FellBack = true
		v.Restart()
		if r != nil {
			r = io.MultiReader(bytes.NewReader(b.sc.Consumed()), r)
		}
	}
	if r == nil {
		r = bytes.NewReader(src.Bytes)
	}
	b.lr = limitReader{r: r, max: lim.MaxDocBytes}
	b.reset()
	if err := b.std(lim); err != nil {
		return st, err
	}
	return b.scanned(st, src.Reader), nil
}

func (b *builder) scanned(st Scanned, r io.Reader) Scanned {
	if r != nil {
		st.Bytes = b.lr.n
	}
	st.Paths, st.Elements = b.paths, b.nextID
	return st
}

func (b *builder) reset() {
	b.pub.Tuples, b.frames = b.pub.Tuples[:0], b.frames[:0]
	b.attrs, b.vbuf = b.attrs[:0], b.vbuf[:0]
	b.nextID, b.paths, b.tuples = 0, 0, 0
}

// release returns the builder to the pool without the caller's input.
func (b *builder) release() {
	b.sc.Release()
	b.lr, b.v = limitReader{}, nil
	builders.Put(b)
}

func (b *builder) rootClosed() bool { return b.nextID > 0 && len(b.frames) == 0 }

// open admits the next element under MaxDepth, before its attributes are
// decoded (attr) and it is pushed.
func (b *builder) open(lim guard.Limits) error {
	if d := len(b.frames); lim.MaxDepth > 0 && d >= lim.MaxDepth {
		return guard.ParseError(guard.Depth, int64(lim.MaxDepth), int64(d+1))
	}
	b.attrLo = len(b.attrs)
	return nil
}

// attr adds an attribute of the element being opened, whose value was just
// appended to vbuf from lo.
func (b *builder) attr(name string, lo int) {
	v := b.vbuf[lo:]
	b.attrs = append(b.attrs, Attr{Name: name, Value: unsafe.String(unsafe.SliceData(v), len(v))})
}

// push opens the element: its tuple's position, occurrence number (by
// counting the open ancestors with the same tag — interned tags compare
// pointer-fast), node id and child index serve every path through it.
func (b *builder) push(tag string) {
	n := len(b.frames)
	childIdx := 1
	if n > 0 {
		b.frames[n-1].children++
		childIdx = b.frames[n-1].children
	}
	occ := 1
	for i := range b.pub.Tuples {
		if b.pub.Tuples[i].Tag == tag {
			occ++
		}
	}
	var attrs []Attr
	if hi := len(b.attrs); hi > b.attrLo {
		attrs = b.attrs[b.attrLo:hi:hi]
	}
	b.pub.Tuples = append(b.pub.Tuples, Tuple{Tag: tag, Pos: n + 1, Occ: occ, NodeID: b.nextID, ChildIdx: childIdx, Attrs: attrs})
	b.frames = append(b.frames, frame{attrLo: b.attrLo})
	b.nextID++
}

// close pops the innermost element; a leaf first hands its path to the
// visitor, within MaxPaths and MaxTuples.
func (b *builder) close(lim guard.Limits) error {
	n := len(b.frames)
	if b.frames[n-1].children == 0 {
		if lim.MaxPaths > 0 && b.paths >= lim.MaxPaths {
			return guard.ParseError(guard.Paths, int64(lim.MaxPaths), int64(b.paths+1))
		}
		b.tuples += n
		if lim.MaxTuples > 0 && b.tuples > lim.MaxTuples {
			return guard.ParseError(guard.Tuples, int64(lim.MaxTuples), int64(b.tuples))
		}
		b.paths++
		b.pub.Length = n
		b.v.Path(&b.pub)
	}
	b.frames, b.pub.Tuples = b.frames[:n-1], b.pub.Tuples[:n-1]
	return nil
}

// scan is the scanner loop.
func (b *builder) scan(lim guard.Limits) error {
	for {
		k, err := b.sc.Next()
		if err != nil {
			return err
		}
		switch k {
		case xmlscan.Start:
			if b.rootClosed() {
				return errTrailing
			}
			if err := b.open(lim); err != nil {
				return err
			}
			for i := range b.sc.Attrs {
				a := &b.sc.Attrs[i]
				lo := len(b.vbuf)
				if b.vbuf, err = xmlscan.AppendUnescaped(b.vbuf, a.Value); err != nil {
					return err
				}
				b.attr(xmlscan.Names.Intern(a.Name), lo)
			}
			b.push(xmlscan.Names.Intern(b.sc.Name))
		case xmlscan.End:
			switch n := len(b.frames); {
			case n == 0 && b.nextID > 0:
				return errTrailing
			case n == 0:
				return errUnbalanced
			case string(b.sc.Name) != b.pub.Tuples[n-1].Tag:
				return errMismatched
			}
			if err := b.close(lim); err != nil {
				return err
			}
		case xmlscan.EOF:
			if !b.rootClosed() {
				return errIncomplete
			}
			return nil
		}
		// Character data carries no path structure; the scanner validated it.
	}
}

// std is the encoding/xml loop over b.lr: the original parser, kept as the
// ModeStd implementation and as the authority the scanner falls back to. It
// builds through the scanner loop's open, push and close, so the limits
// trip at the same points and the visitor sees the same paths.
func (b *builder) std(lim guard.Limits) error {
	dec := xml.NewDecoder(&b.lr)
	for {
		tok, err := dec.Token()
		switch {
		case err == io.EOF && b.nextID == 0:
			return errors.New("xmldoc: no document element")
		case err == io.EOF && len(b.frames) > 0:
			return fmt.Errorf("xmldoc: unexpected EOF with %d open elements", len(b.frames))
		case err == io.EOF:
			return nil
		case err != nil:
			return fmt.Errorf("xmldoc: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if b.rootClosed() {
				return errTrailing
			}
			if err := b.open(lim); err != nil {
				return err
			}
			for _, a := range t.Attr {
				lo := len(b.vbuf)
				b.vbuf = append(b.vbuf, a.Value...)
				b.attr(a.Name.Local, lo)
			}
			b.push(t.Name.Local)
		case xml.EndElement:
			if len(b.frames) == 0 {
				if b.rootClosed() {
					return errTrailing
				}
				return fmt.Errorf("xmldoc: unbalanced end element <%s>", t.Name.Local)
			}
			if err := b.close(lim); err != nil {
				return err
			}
		}
	}
}

// collector is the visitor behind Parse: it copies each path's tuples, and
// where its elements' attributes start in the arena, into pooled slabs.
type collector struct {
	b      *builder
	tuples []Tuple
	attrAt []int
	ends   []int // cumulative tuple count at the end of each path
}

func (c *collector) Path(pub *Publication) {
	c.tuples = append(c.tuples, pub.Tuples...)
	for i := range pub.Tuples {
		c.attrAt = append(c.attrAt, c.b.frames[i].attrLo)
	}
	c.ends = append(c.ends, len(c.tuples))
}

func (c *collector) Restart() {
	c.tuples, c.attrAt, c.ends = c.tuples[:0], c.attrAt[:0], c.ends[:0]
}

// finalize copies the collected paths out of the pool into a Document in a
// fixed number of allocations: one string holding every attribute value
// (the arena's bytes, in attribute order), one attribute array, one tuple
// array, the path slice and the Document.
func (c *collector) finalize(elements int) *Document {
	vals := string(c.b.vbuf)
	var attrs []Attr
	if len(c.b.attrs) > 0 {
		attrs = make([]Attr, len(c.b.attrs))
		off := 0
		for i, a := range c.b.attrs {
			attrs[i] = Attr{Name: a.Name, Value: vals[off : off+len(a.Value)]}
			off += len(a.Value)
		}
	}
	tuples := make([]Tuple, len(c.tuples))
	for i, t := range c.tuples {
		if n := len(t.Attrs); n > 0 {
			lo := c.attrAt[i]
			t.Attrs = attrs[lo : lo+n : lo+n]
		}
		tuples[i] = t
	}
	paths := make([]Publication, len(c.ends))
	lo := 0
	for p, hi := range c.ends {
		paths[p] = Publication{Length: hi - lo, Tuples: tuples[lo:hi:hi]}
		lo = hi
	}
	return &Document{Paths: paths, Elements: elements}
}
