package xmldoc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"predfilter/internal/guard"
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

// The fast path re-parses with encoding/xml whenever the scanner stops for
// any reason other than a structural limit trip: malformed input, input
// outside the scanner's subset (DOCTYPE, namespaced element names, Unicode
// names), or a builder-detected structural error. encoding/xml's verdict —
// accept or the exact rejection the old parser produced — is then
// authoritative, so the fast path never changes the package's observable
// accept/reject behavior; the scanner only has to agree with encoding/xml
// on documents it accepts (the differential fuzz target pins that).
var (
	errScanTrailing   = errors.New("xmldoc: content after the document root")
	errScanUnbalanced = errors.New("xmldoc: unbalanced end element")
	errScanMismatched = errors.New("xmldoc: mismatched end element")
	errScanIncomplete = errors.New("xmldoc: incomplete document")
)

// fastFrame is one open element during the scan.
type fastFrame struct {
	tag            string
	nodeID         int
	childIdx       int
	children       int
	attrLo, attrHi int
}

// fastTuple is a pending Tuple, holding attribute arena coordinates
// instead of slices so slab growth during the scan cannot leave earlier
// paths aliasing a stale backing array.
type fastTuple struct {
	tag            string
	occ            int
	nodeID         int
	childIdx       int
	attrLo, attrHi int
}

// fastAttr is a pending Attr; the value lives in the shared value buffer
// at [vLo, vHi).
type fastAttr struct {
	name     string
	vLo, vHi int
}

// fastBuilder is the pooled per-parse scratch state: the scanner, the
// element stack, and the tuple/attr/value slabs the document is
// accumulated into. finalize copies the slabs into exact-size arrays, so
// nothing pooled leaks into a returned Document and steady-state parsing
// costs a handful of allocations regardless of document size.
type fastBuilder struct {
	sc     xmlscan.Scanner
	frames []fastFrame
	tuples []fastTuple
	ends   []int // cumulative tuple-count boundary of each emitted path
	attrs  []fastAttr
	vbuf   []byte
}

var fastPool = sync.Pool{New: func() any { return new(fastBuilder) }}

// build drains the scanner into the slabs, enforcing the structural limits
// at the same points the encoding/xml path does (depth before push, paths
// and tuples at leaf close), and finalizes into a Document.
func (b *fastBuilder) build(lim guard.Limits) (*Document, error) {
	b.frames = b.frames[:0]
	b.tuples = b.tuples[:0]
	b.ends = b.ends[:0]
	b.attrs = b.attrs[:0]
	b.vbuf = b.vbuf[:0]
	nextID := 0
	started := false
	rootClosed := false
	tuples := 0
	for {
		k, err := b.sc.Next()
		if err != nil {
			return nil, err
		}
		switch k {
		case xmlscan.Start:
			if rootClosed {
				return nil, errScanTrailing
			}
			started = true
			if lim.MaxDepth > 0 && len(b.frames) >= lim.MaxDepth {
				return nil, guard.ParseError(guard.Depth, int64(lim.MaxDepth), int64(len(b.frames)+1))
			}
			childIdx := 1
			if n := len(b.frames); n > 0 {
				b.frames[n-1].children++
				childIdx = b.frames[n-1].children
			}
			attrLo := len(b.attrs)
			for i := range b.sc.Attrs {
				a := &b.sc.Attrs[i]
				vLo := len(b.vbuf)
				b.vbuf, err = xmlscan.AppendUnescaped(b.vbuf, a.Value)
				if err != nil {
					return nil, err
				}
				b.attrs = append(b.attrs, fastAttr{
					name: xmlscan.Names.Intern(a.Name),
					vLo:  vLo, vHi: len(b.vbuf),
				})
			}
			b.frames = append(b.frames, fastFrame{
				tag:    xmlscan.Names.Intern(b.sc.Name),
				nodeID: nextID, childIdx: childIdx,
				attrLo: attrLo, attrHi: len(b.attrs),
			})
			nextID++
		case xmlscan.End:
			if len(b.frames) == 0 {
				if rootClosed {
					return nil, errScanTrailing
				}
				return nil, errScanUnbalanced
			}
			top := &b.frames[len(b.frames)-1]
			if string(b.sc.Name) != top.tag {
				return nil, errScanMismatched
			}
			if top.children == 0 {
				if lim.MaxPaths > 0 && len(b.ends) >= lim.MaxPaths {
					return nil, guard.ParseError(guard.Paths, int64(lim.MaxPaths), int64(len(b.ends)+1))
				}
				tuples += len(b.frames)
				if lim.MaxTuples > 0 && tuples > lim.MaxTuples {
					return nil, guard.ParseError(guard.Tuples, int64(lim.MaxTuples), int64(tuples))
				}
				for i := range b.frames {
					f := &b.frames[i]
					// Occurrence number by scanning the open ancestors, as
					// in the encoding/xml path. Interned tags make the
					// comparison pointer-equal in the common case.
					occ := 1
					for j := 0; j < i; j++ {
						if b.frames[j].tag == f.tag {
							occ++
						}
					}
					b.tuples = append(b.tuples, fastTuple{
						tag: f.tag, occ: occ, nodeID: f.nodeID,
						childIdx: f.childIdx, attrLo: f.attrLo, attrHi: f.attrHi,
					})
				}
				b.ends = append(b.ends, len(b.tuples))
			}
			b.frames = b.frames[:len(b.frames)-1]
			if len(b.frames) == 0 {
				rootClosed = true
			}
		case xmlscan.Text:
			// Character data carries no path structure; the scanner already
			// validated it.
		case xmlscan.EOF:
			if !started || !rootClosed {
				return nil, errScanIncomplete
			}
			return b.finalize(nextID), nil
		}
	}
}

// finalize materializes the slabs into a Document in a fixed number of
// allocations: one value string, one attr array, one tuple array, one
// path array, one Document. Everything else this parse touched goes back
// to the pool.
func (b *fastBuilder) finalize(elements int) *Document {
	big := string(b.vbuf)
	var attrArr []Attr
	if len(b.attrs) > 0 {
		attrArr = make([]Attr, len(b.attrs))
		for i, a := range b.attrs {
			attrArr[i] = Attr{Name: a.name, Value: big[a.vLo:a.vHi]}
		}
	}
	tupArr := make([]Tuple, len(b.tuples))
	paths := make([]Publication, len(b.ends))
	lo := 0
	for p, hi := range b.ends {
		for i := lo; i < hi; i++ {
			ft := &b.tuples[i]
			var as []Attr
			if ft.attrHi > ft.attrLo {
				as = attrArr[ft.attrLo:ft.attrHi:ft.attrHi]
			}
			tupArr[i] = Tuple{
				Tag: ft.tag, Pos: i - lo + 1, Occ: ft.occ,
				NodeID: ft.nodeID, ChildIdx: ft.childIdx, Attrs: as,
			}
		}
		paths[p] = Publication{Length: hi - lo, Tuples: tupArr[lo:hi:hi]}
		lo = hi
	}
	return &Document{Paths: paths, Elements: elements}
}

// parseBytesMode parses in-memory input under the selected mode,
// reporting whether the encoding/xml fallback ran.
func parseBytesMode(data []byte, lim guard.Limits, mode Mode) (*Document, bool, error) {
	if lim.MaxDocBytes > 0 && int64(len(data)) > lim.MaxDocBytes {
		return nil, false, guard.ParseError(guard.DocBytes, lim.MaxDocBytes, int64(len(data)))
	}
	if mode == ModeStd {
		d, err := parseStdReader(bytes.NewReader(data), lim)
		return d, false, err
	}
	b := fastPool.Get().(*fastBuilder)
	b.sc.ResetBytes(data)
	d, err := b.build(lim)
	b.sc.Release()
	fastPool.Put(b)
	if err == nil {
		return d, false, nil
	}
	var le *guard.LimitError
	if errors.As(err, &le) {
		return nil, false, err
	}
	d, err = parseStdReader(bytes.NewReader(data), lim)
	return d, true, err
}

// parseReaderMode parses streaming input under the selected mode. The
// scanner retains every byte it consumes, so a fallback replays the
// consumed prefix ahead of the rest of the stream; the size limit is
// enforced while streaming on both paths (the fallback re-counts from
// zero over the replayed prefix, so nothing is double-charged).
func parseReaderMode(r io.Reader, lim guard.Limits, mode Mode) (*Document, bool, error) {
	if mode == ModeStd {
		d, err := parseStdReader(r, lim)
		return d, false, err
	}
	var in io.Reader = r
	if lim.MaxDocBytes > 0 {
		in = &limitReader{r: r, max: lim.MaxDocBytes}
	}
	b := fastPool.Get().(*fastBuilder)
	b.sc.ResetReader(in)
	d, err := b.build(lim)
	if err == nil {
		b.sc.Release()
		fastPool.Put(b)
		return d, false, nil
	}
	var le *guard.LimitError
	if errors.As(err, &le) {
		b.sc.Release()
		fastPool.Put(b)
		if le.Kind == guard.DocBytes {
			// Reader-originated limit errors arrive wrapped in the package
			// prefix on the encoding/xml path (the decoder hands the
			// reader's error through and parseOneLimits wraps it); the
			// builder's own structural trips are returned bare there.
			return nil, false, fmt.Errorf("xmldoc: %w", err)
		}
		return nil, false, err
	}
	consumed := append([]byte(nil), b.sc.Consumed()...)
	b.sc.Release()
	fastPool.Put(b)
	d, err = parseStdReader(io.MultiReader(bytes.NewReader(consumed), r), lim)
	return d, true, err
}
