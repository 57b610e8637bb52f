package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/bits"
	"net/http"
	"slices"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The batch request: from the bytes of a POST /publish/batch body to one
// []byte per document. The body is read once under MaxRequestBytes, and
// its canonical shape, {"documents":[<string>,…]}, is un-escaped in one
// pass straight into the documents; every other body is decoded by
// encoding/json, whose results and errors stay the definition. DESIGN.md
// §12, "Request decode", has the subset and the reasons.

// presizeCap bounds how much of a declared Content-Length is allocated
// before the bytes arrive: a client that declares MaxRequestBytes and
// sends ten bytes costs this much at most, and a larger body grows from
// here as it is read.
const presizeCap = 1 << 20

// readBody reads r's body whole under a bound of max bytes. A body over
// the bound, declared or read, is an *http.MaxBytesError whatever it
// holds; a body shorter than its Content-Length is io.ErrUnexpectedEOF.
func readBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	n := r.ContentLength
	if n > max {
		return nil, &http.MaxBytesError{Limit: max}
	}
	want, size := n, n // bytes to read, and the first allocation
	if n < 0 {
		// No declared length (chunked): read to EOF, or to the
		// MaxBytesError past the bound.
		want, size = max+1, 512
	}
	src := http.MaxBytesReader(w, r.Body, max)
	b := make([]byte, 0, min(size, presizeCap))
	for int64(len(b)) < want {
		if len(b) == cap(b) {
			b = slices.Grow(b, int(min(want-int64(len(b)), int64(cap(b)))))
		}
		k, err := src.Read(b[len(b):min(int64(cap(b)), want)])
		b = b[:len(b)+k]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if int64(len(b)) < n {
		return nil, io.ErrUnexpectedEOF
	}
	return b, nil
}

// decodeBatch returns the documents of a /publish/batch body, each in a
// slice of its own: the delivery rings retain documents one by one, and
// one shared array would keep a whole batch alive for as long as any of
// them is queued.
func decodeBatch(body []byte) ([][]byte, error) {
	if docs, ok := decodeDocuments(body); ok {
		return docs, nil
	}
	var req struct {
		Documents []string `json:"documents"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	docs := make([][]byte, len(req.Documents))
	for i, d := range req.Documents {
		docs[i] = []byte(d)
	}
	return docs, nil
}

// batchScratch is decodeDocuments' pooled working state: the document
// being un-escaped, and the documents decoded so far.
type batchScratch struct {
	doc  []byte
	docs [][]byte
}

var batchScratches = sync.Pool{New: func() any { return new(batchScratch) }}

// decodeDocuments decodes body in one pass when it is exactly
// {"documents":[<string>,…]} with JSON whitespace anywhere: key spelled
// as shown, no other member, only strings in the array, and nothing but
// whitespace after the object. It declines (ok false) every other body,
// and a string that encoding/json would rewrite rather than copy (invalid
// UTF-8, a lone surrogate) or reject (a control byte, a bad escape). What
// it accepts, encoding/json decodes to the same bytes.
func decodeDocuments(body []byte) ([][]byte, bool) {
	const key = `"documents"`
	p := skipSpace(body, expect(body, skipSpace(body, 0), '{'))
	if p < 0 || !bytes.HasPrefix(body[p:], []byte(key)) {
		return nil, false
	}
	p = skipSpace(body, expect(body, skipSpace(body, p+len(key)), ':'))
	if p = skipSpace(body, expect(body, p, '[')); p < 0 {
		return nil, false
	}
	sc := batchScratches.Get().(*batchScratch)
	defer func() {
		clear(sc.docs)
		sc.docs = sc.docs[:0]
		batchScratches.Put(sc)
	}()
	for more := p < len(body) && body[p] != ']'; more; {
		var ok bool
		if sc.doc, p, ok = unquote(sc.doc[:0], body, p); !ok {
			return nil, false
		}
		doc := make([]byte, len(sc.doc))
		copy(doc, sc.doc)
		sc.docs = append(sc.docs, doc)
		p = skipSpace(body, p)
		if more = p < len(body) && body[p] == ','; more {
			p = skipSpace(body, p+1)
		}
	}
	p = expect(body, skipSpace(body, expect(body, p, ']')), '}')
	if p < 0 || skipSpace(body, p) != len(body) {
		return nil, false
	}
	return slices.Clone(sc.docs), true
}

// skipSpace returns the position of the first byte at or after p that is
// not JSON whitespace; a negative p stays as it is.
func skipSpace(b []byte, p int) int {
	for p >= 0 && p < len(b) && (b[p] == ' ' || b[p] == '\t' || b[p] == '\n' || b[p] == '\r') {
		p++
	}
	return p
}

// expect returns the position after b[p] when it is c, else -1; a
// negative p stays negative.
func expect(b []byte, p int, c byte) int {
	if p >= 0 && p < len(b) && b[p] == c {
		return p + 1
	}
	return -1
}

// plain marks the bytes a JSON string holds as themselves: ASCII from
// the space up, except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// notPlain returns the eight bytes of x, little-endian, with the top bit
// of the lowest byte that is not plain set, and zero when all are plain:
// each subtraction sets a byte's top bit where the byte is below the
// bound, and a borrow only reaches the bytes above one that was.
func notPlain(x uint64) uint64 {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	quote, slash := x^(ones*'"'), x^(ones*'\\')
	return (x | (x - ones*' ') | (quote - ones) | (slash - ones)) & tops
}

// unquote appends to dst the JSON string whose opening quote is at b[p]
// and returns the position after its closing quote. It fails where there
// is no string, and where encoding/json would fail or write U+FFFD for
// what b holds. Plain bytes move eight at a time: a word is stored whole
// and the output keeps as many of its bytes as notPlain finds plain.
func unquote(dst, b []byte, p int) ([]byte, int, bool) {
	if p = expect(b, p, '"'); p < 0 {
		return dst, 0, false
	}
	n := len(dst)
	dst = slices.Grow(dst, len(b)-p) // no string decodes to more bytes than it spans
	dst = dst[:cap(dst)]
	for p < len(b) {
		if p+8 <= len(b) && n+8 <= len(dst) {
			x := binary.LittleEndian.Uint64(b[p:])
			binary.LittleEndian.PutUint64(dst[n:], x)
			k := 8
			if m := notPlain(x); m != 0 {
				k = bits.TrailingZeros64(m) >> 3
			}
			if n, p = n+k, p+k; k == 8 {
				continue
			}
		} else if plain[b[p]] {
			dst[n], n, p = b[p], n+1, p+1
			continue
		}
		switch c := b[p]; {
		case c == '"':
			return dst[:n], p + 1, true
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[p:])
			if r == utf8.RuneError && size == 1 {
				return dst, 0, false
			}
			n += copy(dst[n:], b[p:p+size])
			p += size
		case c == '\\' && p+1 < len(b):
			if m := markup(b, p); m != 0 {
				dst[n], n, p = m, n+1, p+6
				continue
			}
			d, q, ok := unescape(dst[:n], b, p)
			if !ok {
				return dst, 0, false
			}
			dst, n, p = d[:cap(d)], len(d), q
		default: // a control byte, or a backslash ending the body
			return dst, 0, false
		}
	}
	return dst, 0, false
}

// escapes maps the byte after a backslash to the byte it stands for, for
// every escape but \u.
var escapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unescape appends what the escape at b[q] (a backslash with a byte after
// it) stands for and returns the position after it. A \u escape of a
// surrogate must be the high half of a pair whose low half follows.
func unescape(dst, b []byte, q int) ([]byte, int, bool) {
	if c := escapes[b[q+1]]; c != 0 {
		return append(dst, c), q + 2, true
	}
	r := hex4(b, q)
	if r < 0 {
		return dst, 0, false
	}
	if utf16.IsSurrogate(r) {
		if r = utf16.DecodeRune(r, hex4(b, q+6)); r == utf8.RuneError {
			return dst, 0, false
		}
		q += 6
	}
	return utf8.AppendRune(dst, r), q + 6, true
}

// markup returns the byte of the escape at b[q] when it is one of the
// three json.Marshal writes for markup, \u003c, \u003e and \u0026, and 0
// for any other; those go through unescape and hex4.
func markup(b []byte, q int) byte {
	if q+6 > len(b) || string(b[q:q+4]) != `\u00` {
		return 0
	}
	switch string(b[q+4 : q+6]) {
	case "3c":
		return '<'
	case "3e":
		return '>'
	case "26":
		return '&'
	}
	return 0
}

// hex4 returns the code unit of the \uXXXX escape at b[q], or -1 when
// there is none.
func hex4(b []byte, q int) rune {
	if q+6 > len(b) || b[q] != '\\' || b[q+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[q+2 : q+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
