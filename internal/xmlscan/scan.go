// Package xmlscan is a zero-copy, byte-level XML scanner for the
// filtering pipeline: it tokenizes the structural subset the path
// extractor consumes (start/end tags, attributes, character data) directly
// over the input bytes, with no per-token allocation. Tag and attribute
// names are returned as sub-slices of the input and interned through Dict;
// attribute values are returned raw (entities unexpanded) and decoded by
// the caller with AppendUnescaped into an arena of its choosing.
//
// The scanner deliberately covers only the XML subset the engine accepts
// today through encoding/xml, and it is strict the cheap way: anything
// outside the subset — DTDs and directives, namespaced element names,
// non-ASCII names, exotic declarations — fails with a *SyntaxError rather
// than being handled. Callers that need encoding/xml's exact judgement
// (package xmldoc does) re-parse rejected input with encoding/xml, so a
// scanner rejection is never load-bearing: on the accept path the scanner
// matches encoding/xml event for event, and on the reject path the
// fallback decides. Only the five predefined entities (amp, lt, gt, apos,
// quot) and numeric character references are expanded; there is no DTD
// entity expansion at all.
package xmlscan

import (
	"fmt"
	"unicode/utf8"
)

// Kind classifies the current token.
type Kind uint8

const (
	// EOF means the input is exhausted (only returned without error when
	// the input ends between tokens).
	EOF Kind = iota
	// Start is a start tag (or the start-tag half of a self-closing
	// element); Name and Attrs describe it.
	Start
	// End is an end tag (or the synthesized end of a self-closing
	// element); Name describes it.
	End
	// Text is character data or CDATA content; Data holds the raw bytes
	// (entities validated but unexpanded, CR unnormalized).
	Text
)

// Attr is one attribute of a start tag. Name is the local name (namespace
// prefix stripped); Value is the raw value between the quotes — entities
// are validated on the text path but expanded only when the caller asks
// via AppendUnescaped. Both alias the scanner's input buffer and are valid
// until the next call to Next.
type Attr struct {
	Name  []byte
	Value []byte
}

// SyntaxError reports input the scanner does not accept, with the byte
// offset it stopped at. It covers both genuinely malformed XML and
// well-formed XML outside the scanner's subset; callers that must
// distinguish re-parse with encoding/xml.
type SyntaxError struct {
	Msg string
	Off int
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlscan: %s at byte offset %d", e.Msg, e.Off)
}

// Scanner tokenizes one document. The zero value is unusable; call
// ResetBytes first. A Scanner is reusable (that is the point: its internal
// buffers persist across documents) but not safe for concurrent use.
type Scanner struct {
	buf []byte // the input
	pos int

	// Current token, valid until the next call to Next. All byte slices
	// alias buf.
	Name  []byte
	Attrs []Attr
	Data  []byte

	pendingEnd bool // a self-closed element owes an End token
	err        error
}

const maxEntityLen = 64 // longest &...; span the scanner accepts

// ResetBytes readies the scanner over in-memory input. The input is not
// copied; tokens alias it.
func (s *Scanner) ResetBytes(data []byte) {
	s.buf = data
	s.pos = 0
	s.Name = nil
	s.Data = nil
	s.Attrs = s.Attrs[:0]
	s.pendingEnd = false
	s.err = nil
}

// Release drops the reference to the input. Call it before pooling the
// scanner so a pooled scanner does not pin a caller's document alive.
func (s *Scanner) Release() {
	s.buf = nil
	s.Name = nil
	s.Data = nil
	s.Attrs = s.Attrs[:0]
}

// ensure reports whether at least n bytes are left at pos.
func (s *Scanner) ensure(n int) bool { return len(s.buf)-s.pos >= n }

// serr records and returns a syntax error at the current offset.
func (s *Scanner) serr(msg string) error {
	s.err = &SyntaxError{Msg: msg, Off: s.pos}
	return s.err
}

// needMore records running out of input mid-token.
func (s *Scanner) needMore() error { return s.serr("unexpected EOF") }

// Next advances to the next token. It returns EOF with a nil error at
// clean end of input; any other condition that stops the scan returns the
// sticky *SyntaxError.
func (s *Scanner) Next() (Kind, error) {
	if s.err != nil {
		return EOF, s.err
	}
	if s.pendingEnd {
		s.pendingEnd = false
		return End, nil
	}
	for {
		if !s.ensure(1) {
			return EOF, nil
		}
		if s.buf[s.pos] != '<' {
			return s.text()
		}
		if !s.ensure(2) {
			return EOF, s.needMore()
		}
		switch s.buf[s.pos+1] {
		case '/':
			return s.endTag()
		case '?':
			if err := s.procInst(); err != nil {
				return EOF, err
			}
		case '!':
			emit, err := s.bang()
			if err != nil {
				return EOF, err
			}
			if emit {
				return Text, nil
			}
		default:
			return s.startTag()
		}
	}
}

// text scans a run of character data up to the next '<' or EOF,
// validating characters and entities without expanding anything.
func (s *Scanner) text() (Kind, error) {
	start := s.pos
	for {
		if s.pos == len(s.buf) {
			break
		}
		c := s.buf[s.pos]
		switch {
		case c == '<':
			goto done
		case c == '&':
			if err := s.checkEntity(); err != nil {
				return EOF, err
			}
		case c == ']':
			// "]]>" may not appear raw in character data.
			if s.ensure(3) && s.buf[s.pos+1] == ']' && s.buf[s.pos+2] == '>' {
				return EOF, s.serr("unescaped ]]> not in CDATA section")
			}
			s.pos++
		case c == '\t' || c == '\n' || c == '\r':
			s.pos++
		case c < 0x20:
			return EOF, s.serr("illegal character code in character data")
		case c < 0x80:
			s.pos++
		default:
			if err := s.checkRune(); err != nil {
				return EOF, err
			}
		}
	}
done:
	s.Data = s.buf[start:s.pos]
	return Text, nil
}

// checkEntity validates the &...; reference at pos and steps past it.
func (s *Scanner) checkEntity() error {
	i := s.pos + 1
	for {
		if i == len(s.buf) {
			return s.needMore()
		}
		if i-s.pos > maxEntityLen {
			return s.serr("character entity too long")
		}
		if s.buf[i] == ';' {
			break
		}
		i++
	}
	if _, err := ParseEntity(s.buf[s.pos : i+1]); err != nil {
		return s.serr(err.Error())
	}
	s.pos = i + 1
	return nil
}

// checkRune validates one multi-byte UTF-8 sequence at pos and steps past
// it.
func (s *Scanner) checkRune() error {
	r, size := utf8.DecodeRune(s.buf[s.pos:])
	if r == utf8.RuneError && size <= 1 {
		return s.serr("invalid UTF-8")
	}
	if !InCharRange(r) {
		return s.serr("illegal character code")
	}
	s.pos += size
	return nil
}

// Name classification. The scanner only accepts ASCII names; XML permits
// a large Unicode name alphabet, which encoding/xml implements — inputs
// using it are out of subset and routed to the fallback by erroring here.
const (
	nameElem = iota // element names: no colon (namespaced elements are out of subset)
	nameAttr        // attribute names: one colon splits prefix:local
	namePI          // processing-instruction targets: colons pass through
)

func isNameStartByte(c byte) bool {
	return c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameByte(c byte) bool {
	return isNameStartByte(c) || c == '-' || c == '.' ||
		(c >= '0' && c <= '9')
}

// readName scans an XML name at pos per the kind's rules and returns the
// local part.
func (s *Scanner) readName(kind int) ([]byte, error) {
	if s.pos == len(s.buf) {
		return nil, s.needMore()
	}
	start := s.pos
	c := s.buf[s.pos]
	if !isNameStartByte(c) || (kind == nameElem && c == ':') {
		return nil, s.serr("invalid XML name")
	}
	colon := -1
	if c == ':' {
		colon = 0
	}
	s.pos++
	for {
		if s.pos == len(s.buf) {
			break
		}
		c = s.buf[s.pos]
		if !isNameByte(c) {
			if c >= 0x80 {
				// encoding/xml folds non-ASCII bytes into the name and
				// validates the result as UTF-8; it may accept (Unicode
				// name) or reject (bad encoding). Either way it is out of
				// this scanner's ASCII-name subset.
				return nil, s.serr("non-ASCII byte in name")
			}
			break
		}
		if c == ':' {
			switch kind {
			case nameElem:
				return nil, s.serr("colon in element name")
			case nameAttr:
				if colon >= 0 {
					return nil, s.serr("multiple colons in attribute name")
				}
				colon = s.pos - start
			}
		}
		s.pos++
	}
	name := s.buf[start:s.pos]
	if kind == nameAttr && colon > 0 && colon < len(name)-1 {
		// prefix:local — the pipeline consumes local names only. Edge
		// colons (":a", "a:") keep the whole name, as encoding/xml does.
		name = name[colon+1:]
	}
	return name, nil
}

// skipSpace advances past XML whitespace, guaranteeing at least one more
// byte is available on return.
func (s *Scanner) skipSpace() error {
	for {
		if s.pos == len(s.buf) {
			return s.needMore()
		}
		switch s.buf[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return nil
		}
	}
}

// startTag scans "<name (attr="value")* /?>".
func (s *Scanner) startTag() (Kind, error) {
	s.pos++ // '<'
	name, err := s.readName(nameElem)
	if err != nil {
		return EOF, err
	}
	s.Name = name
	s.Attrs = s.Attrs[:0]
	for {
		if err := s.skipSpace(); err != nil {
			return EOF, err
		}
		switch c := s.buf[s.pos]; c {
		case '>':
			s.pos++
			return Start, nil
		case '/':
			if !s.ensure(2) {
				return EOF, s.needMore()
			}
			if s.buf[s.pos+1] != '>' {
				return EOF, s.serr("expected /> in element")
			}
			s.pos += 2
			s.pendingEnd = true
			return Start, nil
		}
		aname, err := s.readName(nameAttr)
		if err != nil {
			return EOF, err
		}
		if err := s.skipSpace(); err != nil {
			return EOF, err
		}
		if s.buf[s.pos] != '=' {
			return EOF, s.serr("attribute name without = in element")
		}
		s.pos++
		if err := s.skipSpace(); err != nil {
			return EOF, err
		}
		q := s.buf[s.pos]
		if q != '"' && q != '\'' {
			return EOF, s.serr("unquoted or missing attribute value in element")
		}
		s.pos++
		vstart := s.pos
		for {
			if s.pos == len(s.buf) {
				return EOF, s.needMore()
			}
			if s.buf[s.pos] == q {
				break
			}
			s.pos++
		}
		val := s.buf[vstart:s.pos]
		s.pos++
		s.Attrs = append(s.Attrs, Attr{Name: aname, Value: val})
	}
}

// endTag scans "</name >".
func (s *Scanner) endTag() (Kind, error) {
	s.pos += 2 // "</"
	name, err := s.readName(nameElem)
	if err != nil {
		return EOF, err
	}
	if err := s.skipSpace(); err != nil {
		return EOF, err
	}
	if s.buf[s.pos] != '>' {
		return EOF, s.serr("invalid characters between end tag name and >")
	}
	s.pos++
	s.Name = name
	return End, nil
}

// procInst scans "<?target ...?>", checking an XML declaration's encoding
// when the target is "xml". Instruction bodies are not character-validated
// (encoding/xml does not validate them either).
func (s *Scanner) procInst() error {
	s.pos += 2 // "<?"
	target, err := s.readName(namePI)
	if err != nil {
		return err
	}
	istart := s.pos
	for {
		if !s.ensure(2) {
			return s.needMore()
		}
		if s.buf[s.pos] == '?' && s.buf[s.pos+1] == '>' {
			break
		}
		s.pos++
	}
	inst := s.buf[istart:s.pos]
	s.pos += 2
	if string(target) == "xml" {
		return s.checkXMLDecl(inst)
	}
	return nil
}

// checkXMLDecl rejects XML declarations that name a non-UTF-8 encoding or
// a version other than 1.0. It is deliberately pessimistic: every
// "encoding="/"version=" occurrence is checked (encoding/xml takes the
// first one its own extraction finds), and anything not clearly
// utf-8/1.0 is an error so the fallback gets the final word.
func (s *Scanner) checkXMLDecl(inst []byte) error {
	if !declParamOK(inst, "encoding=", "utf-8") {
		return s.serr("xml declaration names a non-UTF-8 encoding")
	}
	if !declParamOK(inst, "version=", "1.0") {
		return s.serr("xml declaration names an unsupported version")
	}
	return nil
}

// declParamOK reports whether every quoted param occurrence in an XML
// declaration body carries the one accepted value (ASCII case-folded).
// Unquoted and unterminated occurrences are skipped, as encoding/xml's
// extraction skips them too.
func declParamOK(inst []byte, param, want string) bool {
	for i := 0; i+len(param) <= len(inst); i++ {
		if inst[i] != param[0] || string(inst[i:i+len(param)]) != param {
			continue
		}
		rest := inst[i+len(param):]
		if len(rest) == 0 {
			continue
		}
		q := rest[0]
		if q != '"' && q != '\'' {
			continue // unquoted: encoding/xml extracts nothing
		}
		end := -1
		for j := 1; j < len(rest); j++ {
			if rest[j] == q {
				end = j
				break
			}
		}
		if end < 0 {
			continue // unterminated: encoding/xml extracts nothing
		}
		if !asciiEqualFold(rest[1:end], want) {
			return false
		}
	}
	return true
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if d >= 'A' && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// bang dispatches "<!...": comments and CDATA sections are in subset;
// everything else (DOCTYPE and other directives) is not and errors so the
// fallback can decide.
func (s *Scanner) bang() (emitText bool, err error) {
	if !s.ensure(4) {
		return false, s.needMore()
	}
	if s.buf[s.pos+2] == '-' && s.buf[s.pos+3] == '-' {
		s.pos += 4
		return false, s.comment()
	}
	if s.buf[s.pos+2] == '[' {
		if !s.ensure(9) {
			return false, s.needMore()
		}
		if string(s.buf[s.pos+3:s.pos+9]) == "CDATA[" {
			s.pos += 9
			return true, s.cdata()
		}
		return false, s.serr("invalid <![ sequence")
	}
	return false, s.serr("directives are not supported")
}

// comment scans to "-->"; a "--" not followed by '>' is an error, as in
// encoding/xml. Comment bodies are not character-validated (encoding/xml
// does not validate them either).
func (s *Scanner) comment() error {
	for {
		if !s.ensure(1) {
			return s.needMore()
		}
		if s.buf[s.pos] != '-' {
			s.pos++
			continue
		}
		if !s.ensure(2) {
			return s.needMore()
		}
		if s.buf[s.pos+1] != '-' {
			s.pos += 2
			continue
		}
		if !s.ensure(3) {
			return s.needMore()
		}
		if s.buf[s.pos+2] != '>' {
			return s.serr(`invalid sequence "--" in comment`)
		}
		s.pos += 3
		return nil
	}
}

// cdata scans "<![CDATA[ ... ]]>", character-validating the content, and
// leaves it in Data.
func (s *Scanner) cdata() error {
	start := s.pos
	for {
		if s.pos == len(s.buf) {
			return s.needMore()
		}
		c := s.buf[s.pos]
		switch {
		case c == ']':
			if s.ensure(3) && s.buf[s.pos+1] == ']' && s.buf[s.pos+2] == '>' {
				s.Data = s.buf[start:s.pos]
				s.pos += 3
				return nil
			}
			s.pos++
		case c == '\t' || c == '\n' || c == '\r':
			s.pos++
		case c < 0x20:
			return s.serr("illegal character code in CDATA section")
		case c < 0x80:
			s.pos++
		default:
			if err := s.checkRune(); err != nil {
				return err
			}
		}
	}
}
