package xmlscan

import (
	"bytes"
	"testing"
)

// tok is a flattened token for test expectations.
type tok struct {
	kind  Kind
	name  string
	attrs []Attr
	data  string
}

func drain(t *testing.T, s *Scanner) ([]tok, error) {
	t.Helper()
	var out []tok
	for {
		k, err := s.Next()
		if err != nil {
			return out, err
		}
		switch k {
		case EOF:
			return out, nil
		case Start:
			tk := tok{kind: Start, name: string(s.Name)}
			for _, a := range s.Attrs {
				tk.attrs = append(tk.attrs, Attr{Name: append([]byte(nil), a.Name...), Value: append([]byte(nil), a.Value...)})
			}
			out = append(out, tk)
		case End:
			out = append(out, tok{kind: End, name: string(s.Name)})
		case Text:
			out = append(out, tok{kind: Text, data: string(s.Data)})
		}
	}
}

func TestScannerBasic(t *testing.T) {
	var s Scanner
	s.ResetBytes([]byte(`<a x="1" y='2'><b/>text</a>`))
	toks, err := drain(t, &s)
	if err != nil {
		t.Fatal(err)
	}
	want := []tok{
		{kind: Start, name: "a"},
		{kind: Start, name: "b"},
		{kind: End, name: "b"},
		{kind: Text, data: "text"},
		{kind: End, name: "a"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(want), toks)
	}
	for i := range want {
		if toks[i].kind != want[i].kind || toks[i].name != want[i].name {
			t.Errorf("token %d: got %+v want %+v", i, toks[i], want[i])
		}
	}
	if len(toks[0].attrs) != 2 || string(toks[0].attrs[0].Name) != "x" ||
		string(toks[0].attrs[0].Value) != "1" || string(toks[0].attrs[1].Value) != "2" {
		t.Errorf("attrs: %+v", toks[0].attrs)
	}
}

func TestScannerSkipsNonElements(t *testing.T) {
	in := "\uFEFF<?xml version=\"1.0\" encoding=\"UTF-8\"?><!--c--><a><![CDATA[<raw>]]></a><!--trailing-->"
	var s Scanner
	s.ResetBytes([]byte(in))
	toks, err := drain(t, &s)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	// BOM text, start, CDATA text, end.
	want := []Kind{Text, Start, Text, End}
	if len(kinds) != len(want) {
		t.Fatalf("kinds %v, want %v (tokens %+v)", kinds, want, toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds %v, want %v", kinds, want)
		}
	}
	if toks[2].data != "<raw>" {
		t.Errorf("CDATA data %q", toks[2].data)
	}
}

func TestScannerRejects(t *testing.T) {
	// Tag matching is the caller's job; everything here is rejected by the
	// tokenizer itself.
	bad := []string{
		"<!DOCTYPE x>", // directives out of subset
		"<p:a></p:a>",  // namespaced element names out of subset
		"<a>\x01</a>",  // illegal control character
		"<a>]]></a>",   // raw ]]> in character data
		"<a>&unknown;</a>",
		"<a b=c></a>", // unquoted attribute value
		"<a b></a>",   // attribute without value
		"<a/ >",       // space inside />
		"</ a>",       // space before end-tag name
		"<a><![CDAT[x]]></a>",
		"<a><!-- -- --></a>",
		"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><a/>",
		"<a \xc3>", // invalid UTF-8 opening an attribute name
	}
	for _, in := range bad {
		var s Scanner
		s.ResetBytes([]byte(in))
		if _, err := drain(t, &s); err == nil {
			t.Errorf("scanner accepted %q", in)
		}
	}
}

func TestScannerEntities(t *testing.T) {
	cases := map[string]string{
		"&amp;":     "&",
		"&lt;":      "<",
		"&gt;":      ">",
		"&apos;":    "'",
		"&quot;":    `"`,
		"&#65;":     "A",
		"&#x41;":    "A",
		"&#x1F600;": "\U0001F600",
		"&#xD800;":  "�", // surrogate maps to the replacement rune, as in encoding/xml
	}
	for in, want := range cases {
		out, err := AppendUnescaped(nil, []byte(in))
		if err != nil {
			t.Errorf("AppendUnescaped(%q): %v", in, err)
			continue
		}
		if string(out) != want {
			t.Errorf("AppendUnescaped(%q) = %q, want %q", in, out, want)
		}
	}
	for _, bad := range []string{"&#X41;", "&#;", "&#x;", "&nope;", "&", "&amp", "&#x110000;"} {
		if _, err := AppendUnescaped(nil, []byte(bad)); err == nil {
			t.Errorf("AppendUnescaped(%q) accepted", bad)
		}
	}
	// CR normalization applies to literal CRs only.
	out, err := AppendUnescaped(nil, []byte("a\r\nb\rc&#13;d"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "a\nb\nc\rd" {
		t.Errorf("CR normalization: %q", out)
	}
}

func TestDictInterns(t *testing.T) {
	d := NewDict()
	a := d.Intern([]byte("headline"))
	b := d.Intern([]byte("headline"))
	if a != "headline" || b != "headline" {
		t.Fatalf("Intern: %q %q", a, b)
	}
	if len(d.m) != 1 {
		t.Fatalf("entries = %d", len(d.m))
	}
	if d.bytes != len("headline") {
		t.Fatalf("bytes = %d", d.bytes)
	}
	if got := d.Intern(nil); got != "" {
		t.Fatalf("Intern(nil) = %q", got)
	}
}

func TestScannerSelfCloseAttrs(t *testing.T) {
	var s Scanner
	s.ResetBytes([]byte(`<a b="1"c="2"/>`)) // no space between attributes, as encoding/xml allows
	toks, err := drain(t, &s)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].kind != Start || toks[1].kind != End {
		t.Fatalf("tokens %+v", toks)
	}
	if len(toks[0].attrs) != 2 {
		t.Fatalf("attrs %+v", toks[0].attrs)
	}
}

func TestScannerAttrNamespaceSplit(t *testing.T) {
	var s Scanner
	s.ResetBytes([]byte(`<a xml:lang="en" :edge="1" edge:="2"/>`))
	toks, err := drain(t, &s)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for _, a := range toks[0].attrs {
		got = append(got, string(a.Name))
	}
	want := []string{"lang", ":edge", "edge:"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attr names %v, want %v", got, want)
		}
	}
}

func TestScannerLargeDocNoCorruption(t *testing.T) {
	// A large document's token stream stays coherent end to end.
	var b bytes.Buffer
	b.WriteString("<root>")
	for i := 0; i < 5000; i++ {
		b.WriteString(`<item key="value-value-value">payload text</item>`)
	}
	b.WriteString("</root>")
	var s Scanner
	s.ResetBytes(b.Bytes())
	starts, ends := 0, 0
	for {
		k, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if k == EOF {
			break
		}
		switch k {
		case Start:
			starts++
			if string(s.Name) != "root" && string(s.Name) != "item" {
				t.Fatalf("bad name %q", s.Name)
			}
		case End:
			ends++
		}
	}
	if starts != 5001 || ends != 5001 {
		t.Fatalf("starts=%d ends=%d", starts, ends)
	}
}

// TestScannerErrorOffsets pins, for inputs whose scanning loops run long
// before a byte they leave to the full checks (or before EOF), how many
// tokens the scanner returns and the error it stops with, offset included:
// the values the byte-at-a-time loops gave.
func TestScannerErrorOffsets(t *testing.T) {
	for _, c := range []struct {
		in     string
		tokens int
		err    string
	}{
		{"<abcdefghijklmnopqrstuvwxyz", 0, "xmlscan: unexpected EOF at byte offset 27"},
		{"<a>abcdefghijklmnopqrstuvwxyz", 2, ""},
		{"<a b=\"abcdefghijklmnopqrstuvwxyz", 0, "xmlscan: unexpected EOF at byte offset 32"},
		{"<abcdefghijklmnopqrstuvwxyz:b/>", 0, "xmlscan: colon in element name at byte offset 27"},
		{"<a abcdefghijklmnopqrstuvwxyz:b=\"1\"/>", 2, ""},
		{"<a abcdefghijklmnop:qrstuvwxyz:b=\"1\"/>", 0, "xmlscan: multiple colons in attribute name at byte offset 30"},
		{"<a>abcdefghijklmnopqrstuvwxyz\x01</a>", 1, "xmlscan: illegal character code in character data at byte offset 29"},
		{"<a>abcdefghijklmnopqrstuvwxyz\xe9</a>", 1, "xmlscan: invalid UTF-8 at byte offset 29"},
		{"<a>abcdefghijklmnopqrstuvwxyz\ufffe</a>", 1, "xmlscan: illegal character code at byte offset 29"},
		{"<a>abcdefghijklmnop]]>qrstuvwxyz</a>", 1, "xmlscan: unescaped ]]> not in CDATA section at byte offset 19"},
		{"<a>abcdefghijklmnop&bogus;</a>", 1, "xmlscan: invalid character entity at byte offset 19"},
		{"<a>abcdefghijklmnop&amp", 1, "xmlscan: unexpected EOF at byte offset 19"},
		{"<abcdefghijklmnop\x80/>", 0, "xmlscan: non-ASCII byte in name at byte offset 17"},
		{"<a b='abcdefghijklmnop\"qrstuvwxyz></a>", 0, "xmlscan: unexpected EOF at byte offset 38"},
		{"<:a/>", 0, "xmlscan: invalid XML name at byte offset 1"},
		{"<a :b='1'/>", 2, ""},
		{"<a b:='1'/>", 2, ""},
		{"<1a/>", 0, "xmlscan: invalid XML name at byte offset 1"},
		{"</abcdefghijklmnop", 0, "xmlscan: unexpected EOF at byte offset 18"},
		{"<a>x</abcdefghijklmnop:q>", 2, "xmlscan: colon in element name at byte offset 22"},
		{"<?abc:def?><a/>", 2, ""},
	} {
		var s Scanner
		s.ResetBytes([]byte(c.in))
		n, msg := 0, ""
		for {
			k, err := s.Next()
			if err != nil {
				msg = err.Error()
			}
			if err != nil || k == EOF {
				break
			}
			n++
		}
		if n != c.tokens || msg != c.err {
			t.Errorf("%q: %d tokens, error %q; want %d, %q", c.in, n, msg, c.tokens, c.err)
		}
	}
}
