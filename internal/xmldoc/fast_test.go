package xmldoc

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"predfilter/internal/guard"
)

// equivCases is shared by the table test and the fuzz seed corpus: inputs
// chosen to hit the scanner's edges (accepted and rejected alike). On
// every one of them ModeAuto and ModeStd must agree.
var equivCases = []string{
	// Plain structure.
	`<a/>`,
	`<a></a>`,
	`<a><b/><b/><c><d/></c></a>`,
	`<r><x><y><z>deep</z></y></x></r>`,
	// Attributes: quoting styles, duplicates, no inter-attr space,
	// namespace prefixes, whitespace around '='.
	`<a x="1" y='2'/>`,
	`<a x="1"y='2'/>`,
	`<a x = "1"/>`,
	`<a x="1" x="2"/>`,
	`<a xml:lang="en" xmlns="u" xmlns:p="v" p:q="w"/>`,
	`<a :x="1" y:="2"/>`,
	`<a value="a&amp;b&lt;c&gt;d&apos;e&quot;f"/>`,
	`<a v="&#65;&#x41;&#x1f600;"/>`,
	`<a v="tab	tab"/>`,
	"<a v=\"line\nline\"/>",
	"<a v=\"cr\rcr\"/>",
	"<a v=\"crlf\r\nx\"/>",
	`<a v="&#13;"/>`,
	`<a v=">]]>ok"/>`,
	`<a v="bad<bad"/>`,
	`<a v="&#xD800;"/>`,
	`<a v="&bad;"/>`,
	`<a v="&#x110000;"/>`,
	`<a v='mixed "quotes"'/>`,
	`<a b="1" b="1" b="1"/>`,
	// Character data.
	`<a>text</a>`,
	`<a>one<b>two</b>three</a>`,
	"<a>\r\n\t mixed \r ws</a>",
	`<a>&amp;&#65;</a>`,
	`<a>]]</a>`,
	`<a>]]></a>`,
	`<a>&nope;</a>`,
	"<a>\x00</a>",
	"<a>\x1f</a>",
	"<a>\x7f</a>",
	"<a>\ufffd</a>",
	"<a>\xff\xfe</a>",
	"<a>héllo wörld 漢字 🙂</a>",
	// CDATA, comments, PIs.
	`<a><![CDATA[<not><tags>&amp;]]></a>`,
	`<a><![CDATA[]]]><![CDATA[]]]]><![CDATA[>]]></a>`,
	`<a><![CDAT[x]]></a>`,
	`<a><![cdata[x]]></a>`,
	`<a><!-- comment -- --></a>`,
	`<a><!-- ok - dash --></a>`,
	`<!----><a/>`,
	`<!-----><a/>`,
	`<a><?pi body?></a>`,
	`<a><?pi?></a>`,
	`<?target data?><a/>`,
	`<?xml version="1.0"?><a/>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version="1.0" encoding="utf-8"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<a/><?xml version="1.0" encoding="ISO-8859-1"?>`,
	`<a><?xml encoding="ISO-8859-1"?></a>`,
	`<?xml version="1.0" xencoding="ISO-8859-1"?><a/>`,
	`<?xml version="1.0" encoding=utf-8?><a/>`,
	`<?xml version="1.0" encoding="utf-8?><a/>`,
	`<?xml version="0"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version=""?><a/>`,
	`<?xml version=1.1?><a/>`,
	`<a/><?xml version="2.0"?>`,
	// Doctype and directives: out of the scanner's subset, settled by the
	// fallback.
	`<!DOCTYPE doc><doc/>`,
	`<!DOCTYPE doc [<!ELEMENT doc EMPTY>]><doc/>`,
	`<!ENTITY x "y"><a/>`,
	// Leading/trailing content around the root.
	"\uFEFF<a/>",
	`  <a/>  `,
	"junk<a/>junk",
	`<a/><b/>`,
	`<a/></b>`,
	`<a/><!-- trailing -->`,
	`<a/><!-- unterminated`,
	`<a/><?pi data?>`,
	`<a/><![CDATA[x]]>`,
	// Malformed structure.
	``,
	`   `,
	`<`,
	`<a`,
	`<a>`,
	`</a>`,
	`<a><b></a>`,
	`<a></a`,
	`<a b="1"`,
	`<a b="1`,
	`<a/ >`,
	`</ a>`,
	"</a\t\n>",
	`</a x>`,
	`<a b = c/>`,
	`<a b/>`,
	`<1a/>`,
	`<-a/>`,
	`<a.b-c_d/>`,
	`<a><a><a></a></a></a>`,
	// Namespaced element names (fallback path) including the mismatched
	// end-tag quirk encoding/xml accepts.
	`<p:a xmlns:p="u"></p:a>`,
	`<p:a xmlns:p="u" xmlns:q="u"></q:a>`,
	`<p:q:r/>`,
	// Unicode names (fallback path).
	`<日本語>x</日本語>`,
	`<a é="1"/>`,
	`<aé/>`,
	// Non-ASCII bytes terminating a name: encoding/xml folds them into the
	// name and then validates it as UTF-8 (fuzzer-found divergence).
	"<?A\x800?><A/>",
	"<?pi\xc3\xa9 x?><a/>",
	"<a\x80/>",
	"<a b\x80=\"1\"/>",
	// Self-closing with the works.
	`<a><b c="1" d='2'/><b/></a>`,
}

// parseBoth parses data under both parser selections and fails the test on
// any accept/reject or structural divergence. It returns the ModeStd view.
func parseBoth(t testing.TB, data []byte, lim guard.Limits) (*Document, error) {
	t.Helper()
	ds, errS := ParseLimitsMode(data, lim, ModeAuto)
	dx, errX := ParseLimitsMode(data, lim, ModeStd)
	if (errS == nil) != (errX == nil) {
		t.Fatalf("accept/reject divergence on %q:\n  scan: %v\n  std:  %v", data, errS, errX)
	}
	if errS == nil && !reflect.DeepEqual(ds, dx) {
		t.Fatalf("document divergence on %q:\n  scan: %+v\n  std:  %+v", data, ds, dx)
	}
	// Reader mode must agree with byte mode.
	dr, errR := ParseReader(bytes.NewReader(data), nil, lim, ModeAuto)
	if (errR == nil) != (errX == nil) {
		t.Fatalf("reader accept/reject divergence on %q:\n  scan(reader): %v\n  std:          %v", data, errR, errX)
	}
	if errR == nil && !reflect.DeepEqual(dr, dx) {
		t.Fatalf("reader document divergence on %q", data)
	}
	return dx, errX
}

func TestScanEquivalenceTable(t *testing.T) {
	for _, in := range equivCases {
		parseBoth(t, []byte(in), guard.Limits{})
	}
}

func TestScanEquivalenceOneByteReader(t *testing.T) {
	// Every refill boundary in reader mode, on the accepted subset.
	for _, in := range equivCases {
		dx, errX := ParseLimitsMode([]byte(in), guard.Limits{}, ModeStd)
		dr, errR := ParseReader(oneByteReader{strings.NewReader(in)}, nil, guard.Limits{}, ModeAuto)
		if (errR == nil) != (errX == nil) {
			t.Fatalf("one-byte reader divergence on %q: scan=%v std=%v", in, errR, errX)
		}
		if errR == nil && !reflect.DeepEqual(dr, dx) {
			t.Fatalf("one-byte reader document divergence on %q", in)
		}
	}
}

type oneByteReader struct{ r *strings.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

func TestScanModeLimitsEquivalence(t *testing.T) {
	// Structural limits must trip identically (same kind, limit, got) on
	// both parser paths.
	deep := "<d><d><d><d><d><d>x</d></d></d></d></d></d>"
	wide := "<r><a/><b/><c/><e/></r>"
	cases := []struct {
		in  string
		lim guard.Limits
	}{
		{deep, guard.Limits{MaxDepth: 3}},
		{deep, guard.Limits{MaxDepth: 6}},
		{deep, guard.Limits{MaxDepth: 7}},
		{wide, guard.Limits{MaxPaths: 3}},
		{wide, guard.Limits{MaxPaths: 4}},
		{wide, guard.Limits{MaxTuples: 7}},
		{wide, guard.Limits{MaxTuples: 8}},
		{wide, guard.Limits{MaxDocBytes: 10}},
		{wide, guard.Limits{MaxDocBytes: int64(len(wide))}},
	}
	for _, c := range cases {
		_, errS := ParseLimitsMode([]byte(c.in), c.lim, ModeAuto)
		_, errX := ParseLimitsMode([]byte(c.in), c.lim, ModeStd)
		var leS, leX *guard.LimitError
		asS, asX := errors.As(errS, &leS), errors.As(errX, &leX)
		if asS != asX {
			t.Fatalf("limit divergence on %q %+v: scan=%v std=%v", c.in, c.lim, errS, errX)
		}
		if asS && (leS.Kind != leX.Kind || leS.Limit != leX.Limit || leS.Got != leX.Got) {
			t.Fatalf("limit detail divergence on %q %+v:\n  scan: %+v\n  std:  %+v", c.in, c.lim, leS, leX)
		}
	}
}

func TestScanFallbackProducesStdErrors(t *testing.T) {
	// A rejected document must surface encoding/xml's own error through
	// the fast path, because the fallback re-parse is authoritative.
	_, errS := ParseLimitsMode([]byte(`<a><b></a>`), guard.Limits{}, ModeAuto)
	_, errX := ParseLimitsMode([]byte(`<a><b></a>`), guard.Limits{}, ModeStd)
	if errS == nil || errX == nil {
		t.Fatalf("both must reject: scan=%v std=%v", errS, errX)
	}
	if errS.Error() != errX.Error() {
		t.Fatalf("error text diverges:\n  scan: %v\n  std:  %v", errS, errX)
	}
}

func TestScanReaderFallbackReplaysConsumedPrefix(t *testing.T) {
	// DOCTYPE up front sends the scanner to the fallback after part of the
	// stream is consumed; the replay must hand encoding/xml the full
	// document.
	doc := `<!DOCTYPE doc><doc><a x="1"/><b>t</b></doc>`
	d, err := ParseReader(strings.NewReader(doc), nil, guard.Limits{}, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if d.Elements != 3 || len(d.Paths) != 2 {
		t.Fatalf("Elements=%d Paths=%d", d.Elements, len(d.Paths))
	}
}

func TestScanAttrsNilWhenAbsent(t *testing.T) {
	d, err := ParseLimitsMode([]byte(`<a><b c="1"/></a>`), guard.Limits{}, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	tup := d.Paths[0].Tuples
	if tup[0].Attrs != nil {
		t.Errorf("attr-less element has non-nil Attrs: %+v", tup[0].Attrs)
	}
	if v, ok := tup[1].Attr("c"); !ok || v != "1" {
		t.Errorf("attr lookup: %q %v", v, ok)
	}
}
