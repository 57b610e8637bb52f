package xmldoc

import (
	"bytes"
	"errors"
	"testing"

	"predfilter/internal/guard"
)

func nested(depth int) []byte {
	var b bytes.Buffer
	for i := 0; i < depth; i++ {
		b.WriteString("<d>")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</d>")
	}
	return b.Bytes()
}

func wide(leaves int) []byte {
	var b bytes.Buffer
	b.WriteString("<r>")
	for i := 0; i < leaves; i++ {
		b.WriteString("<p/>")
	}
	b.WriteString("</r>")
	return b.Bytes()
}

func wantLimit(t *testing.T, err error, kind guard.Kind) *guard.LimitError {
	t.Helper()
	var le *guard.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *guard.LimitError", err)
	}
	if le.Kind != kind {
		t.Fatalf("tripped %v, want %v (err: %v)", le.Kind, kind, err)
	}
	if le.Stage != "parse" {
		t.Fatalf("Stage = %q, want parse", le.Stage)
	}
	return le
}

func TestParseLimitsDepth(t *testing.T) {
	doc := nested(10)
	if _, err := ParseLimitsMode(doc, guard.Limits{MaxDepth: 10}, ModeAuto); err != nil {
		t.Fatalf("depth exactly at bound: %v", err)
	}
	le := wantLimit(t, mustErr(t, doc, guard.Limits{MaxDepth: 9}), guard.Depth)
	if le.Limit != 9 || le.Got != 10 {
		t.Fatalf("LimitError = %+v, want Limit=9 Got=10", le)
	}
}

func TestParseLimitsPaths(t *testing.T) {
	doc := wide(8)
	if _, err := ParseLimitsMode(doc, guard.Limits{MaxPaths: 8}, ModeAuto); err != nil {
		t.Fatalf("paths exactly at bound: %v", err)
	}
	le := wantLimit(t, mustErr(t, doc, guard.Limits{MaxPaths: 7}), guard.Paths)
	if le.Limit != 7 {
		t.Fatalf("LimitError = %+v, want Limit=7", le)
	}
}

func TestParseLimitsTuples(t *testing.T) {
	// wide(8) decomposes into 8 paths of 2 tuples each = 16 tuples.
	doc := wide(8)
	if _, err := ParseLimitsMode(doc, guard.Limits{MaxTuples: 16}, ModeAuto); err != nil {
		t.Fatalf("tuples exactly at bound: %v", err)
	}
	wantLimit(t, mustErr(t, doc, guard.Limits{MaxTuples: 15}), guard.Tuples)
}

func TestParseLimitsDocBytes(t *testing.T) {
	doc := []byte("<a><b/></a>")
	if _, err := ParseLimitsMode(doc, guard.Limits{MaxDocBytes: int64(len(doc))}, ModeAuto); err != nil {
		t.Fatalf("size exactly at bound: %v", err)
	}
	le := wantLimit(t, mustErr(t, doc, guard.Limits{MaxDocBytes: int64(len(doc)) - 1}), guard.DocBytes)
	if le.Got != int64(len(doc)) {
		t.Fatalf("Got = %d, want %d", le.Got, len(doc))
	}
}

func TestParseLimitsZeroEnforcesNothing(t *testing.T) {
	d, err := ParseLimitsMode(nested(100), guard.Limits{}, ModeAuto)
	if err != nil {
		t.Fatalf("zero limits rejected a document: %v", err)
	}
	if len(d.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(d.Paths))
	}
}

func TestParseLimitsFailsFast(t *testing.T) {
	// A depth bomb must be rejected from its prefix without parsing the
	// rest: parse a 1M-deep document with MaxDepth 16 and rely on the test
	// timeout to catch quadratic or hanging behavior. (No closing tags are
	// even present — only the opening run — so completing the parse is
	// impossible and an early structural stop is the only way out.)
	var b bytes.Buffer
	for i := 0; i < 1<<20; i++ {
		b.WriteString("<d>")
	}
	_, err := ParseLimitsMode(b.Bytes(), guard.Limits{MaxDepth: 16}, ModeAuto)
	wantLimit(t, err, guard.Depth)
}

func mustErr(t *testing.T, data []byte, lim guard.Limits) error {
	t.Helper()
	d, err := ParseLimitsMode(data, lim, ModeAuto)
	if err == nil {
		t.Fatalf("parse succeeded (%d paths), want a limit error", len(d.Paths))
	}
	return err
}
