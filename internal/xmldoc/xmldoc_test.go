package xmldoc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	doc, err := Parse([]byte(`<a><b><c/></b><d/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Elements != 4 {
		t.Errorf("Elements = %d, want 4", doc.Elements)
	}
	if len(doc.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(doc.Paths))
	}
	if got := doc.Paths[0].String(); got != "/a/b/c" {
		t.Errorf("path 0 = %s", got)
	}
	if got := doc.Paths[1].String(); got != "/a/d" {
		t.Errorf("path 1 = %s", got)
	}
	if doc.Paths[0].Length != 3 || doc.Paths[1].Length != 2 {
		t.Errorf("lengths = %d, %d", doc.Paths[0].Length, doc.Paths[1].Length)
	}
}

// TestExample1 reproduces Example 1 of the paper: the path (a,b,c,a,b,c)
// is annotated with occurrence numbers (a¹,b¹,c¹,a²,b²,c²) and encoded as
// (length,6),(a¹,1),(b¹,2),(c¹,3),(a²,4),(b²,5),(c²,6).
func TestExample1(t *testing.T) {
	doc, err := Parse([]byte(`<a><b><c><a><b><c/></b></a></c></b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 {
		t.Fatalf("paths = %d", len(doc.Paths))
	}
	p := doc.Paths[0]
	if p.Length != 6 {
		t.Errorf("length = %d, want 6", p.Length)
	}
	want := []struct {
		tag string
		pos int
		occ int
	}{
		{"a", 1, 1}, {"b", 2, 1}, {"c", 3, 1}, {"a", 4, 2}, {"b", 5, 2}, {"c", 6, 2},
	}
	for i, w := range want {
		tu := p.Tuples[i]
		if tu.Tag != w.tag || tu.Pos != w.pos || tu.Occ != w.occ {
			t.Errorf("tuple %d = (%s,%d) occ %d, want (%s,%d) occ %d",
				i, tu.Tag, tu.Pos, tu.Occ, w.tag, w.pos, w.occ)
		}
	}
}

func TestAttributes(t *testing.T) {
	doc, err := Parse([]byte(`<a x="1" y="two"><b z="3"/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	tu := &doc.Paths[0].Tuples[0]
	if v, ok := tu.Attr("x"); !ok || v != "1" {
		t.Errorf("Attr(x) = %q, %v", v, ok)
	}
	if v, ok := tu.Attr("y"); !ok || v != "two" {
		t.Errorf("Attr(y) = %q, %v", v, ok)
	}
	if _, ok := tu.Attr("z"); ok {
		t.Error("Attr(z) found on a")
	}
	if v, ok := doc.Paths[0].Tuples[1].Attr("z"); !ok || v != "3" {
		t.Errorf("b Attr(z) = %q, %v", v, ok)
	}
}

func TestNodeIDsAndChildIdx(t *testing.T) {
	doc, err := Parse([]byte(`<a><b><c/></b><b><d/></b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 2 {
		t.Fatalf("paths = %d", len(doc.Paths))
	}
	p0, p1 := doc.Paths[0], doc.Paths[1]
	// Shared root must have the same node id in both paths; the two b
	// siblings must not.
	if p0.Tuples[0].NodeID != p1.Tuples[0].NodeID {
		t.Error("root node id differs between paths")
	}
	if p0.Tuples[1].NodeID == p1.Tuples[1].NodeID {
		t.Error("sibling b elements share a node id")
	}
	// Child indices <m1,...>: root is child 1; first b child 1, second
	// b child 2.
	if p0.Tuples[0].ChildIdx != 1 || p0.Tuples[1].ChildIdx != 1 || p1.Tuples[1].ChildIdx != 2 {
		t.Errorf("child indices: %d %d / %d", p0.Tuples[0].ChildIdx, p0.Tuples[1].ChildIdx, p1.Tuples[1].ChildIdx)
	}
	// Occurrence numbers are per path: each path sees its b as the first.
	if p0.Tuples[1].Occ != 1 || p1.Tuples[1].Occ != 1 {
		t.Errorf("occ = %d, %d; want 1, 1", p0.Tuples[1].Occ, p1.Tuples[1].Occ)
	}
}

func TestIgnoresNonElements(t *testing.T) {
	in := `<?xml version="1.0"?><!-- c --><a>text<b/><!-- x -->more<![CDATA[raw]]></a>`
	doc, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Elements != 2 || len(doc.Paths) != 1 || doc.Paths[0].String() != "/a/b" {
		t.Errorf("doc = %+v", doc)
	}
}

func TestSingleElement(t *testing.T) {
	doc, err := Parse([]byte(`<root/>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0].Length != 1 {
		t.Fatalf("paths = %+v", doc.Paths)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{`<a><b></a>`, `<a>`, `</a>`, `<a`} {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestFromPaths(t *testing.T) {
	doc := FromPaths([]string{"a", "b", "a"}, []string{"x"})
	if doc.Elements != 4 || len(doc.Paths) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	p := doc.Paths[0]
	if p.Tuples[2].Occ != 2 {
		t.Errorf("occ of second a = %d", p.Tuples[2].Occ)
	}
	if got := p.String(); got != "/a/b/a" {
		t.Errorf("path = %s", got)
	}
}

// TestOccurrenceInvariant: for any parsed document, occurrence numbers
// count per-path tag repetitions exactly, and positions are 1..Length.
func TestOccurrenceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	gen := func(r *rand.Rand) []byte {
		tags := []string{"a", "b", "c"}
		var b strings.Builder
		var build func(depth int)
		build = func(depth int) {
			tag := tags[r.Intn(len(tags))]
			b.WriteString("<" + tag + ">")
			if depth < 6 {
				for k := r.Intn(3); k > 0; k-- {
					build(depth + 1)
				}
			}
			b.WriteString("</" + tag + ">")
		}
		build(1)
		return []byte(b.String())
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		doc, err := Parse(gen(r))
		if err != nil {
			return false
		}
		for _, p := range doc.Paths {
			if p.Length != len(p.Tuples) {
				return false
			}
			counts := map[string]int{}
			for i, tu := range p.Tuples {
				if tu.Pos != i+1 {
					return false
				}
				counts[tu.Tag]++
				if tu.Occ != counts[tu.Tag] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPathCount: the number of root-to-leaf paths equals the number of
// leaf elements.
func TestPathCount(t *testing.T) {
	doc, err := Parse([]byte(`<a><b/><c><d/><e/><f><g/></f></c></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 4 { // b, d, e, g
		t.Errorf("paths = %d, want 4", len(doc.Paths))
	}
}

func TestParseRejectsConcatenated(t *testing.T) {
	if _, err := Parse([]byte(`<a/><b/>`)); err == nil {
		t.Error("Parse accepted two top-level elements")
	}
	if _, err := Parse([]byte(``)); err == nil {
		t.Error("Parse accepted empty input")
	}
	if _, err := Parse([]byte(`just text`)); err == nil {
		t.Error("Parse accepted elementless input")
	}
	// Trailing comments and whitespace are fine.
	if _, err := Parse([]byte(`<a/> <!-- done -->` + "\n")); err != nil {
		t.Errorf("Parse rejected trailing comment: %v", err)
	}
}
