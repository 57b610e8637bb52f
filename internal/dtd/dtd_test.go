package dtd

import "testing"

func TestBuiltinsValidate(t *testing.T) {
	for _, d := range []*DTD{NITF(), PSD()} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

// TestNITFCharacter checks the workload-relevant properties of the NITF
// substitution: a large vocabulary and near-total optionality (the real
// NITF DTD makes virtually everything optional).
func TestNITFCharacter(t *testing.T) {
	d := NITF()
	if n := len(d.Elements); n < 100 {
		t.Errorf("NITF has %d element types, want >= 100", n)
	}
	required := 0
	total := 0
	attrs := 0
	for _, el := range d.Elements {
		for _, c := range el.Children {
			total++
			if c.Repeat == One || c.Repeat == Plus {
				required++
			}
		}
		attrs += len(el.Attrs)
	}
	if required > 2 {
		t.Errorf("NITF has %d required child particles, want <= 2 (only nitf→body)", required)
	}
	if attrs < 60 {
		t.Errorf("NITF declares %d attributes, want attribute-rich (>= 60)", attrs)
	}
	if total < 120 {
		t.Errorf("NITF has %d child particles, want a broad content model", total)
	}
}

// TestPSDCharacter checks the PSD substitution: small, regular, mostly
// required structure with few attributes.
func TestPSDCharacter(t *testing.T) {
	d := PSD()
	if n := len(d.Elements); n < 30 || n > 60 {
		t.Errorf("PSD has %d element types, want a small vocabulary (30-60)", n)
	}
	required, optional := 0, 0
	attrs := 0
	for _, el := range d.Elements {
		for _, c := range el.Children {
			if c.Repeat == One || c.Repeat == Plus {
				required++
			} else {
				optional++
			}
		}
		attrs += len(el.Attrs)
	}
	if required <= optional {
		t.Errorf("PSD has %d required vs %d optional particles; regularity requires required > optional", required, optional)
	}
	if nitfAttrs := countAttrs(NITF()); attrs >= nitfAttrs {
		t.Errorf("PSD declares %d attributes, NITF %d; the paper's NITF documents are the attribute-rich ones", attrs, nitfAttrs)
	}
}

func countAttrs(d *DTD) int {
	n := 0
	for _, el := range d.Elements {
		n += len(el.Attrs)
	}
	return n
}

func TestValidateErrors(t *testing.T) {
	b := newBuilder("t", "root")
	b.el("root", "missing")
	if err := b.d.Validate(); err == nil {
		t.Error("Validate accepted an undeclared child")
	}

	b2 := newBuilder("t", "nope")
	b2.el("root")
	if err := b2.d.Validate(); err == nil {
		t.Error("Validate accepted a missing root")
	}

	b3 := newBuilder("t", "root")
	b3.el("root").attr("a", true)
	if err := b3.d.Validate(); err == nil {
		t.Error("Validate accepted an attribute without values")
	}
}

func TestBuilderNotation(t *testing.T) {
	b := newBuilder("t", "r")
	b.el("x")
	b.el("y")
	b.el("z")
	b.el("w")
	e := b.el("r", "x", "y?", "z*", "w+")
	want := []Child{{"x", One}, {"y", Optional}, {"z", Star}, {"w", Plus}}
	for i, c := range e.Children {
		if c != want[i] {
			t.Errorf("child %d = %+v, want %+v", i, c, want[i])
		}
	}
	if err := b.d.Validate(); err != nil {
		t.Fatal(err)
	}
}
