package matcher

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
)

// synthetic micro-workload: expressions and documents over a small tag
// alphabet, heavier on overlap than the DTD-driven benchmarks.
func microWorkload(n int) ([]string, []*xmldoc.Document) {
	rng := rand.New(rand.NewSource(99))
	tags := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	xpes := make([]string, n)
	for i := range xpes {
		var b strings.Builder
		b.WriteString("/")
		b.WriteString(tags[rng.Intn(2)]) // shared roots: overlap
		for j := 0; j < 2+rng.Intn(4); j++ {
			switch rng.Intn(6) {
			case 0:
				b.WriteString("//")
			default:
				b.WriteString("/")
			}
			if rng.Intn(5) == 0 {
				b.WriteString("*")
			} else {
				b.WriteString(tags[rng.Intn(len(tags))])
			}
		}
		xpes[i] = b.String()
	}
	docs := make([]*xmldoc.Document, 8)
	for i := range docs {
		var b strings.Builder
		var build func(depth int)
		build = func(depth int) {
			tag := tags[rng.Intn(len(tags))]
			b.WriteString("<" + tag + ">")
			if depth < 7 {
				for k := rng.Intn(4); k > 0; k-- {
					build(depth + 1)
				}
			}
			b.WriteString("</" + tag + ">")
		}
		b.WriteString("<a>")
		for k := 0; k < 6; k++ {
			build(2)
		}
		b.WriteString("</a>")
		doc, err := xmldoc.Parse([]byte(b.String()))
		if err != nil {
			panic(err)
		}
		docs[i] = doc
	}
	return xpes, docs
}

// BenchmarkMatchDocument compares the three organizations on a synthetic
// overlap-heavy workload.
func BenchmarkMatchDocument(b *testing.B) {
	xpes, docs := microWorkload(20000)
	for _, v := range []Variant{Basic, PrefixCover, PrefixCoverAP} {
		b.Run(v.String(), func(b *testing.B) {
			m := New(Options{Variant: v})
			for _, s := range xpes {
				if _, err := m.Add(s); err != nil {
					b.Fatal(err)
				}
			}
			m.MatchDocument(docs[0], nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MatchDocument(docs[i%len(docs)], nil)
			}
		})
	}
}

// BenchmarkAdd measures registration throughput (the paper claims
// constant-time insertion).
func BenchmarkAdd(b *testing.B) {
	xpes, _ := microWorkload(50000)
	for _, dup := range []bool{false, true} {
		name := "distinct-heavy"
		if dup {
			name = "duplicate-heavy"
		}
		b.Run(name, func(b *testing.B) {
			m := New(Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var s string
				if dup {
					s = xpes[i%100]
				} else {
					s = xpes[i%len(xpes)]
				}
				if _, err := m.Add(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAttrModes compares inline and postponed attribute evaluation.
func BenchmarkAttrModes(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	xpes := make([]string, 10000)
	for i := range xpes {
		xpes[i] = fmt.Sprintf("/a/%c[@k=%d]/%c", 'b'+rune(rng.Intn(3)), rng.Intn(5), 'b'+rune(rng.Intn(3)))
	}
	var sb strings.Builder
	sb.WriteString("<a>")
	for i := 0; i < 30; i++ {
		outer := 'b' + rune(rng.Intn(3))
		inner := 'b' + rune(rng.Intn(3))
		fmt.Fprintf(&sb, `<%c k="%d"><%c/></%c>`, outer, rng.Intn(5), inner, outer)
	}
	sb.WriteString("</a>")
	doc, err := xmldoc.Parse([]byte(sb.String()))
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []predicate.AttrMode{predicate.Inline, predicate.Postponed} {
		name := "inline"
		if mode == predicate.Postponed {
			name = "postponed"
		}
		b.Run(name, func(b *testing.B) {
			m := New(Options{Variant: PrefixCoverAP, AttrMode: mode})
			for _, s := range xpes {
				if _, err := m.Add(s); err != nil {
					b.Fatal(err)
				}
			}
			m.MatchDocument(doc, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MatchDocument(doc, nil)
			}
		})
	}
}
