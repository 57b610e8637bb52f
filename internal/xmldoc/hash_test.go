package xmldoc

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"predfilter/internal/guard"
	"predfilter/internal/xmlscan"
)

// TestPathIdentity: what Shape and Key tell apart, and that FromPaths
// fills them as a scan would.
func TestPathIdentity(t *testing.T) {
	paths := func(xml string) []Publication {
		t.Helper()
		d, err := Parse([]byte(xml))
		if err != nil {
			t.Fatal(err)
		}
		return d.Paths
	}
	t.Run("attribute value", func(t *testing.T) {
		p := paths(`<a><b x="1"/><b x="2"/><b x="1"/></a>`)
		if p[0].Shape != p[1].Shape || p[0].Key == p[1].Key {
			t.Fatalf("x=1 vs x=2: Shape %x/%x, Key %x/%x; want one Shape, two Keys", p[0].Shape, p[1].Shape, p[0].Key, p[1].Key)
		}
		if p[0].Key != p[2].Key {
			t.Fatalf("equal paths: Key %x vs %x", p[0].Key, p[2].Key)
		}
	})
	t.Run("tag order", func(t *testing.T) {
		p, q := paths(`<a><b><c/></b></a>`), paths(`<a><c><b/></c></a>`)
		if p[0].Shape == q[0].Shape || p[0].Key == q[0].Key {
			t.Fatalf("/a/b/c and /a/c/b share a hash: Shape %x/%x, Key %x/%x", p[0].Shape, q[0].Shape, p[0].Key, q[0].Key)
		}
	})
	t.Run("FromPaths", func(t *testing.T) {
		got := FromPaths([]string{"a", "b"}, []string{"a", "c"}).Paths
		want := paths(`<a><b/><c/></a>`)
		for i := range want {
			if got[i].Shape == 0 || got[i].Shape != want[i].Shape || got[i].Key != want[i].Key {
				t.Fatalf("path %d %s: FromPaths %x/%x, Parse %x/%x", i, &want[i], got[i].Shape, got[i].Key, want[i].Shape, want[i].Key)
			}
		}
	})
}

// namesSeen records the string data of every tag and attribute name a scan
// hands over.
type namesSeen map[string]map[*byte]bool

func (n namesSeen) Path(pub *Publication) {
	for i := range pub.Tuples {
		tu := &pub.Tuples[i]
		n.add(tu.Tag)
		for _, a := range tu.Attrs {
			n.add(a.Name)
		}
	}
}

func (n namesSeen) add(s string) {
	if n[s] == nil {
		n[s] = map[*byte]bool{}
	}
	n[s][unsafe.StringData(s)] = true
}

func (namesSeen) Restart() {}

// TestConcurrentScansShareNames: goroutines scanning one vocabulary, which
// no scan has met before, all see the shared dictionary's canonical
// strings through their builders' name tables.
func TestConcurrentScansShareNames(t *testing.T) {
	const workers, docs = 4, 50
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("concurrent-name-%d", i)
	}
	seen := make([]namesSeen, workers)
	var wg sync.WaitGroup
	for w := range seen {
		seen[w] = namesSeen{}
		wg.Add(1)
		go func(rng *rand.Rand, v namesSeen) {
			defer wg.Done()
			for i := 0; i < docs; i++ {
				var b strings.Builder
				var open []string
				for d := 0; d < 6; d++ {
					open = append(open, vocab[rng.Intn(len(vocab))])
					fmt.Fprintf(&b, `<%s %s="%d">`, open[d], vocab[rng.Intn(len(vocab))], d)
				}
				for d := len(open) - 1; d >= 0; d-- {
					b.WriteString("</" + open[d] + ">")
				}
				if _, err := Scan([]byte(b.String()), guard.Limits{}, v); err != nil {
					t.Error(err)
					return
				}
			}
		}(rand.New(rand.NewSource(int64(w))), seen[w])
	}
	wg.Wait()
	for _, v := range seen {
		for name, ptrs := range v {
			want := unsafe.StringData(xmlscan.Names.Intern([]byte(name)))
			if len(ptrs) != 1 || !ptrs[want] {
				t.Fatalf("%s: a scan saw %d copies, the canonical one %v", name, len(ptrs), ptrs[want])
			}
		}
	}
}

// TestNameTableBounded: a document with more fresh names than a builder's
// table holds scans whole, and the table stays within its bounds.
func TestNameTableBounded(t *testing.T) {
	const n = 3 * maxNames
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<fresh-name-%d a="%d"/>`, i, i)
	}
	sb.WriteString("</root>")
	b := builders.Get().(*builder)
	defer b.release()
	b.col.Restart()
	st, err := b.run([]byte(sb.String()), guard.Limits{}, ModeAuto, &b.col)
	if err != nil || st.FellBack || st.Paths != n {
		t.Fatalf("scan: %+v, %v", st, err)
	}
	if len(b.names) > maxNames || b.nameBytes > maxNameBytes {
		t.Fatalf("name table holds %d names, %d bytes", len(b.names), b.nameBytes)
	}
	d := b.col.finalize(st.Elements)
	for i := range d.Paths {
		p := &d.Paths[i]
		r := *p
		r.Rehash()
		if tag := fmt.Sprintf("fresh-name-%d", i); p.Tuples[1].Tag != tag || r.Shape != p.Shape || r.Key != p.Key {
			t.Fatalf("path %d: %s, Shape/Key %x/%x, Rehash %x/%x", i, p, p.Shape, p.Key, r.Shape, r.Key)
		}
	}
}
