package matcher

import (
	"math/rand"
	"strings"
	"testing"

	"predfilter/internal/predicate"
	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// FuzzEvictCanMatch is the independent soundness check of the test that
// decides which cache entries a new expression costs (canMatch): whenever
// the reference matcher, which knows nothing of predicates, says the
// expression matches a path, canMatch must have said the path's signature
// could be matched — or an entry the expression belongs on would be kept
// without it. path is the root-to-leaf tag sequence, "/"-separated. The
// seeds (run by plain `go test`) cover descendant-only, wildcard-only,
// length-only and repeated-tag expressions, then random pairs over a small
// alphabet, where most expressions match something.
func FuzzEvictCanMatch(f *testing.F) {
	for _, xpe := range []string{
		"//a", "a//b", "//a//b//c", "b//b", // descendant only
		"/*", "/*/*/*", "*/*", "//*", "*//*", // wildcard only: length predicates
		"/a/a/a", "a//a//a", "a/a", "/a/*/a", "//a/*/*/a", // repeated tags
		"/a/b/c", "b/c", "/a//c/*", "a/*/*", "/*/b", `/a/b[@x=1]/c`, `//b[@y>=2]/*`,
	} {
		for _, path := range []string{"a", "a/b/c", "a/a/a", "b/a/b/c/a", "a/b/b/c/d", "c/a/x/y/a", "a/x/a"} {
			f.Add(xpe, path)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 600; i++ {
		tags := make([]string, 1+rng.Intn(7))
		for j := range tags {
			tags[j] = testTags[rng.Intn(len(testTags))]
		}
		f.Add(randXPE(rng, i%2 == 1), strings.Join(tags, "/"))
	}
	f.Fuzz(func(t *testing.T, xpe, path string) {
		p, err := xpath.Parse(xpe)
		if err != nil || !p.IsSinglePath() {
			t.Skip()
		}
		tags := strings.Split(path, "/")
		for _, tag := range tags {
			if tag == "" || strings.ContainsAny(tag, "\x00<>") {
				t.Skip()
			}
		}
		doc := xmldoc.FromPaths(tags)
		pub := &doc.Paths[0]
		if len(tags) > 3 { // give the attribute filters something to accept
			pub.Tuples[1].Attrs = []xmldoc.Attr{{Name: "x", Value: "1"}, {Name: "y", Value: "2"}}
		}
		for _, mode := range []predicate.AttrMode{predicate.Inline, predicate.Postponed} {
			m := New(Options{AttrMode: mode})
			e, err := m.register(p)
			if err != nil {
				t.Skip()
			}
			can := m.canMatch(e, sigTags(nil, string(appendPubSig(nil, pub))))
			if refmatch.MatchPath(p, pub) && !can {
				t.Fatalf("%s matches /%s but canMatch says its signature cannot be matched (mode %v)", xpe, path, mode)
			}
		}
	})
}
