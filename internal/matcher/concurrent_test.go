package matcher

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"predfilter/internal/guard"
	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
)

// TestConcurrentAddAndMatch is the freeze-race regression: concurrent
// Add and Match used to race through the RUnlock→Lock freeze window; an
// Add slipping in between could leave a matcher running against a stale
// organization whose synthetic group ids collide with new expression ids.
// Traced and counted scans join the matchers, on the cached kernel and on
// the scalar reference (PathCacheBytes < 0), whose scans freeze. Run
// under -race.
func TestConcurrentAddAndMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var exprs []string
	tags := []string{"a", "b", "c", "d"}
	for i := 0; i < 400; i++ {
		var b strings.Builder
		b.WriteString("/a")
		for j := 0; j < 1+rng.Intn(3); j++ {
			b.WriteString("/" + tags[rng.Intn(len(tags))])
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&b, "[@k=%d]", rng.Intn(3))
			}
		}
		exprs = append(exprs, b.String())
	}
	raw := []byte(`<a><b k="1"><c/><d k="2"/></b><c><d/></c><b/><d k="0"/></a>`)
	doc, err := xmldoc.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}

	for _, cacheBytes := range []int64{0, -1} {
		// Postponed mode exercises the synthetic group representatives
		// whose ids are the ones a stale organization could confuse.
		m := New(Options{Variant: PrefixCoverAP, AttrMode: predicate.Postponed, PathCacheBytes: cacheBytes})
		addAndMatch(t, m, exprs, doc, raw)
	}
}

// addAndMatch registers exprs from four goroutines while four others
// match doc (raw, parsed) on m.
func addAndMatch(t *testing.T, m *Matcher, exprs []string, doc *xmldoc.Document, raw []byte) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(exprs); i += 4 {
				if _, err := m.Add(exprs[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sids := matchSIDs(m, doc)
				if i%4 > 1 {
					d := []ScanDoc{{Doc: raw, Explain: i%4 == 2, Count: i%4 == 3}}
					m.MatchScanned(d, guard.Limits{})
					sids = d[0].SIDs
					for sid := range d[0].Counts {
						sids = append(sids, sid)
					}
				}
				for _, sid := range sids {
					if sid < 0 || int(sid) >= len(exprs) {
						t.Errorf("matched sid %d outside the %d registered expressions", sid, len(exprs))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
