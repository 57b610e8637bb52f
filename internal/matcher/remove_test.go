package matcher

import (
	"sync"
	"testing"

	"predfilter/internal/xmldoc"
)

// Regression tests for Remove semantics after freeze: a removed SID must
// never reappear through any matching path — sequential, path-parallel,
// or the shared-expression storage a duplicate registration rides on —
// and Stats must report the live (post-Remove) count.

func removeDoc() *xmldoc.Document {
	return xmldoc.FromPaths([]string{"a", "b", "c"}, []string{"a", "d"})
}

func TestRemoveAfterFreeze(t *testing.T) {
	for _, v := range allVariants {
		m := New(Options{Variant: v})
		// Duplicates share one stored expression; removing one SID must
		// not disturb its siblings.
		sids := mustAdd(t, m, "/a/b/c", "/a/b/c", "a//c", "/a/b/c")
		doc := removeDoc()

		// Freeze by matching once; Remove then operates on the frozen
		// organization.
		if got := matchSet(m, doc); !got[sids[0]] || !got[sids[1]] || !got[sids[3]] {
			t.Fatalf("%v: pre-remove matches = %v", v, got)
		}
		if err := m.Remove(sids[1]); err != nil {
			t.Fatalf("%v: Remove: %v", v, err)
		}
		if st := m.Stats(); st.SIDs != 3 {
			t.Fatalf("%v: Stats().SIDs = %d after Remove, want 3", v, st.SIDs)
		}

		got := matchSet(m, doc)
		if got[sids[1]] {
			t.Fatalf("%v: MatchDocument reported removed sid %d", v, sids[1])
		}
		// The duplicate's siblings keep matching via the shared entry.
		if !got[sids[0]] || !got[sids[3]] || !got[sids[2]] {
			t.Fatalf("%v: MatchDocument dropped surviving sids: %v", v, got)
		}

		// Double removal errors, and the count stays at the live value.
		if err := m.Remove(sids[1]); err == nil {
			t.Fatalf("%v: second Remove of sid %d succeeded", v, sids[1])
		}
		if st := m.Stats(); st.SIDs != 3 {
			t.Fatalf("%v: Stats().SIDs = %d after double Remove, want 3", v, st.SIDs)
		}
	}
}

// TestRemoveConcurrentWithMatching churns Add/Remove while matchers run.
// Once Remove has returned, the SID must be absent from every subsequently
// started match; the test runs under -race in CI to catch unsynchronized
// access to the shared expression storage.
func TestRemoveConcurrentWithMatching(t *testing.T) {
	m := New(Options{Variant: PrefixCoverAP})
	doc := removeDoc()

	// Matching exprs removed up front: these must never surface again.
	dead := mustAdd(t, m, "/a/b/c", "a//c", "/a/b/c")
	keep := mustAdd(t, m, "//b/c")
	m.MatchDocument(doc, nil) // freeze with the dead sids still present
	for _, sid := range dead {
		if err := m.Remove(sid); err != nil {
			t.Fatal(err)
		}
	}
	isDead := map[SID]bool{}
	for _, sid := range dead {
		isDead[sid] = true
	}

	var churn sync.WaitGroup
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churner: keeps adding matching expressions and removing them again,
	// forcing refreezes interleaved with matching.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sid, err := m.Add("/a/*/c")
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Remove(sid); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				sids := matchSIDs(m, doc)
				found := false
				for _, sid := range sids {
					if isDead[sid] {
						t.Errorf("removed sid %d reappeared", sid)
						return
					}
					if sid == keep[0] {
						found = true
					}
				}
				if !found {
					t.Errorf("surviving sid %d missing from %v", keep[0], sids)
					return
				}
			}
		}()
	}
	wg.Wait() // matcher goroutines finish first
	close(stop)
	churn.Wait()
}
