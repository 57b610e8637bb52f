package main

import (
	"fmt"
	"math/rand"

	"predfilter"
	"predfilter/internal/refmatch"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// refCheckDocs is how many documents are cross-checked against refmatch.
const refCheckDocs = 20

// oracle holds, for every document, the set of expression indexes that
// must match it, computed by a scalar, cache-off in-process engine — the
// configuration that shares the least code with what the servers run.
type oracle struct {
	sets   [][]uint64 // per document: bitset over expression indexes
	counts []int      // per document: popcount of sets[d]
}

func (o *oracle) has(doc, expr int) bool {
	return o.sets[doc][expr>>6]&(1<<(uint(expr)&63)) != 0
}

func buildOracle(in *inputs, seed int64) (*oracle, error) {
	eng := predfilter.New(predfilter.Config{PathCacheBytes: -1, Columnar: predfilter.ColumnarOff})
	sids, err := eng.AddAll(in.exprs)
	if err != nil {
		return nil, fmt.Errorf("oracle: add expressions: %w", err)
	}
	exprOf := make(map[predfilter.SID]int, len(sids))
	for i, sid := range sids {
		exprOf[sid] = i
	}
	words := (len(in.exprs) + 63) / 64
	o := &oracle{sets: make([][]uint64, len(in.docs)), counts: make([]int, len(in.docs))}
	for d, doc := range in.docs {
		got, err := eng.Match(doc)
		if err != nil {
			return nil, fmt.Errorf("oracle: document %d: %w", d, err)
		}
		set := make([]uint64, words)
		for _, sid := range got {
			e := exprOf[sid]
			set[e>>6] |= 1 << (uint(e) & 63)
		}
		o.sets[d], o.counts[d] = set, len(got)
	}

	// Independent cross-check: the placement-search reference matcher on a
	// seeded sample of documents, every expression.
	paths := make([]*xpath.Path, len(in.exprs))
	for i, x := range in.exprs {
		if paths[i], err = xpath.Parse(x); err != nil {
			return nil, fmt.Errorf("oracle: parse %q: %w", x, err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, d := range rng.Perm(len(in.docs))[:min(refCheckDocs, len(in.docs))] {
		doc, err := xmldoc.Parse(in.docs[d])
		if err != nil {
			return nil, fmt.Errorf("oracle: parse document %d: %w", d, err)
		}
		for e, p := range paths {
			if want := refmatch.Match(p, doc); want != o.has(d, e) {
				return nil, fmt.Errorf("oracle: engine and refmatch disagree on document %d, expression %q (refmatch says %v)", d, in.exprs[e], want)
			}
		}
	}
	return o, nil
}

// checker verifies publish responses against the oracle. Server ids are
// mapped back to expression indexes through the ids returned at subscribe
// time; ids the checker was not told about are tolerated only when a churn
// connection is adding and removing subscriptions beside the publishes.
type checker struct {
	o          *oracle
	exprOf     []int32 // server id → expression index, -1 unknown
	allowExtra bool
}

func newChecker(o *oracle, ids []int, allowExtra bool) *checker {
	maxID := 0
	for _, id := range ids {
		maxID = max(maxID, id)
	}
	c := &checker{o: o, exprOf: make([]int32, maxID+1), allowExtra: allowExtra}
	for i := range c.exprOf {
		c.exprOf[i] = -1
	}
	for e, id := range ids {
		c.exprOf[id] = int32(e)
	}
	return c
}

// scratch is one goroutine's duplicate detector: seen[e] == stamp marks
// expression e as already reported for the response being checked.
type scratch struct {
	seen  []uint32
	stamp uint32
}

// ok reports whether ids is exactly document doc's expected match set.
func (c *checker) ok(doc int, ids []int, sc *scratch) bool {
	if len(sc.seen) < len(c.o.sets[doc])*64 {
		sc.seen = make([]uint32, len(c.o.sets[doc])*64)
	}
	sc.stamp++
	n := 0
	for _, id := range ids {
		if id < 0 || id >= len(c.exprOf) || c.exprOf[id] < 0 {
			if c.allowExtra {
				continue
			}
			return false
		}
		e := int(c.exprOf[id])
		if !c.o.has(doc, e) || sc.seen[e] == sc.stamp {
			return false
		}
		sc.seen[e] = sc.stamp
		n++
	}
	return n == c.o.counts[doc]
}
