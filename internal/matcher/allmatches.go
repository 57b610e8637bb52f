package matcher

import (
	"math"
	"slices"

	"predfilter/internal/occur"
	"predfilter/internal/xmldoc"
)

// counter is the state of a counted document (ScanDoc.Count): in place of
// the served kernel, the scratch's paths count, for every expression, the
// distinct occurrence-chain combinations across all document paths.
//
// The paper's filtering semantics needs only the first match per
// expression (Algorithm 1 stops there; §2 notes the Index-Filter baseline
// was modified accordingly). Counting is the contrasting all-matches
// capability, which applications that need every match site (the original
// Index-Filter problem statement) ask for: a forward pass over saturating
// counts (occur.Support) gives the number of combinations without listing
// them. Covering and access-predicate shortcuts prove existence, not
// counts, so every unit whose first predicate matched is counted.
// Nested-path expressions report 1 when matched (their recombination is
// defined on match existence, §5).
//
// Path deduplication remains sound here: structurally identical paths
// contribute identical combination counts, so a repeated path replays the
// counts its first occurrence memoised, and records its node ids for the
// nested expressions.
type counter struct {
	sc     *scratch
	counts map[int]int          // expr id → combinations
	memo   map[uint64][]idCount // distinct path → its counts
	path   []idCount            // the current path's counts
}

type idCount struct{ id, n int }

func newCounter(sc *scratch) *counter {
	return &counter{sc: sc, counts: make(map[int]int), memo: make(map[uint64][]idCount)}
}

// match counts the current path, charging every occurrence pair the
// counting visits to the budget; once it trips the remaining units are
// skipped, and end discards the counts.
func (k *counter) match(pub *xmldoc.Publication) {
	sc, m := k.sc, k.sc.m
	sc.res.Reset(m.ix.Len())
	m.ix.MatchPath(pub, sc.res, true)
	k.path = k.path[:0]
	for _, u := range m.units {
		if sc.res.Matched(u.pids[0]) && !sc.bud.Exceeded() {
			k.countUnit(u)
		}
	}
	m.recordLive(sc, pub)
	k.add(k.path)
}

func (k *counter) add(c []idCount) {
	for _, ic := range c {
		k.counts[ic.id] = satAdd(k.counts[ic.id], ic.n)
	}
}

// satAdd adds two counts, saturating at the largest int.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// end recombines the nested expressions and resolves the counts to SIDs,
// or returns the budget's error and no counts.
func (k *counter) end() (map[SID]int, error) {
	sc, m := k.sc, k.sc.m
	m.resolveNested(sc)
	if err := sc.bud.Err(); err != nil {
		return nil, err
	}
	for _, e := range m.nested {
		if sc.matched[e.id] {
			k.counts[e.id] = 1
		}
	}
	out := make(map[SID]int, len(k.counts))
	for id, n := range k.counts {
		for _, sid := range m.sids(id) {
			out[sid] = n
		}
	}
	return out, nil
}

// countUnit counts the combinations of one iteration unit (an expression,
// or a structural group whose members are counted over the filtered
// chains) on the current path. A budget trip leaves a partial count
// behind, which end discards.
func (k *counter) countUnit(e *expr) {
	sc, m := k.sc, k.sc.m
	chain := sc.chain[:0]
	for _, pid := range e.pids {
		r := sc.res.Get(pid)
		if len(r) == 0 {
			sc.chain = chain
			return
		}
		chain = append(chain, r)
	}
	sc.chain = chain

	count := func(id int, ch [][]occur.Pair) {
		sc.on = slices.Grow(sc.on[:0], len(ch[len(ch)-1]))[:len(ch[len(ch)-1])]
		sc.work.pairs += occur.Support(ch, len(ch)-1, sc.on, sc.bud, &sc.occBuf)
		n := 0
		for _, c := range sc.on {
			n = satAdd(n, int(min(c, math.MaxInt)))
		}
		if n > 0 {
			k.path = append(k.path, idCount{id, n})
		}
	}
	if e.members == nil {
		count(e.id, chain)
		return
	}
	for _, mem := range e.members {
		if mem.post == nil {
			count(mem.id, chain)
			continue
		}
		if filtered, ok := m.filterChain(sc, mem.pids, mem.postTests, chain); ok {
			count(mem.id, filtered)
		}
	}
}
