package matcher

import (
	"slices"
	"time"

	"predfilter/internal/occur"
	"predfilter/internal/xmldoc"
)

// counter is the visitor of a counted document (ScanDoc.Count): in place
// of the served kernel it counts, for every expression, the distinct
// occurrence-chain combinations across all document paths.
//
// The paper's filtering semantics needs only the first match per
// expression (Algorithm 1 stops there; §2 notes the Index-Filter baseline
// was modified accordingly). Counting is the contrasting all-matches
// capability: it keeps enumerating, which is what applications that need
// every match site (the original Index-Filter problem statement) pay for.
// Covering and access-predicate shortcuts prove existence, not counts, so
// every unit whose first predicate matched is enumerated. Nested-path
// expressions report 1 when matched (their recombination is defined on
// match existence, §5).
//
// Path deduplication remains sound here: structurally identical paths
// contribute identical combination counts, so a repeated path replays the
// counts its first occurrence memoised.
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

// Path counts one path, charging every occurrence pair the enumeration
// visits to the budget; once it trips the remaining paths are skipped.
func (k *counter) Path(pub *xmldoc.Publication) {
	sc := k.sc
	m := sc.m
	var key uint64
	if sc.dedup {
		key = sc.key(pub)
		if c, ok := k.memo[key]; ok {
			k.add(c)
			return
		}
	}
	sc.work.paths++
	if !sc.bud.CheckPoint() {
		return
	}
	t := time.Now()
	defer func() { sc.match += time.Since(t) }()
	sc.pub = pub
	sc.res.Reset(m.ix.Len())
	m.ix.MatchPath(pub, sc.res, true)
	k.path = k.path[:0]
	for _, u := range m.units {
		if !sc.res.Matched(u.pids[0]) {
			continue
		}
		k.countUnit(u)
		if sc.bud.Exceeded() {
			return
		}
	}
	for _, e := range m.nested {
		e.root.collect(m, sc, sc.bud)
	}
	k.add(k.path)
	if sc.dedup {
		k.memo[key] = slices.Clone(k.path)
	}
}

func (k *counter) add(c []idCount) {
	for _, ic := range c {
		k.counts[ic.id] += ic.n
	}
}

// Restart discards the counts with the marks: the fallback counts every
// path again.
func (k *counter) Restart() {
	k.sc.Restart()
	clear(k.counts)
	clear(k.memo)
}

// end recombines the nested expressions and resolves the counts to SIDs,
// or returns the budget's error and no counts.
func (k *counter) end() (map[SID]int, error) {
	sc, m := k.sc, k.sc.m
	if err := sc.bud.Err(); err != nil {
		return nil, err
	}
	for _, e := range m.nested {
		if e.root.resolveRoot(sc) {
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
		n := 0
		sc.work.pairs += occur.Enumerate(ch, sc.bud, &sc.assign, func([]occur.Pair) bool {
			n++
			return true
		})
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
