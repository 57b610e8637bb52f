package matcher

import (
	"predfilter/internal/guard"
	"predfilter/internal/occur"
	"predfilter/internal/xmldoc"
)

// MatchDocumentAll returns, for every matching expression, the number of
// distinct occurrence-chain combinations across all document paths.
//
// The paper's filtering semantics needs only the first match per
// expression (Algorithm 1 stops there; §2 notes the Index-Filter baseline
// was modified accordingly). This method is the contrasting all-matches
// capability: it keeps enumerating, which is what applications that need
// every match site (the original Index-Filter problem statement) pay for.
// Nested-path expressions report 1 when matched (their recombination is
// defined on match existence, §5).
//
// Path deduplication remains sound here: structurally identical paths
// contribute identical combination counts, so each distinct path's count
// is multiplied by its multiplicity.
func (m *Matcher) MatchDocumentAll(doc *xmldoc.Document) map[SID]int {
	counts, _ := m.MatchDocumentAllBudget(doc, nil)
	return counts
}

// MatchDocumentAllBudget is MatchDocumentAll charging the enumeration to
// a per-document budget: every occurrence pair the combination
// enumeration visits counts one step, and the wall clock and context are
// consulted between paths. Exhaustive enumeration is the most expensive
// pipeline path (it keeps searching where filtering stops at the first
// match), so a governed engine must bound it like any other match. When
// the budget trips, the typed *guard.LimitError is returned and the
// partial counts are discarded. A nil budget is unlimited and never
// errors.
func (m *Matcher) MatchDocumentAllBudget(doc *xmldoc.Document, bud *guard.Budget) (map[SID]int, error) {
	m.ensureFrozen()
	defer m.mu.RUnlock()

	sc := m.getScratch(nil, bud)
	defer m.pool.Put(sc)

	dedup := m.pathDedup()
	counts := make(map[int]int) // expr id → combination count
	mult := make(map[uint64]int)

	// First pass over paths: with dedup, count each distinct publication's
	// multiplicity up front so one evaluation covers all copies.
	if dedup {
		for i := range doc.Paths {
			mult[pubHash(&doc.Paths[i], m.attrSensitive)]++
		}
	}
	seen := make(map[uint64]bool)

	for i := range doc.Paths {
		if !bud.CheckPoint() {
			return nil, bud.Err()
		}
		pub := &doc.Paths[i]
		sc.pub = pub
		sc.byTagOK = false
		factor := 1
		if dedup {
			key := pubHash(pub, m.attrSensitive)
			if seen[key] {
				continue
			}
			seen[key] = true
			factor = mult[key]
		}
		sc.res.Reset(m.ix.Len())
		m.ix.MatchPath(pub, sc.res)

		// Covering and access-predicate shortcuts prove existence, not
		// counts, so every unit is enumerated (with the cheap rejects).
		for _, h := range m.ordered {
			if !sc.res.Matched(h.first) {
				continue
			}
			m.countUnit(sc, h.e, counts, factor, bud)
			if bud.Exceeded() {
				return nil, bud.Err()
			}
		}
		for _, e := range m.nested {
			e.root.collect(m, sc, bud)
		}
		if bud.Exceeded() {
			return nil, bud.Err()
		}
	}

	for _, e := range m.nested {
		if e.root.resolveRoot(sc) {
			counts[e.id] = 1
		}
	}
	clear(sc.ncands)

	out := make(map[SID]int, len(counts))
	for id, n := range counts {
		for _, sid := range m.sids(id) {
			out[sid] = n
		}
	}
	return out, nil
}

// countUnit accumulates combination counts for one iteration unit (an
// expression, or a structural group whose members are counted over the
// filtered chains). A budget trip leaves a partial count behind; the
// caller discards the whole map when bud.Exceeded.
func (m *Matcher) countUnit(sc *scratch, e *expr, counts map[int]int, factor int, bud *guard.Budget) {
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

	enumerate := func(ch [][]occur.Pair) int {
		n := 0
		occur.EnumerateBudget(ch, bud, func([]occur.Pair) bool {
			n++
			return true
		})
		return n
	}

	if e.members == nil {
		if n := enumerate(chain); n > 0 {
			counts[e.id] += n * factor
		}
		return
	}
	for _, mem := range e.members {
		if mem.post == nil {
			if n := enumerate(chain); n > 0 {
				counts[mem.id] += n * factor
			}
			continue
		}
		filtered, ok := m.filterChain(sc, mem.pids, mem.postTests, chain)
		if !ok {
			continue
		}
		if n := enumerate(filtered); n > 0 {
			counts[mem.id] += n * factor
		}
	}
}
