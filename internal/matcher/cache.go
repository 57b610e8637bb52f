package matcher

import (
	"math/bits"
	"slices"
	"strings"
	"unsafe"

	"predfilter/internal/bitset"
	"predfilter/internal/guard"
	"predfilter/internal/occur"
	"predfilter/internal/pathcache"
	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
)

// Path-signature caching (the document-side dual of expression sharing;
// see internal/pathcache). The four structural predicate types depend
// only on tag names and positions, so for a given path *signature* — its
// tag sequence plus per-path occurrence vector — the predicate stage run
// without deciding attribute filters (structural results: an
// attribute-carrying predicate gets every pair its cell matched on tags
// and positions) is the same on every document, and so is the occurrence
// determination of every value-independent iteration unit. The iteration
// units therefore split in two:
//
//   - structural units: every chain predicate is bare (no attribute
//     filters), the expression carries no postponed annotations, and —
//     for Postponed group representatives — neither does any member.
//     Their per-path mark set is a pure function of the signature and is
//     cached as the entry's Outcome, together with the Postponed members
//     without filters of the other groups whose structural chain matched.
//     This is sound because mark contributions are monotone, so OR-ing a
//     cached outcome into the document state is exactly the sequential
//     evaluation: marks only ever set bits, so the order in which units
//     contribute them cannot change the result.
//
//   - live units (expr.live): anything touching attribute values. Whether
//     one matches depends on the document, but whether it *can* match
//     does not: a unit matches only if every chain predicate produced
//     pairs, and an attribute-carrying predicate produces only pairs its
//     cell matched structurally. The live units that are candidates on the
//     structural results are the only ones a hit has to decide — the same
//     argument the Outcome makes, applied one step earlier — and the
//     entry's program (pathcache.Program) decides them.
//
// A live unit's structural pair names the tuples of its predicate's tags
// at its occurrence numbers (sc.tupleAt), and each filter on a tag becomes
// a test on that tuple, each distinct (tuple, filter) once, decided
// through predicate.Dict.Holds like every other filter. A pair survives
// on a document iff its tests pass, exactly as in the live predicate
// stage, so a unit's live results are its structural pairs whose tests
// passed, in order. A unit with one structural pair per level, which
// chain, matches iff all of its tests pass: a conjunction unit. Else it
// is a chain unit, and a hit runs occurrence determination over the pairs
// whose tests passed; a unit whose structural pairs do not chain is left
// out. A Postponed group is decided on the miss by its structural chain,
// its members by their own filters. What a program names is append-only:
// expression ids, and the dictionary's constant ids, whose ranks may
// change under it (Dict.Rerank) but not their meaning.
//
// A miss builds the entry from one sweep over the structural results and
// then takes the hit's tail, so there is one cached path. Structural
// candidates evaluate against a clean matched buffer (sc.matched2) with
// mark logging on, so the cached outcome never absorbs marks from earlier
// paths of the same document. A later path of a shape the document ran
// already reuses the shape's record (shapeRec) instead of probing, and
// re-decides only the tests of tuples whose node changed; when none did,
// its units decide as they did and are skipped.
//
// A nested-path expression's sub-expressions are part of the entry too,
// as chains over the same guarded pair lists, after the chain units: a hit
// records its tests' pass bits and the path's node ids, and the document's
// end recombines the sub-expressions' pairs from them (nested.go).
//
// Registration changes (cacheEffect). An entry is a function of its
// signature and the set of distinct expressions, so a change of SIDs —
// Remove, Add of a registered expression — leaves the cache alone. When
// distinct expressions X were added, the entries of the signatures no
// chain x of X can match structurally (canMatch: some predicate of x
// fails on the signature's tags and positions; a nested-path expression's
// chains are its sub-expressions') are kept, and are still the entries a
// miss would build now:
//
//	(a) x is on no such signature's Outcome or Program: its unit is a
//	    sweep candidate, and a sub-expression compiled, only where every
//	    predicate of its chain matched structurally, which is what
//	    canMatch evaluates.
//	(b) No other unit's marks changed. The kernel evaluates each unit on
//	    its own (no cover relation is read), so the only unit an x
//	    changes is the Postponed group it joins, possibly turning it
//	    from structural to live — and the group has x's chain, so it is
//	    a candidate on no kept signature either.
//	(c) Expression ids and the value dictionary's constant ids are
//	    append-only, so what the entry names still means the same; a
//	    constant new with X re-ranks its attribute's others, and tests
//	    read ranks when they run.
//
// One case flushes instead, as a rule rather than an argument: more than
// maxEvictAdds chains pending (a bulk load: one walk per catch-up tests
// every entry against every pending chain).

// appendPubSig appends the path's structural signature: the tuple count
// (little-endian, two bytes — paths deeper than 64k tags do not occur)
// followed by each tuple's tag, a NUL separator, and its per-path
// occurrence number. Everything the structural predicate rules consult —
// tags, positions (implied by order), occurrences and path length — is
// covered; attribute values, node ids and child indexes are deliberately
// excluded (the value-dependent work re-runs live).
func appendPubSig(b []byte, pub *xmldoc.Publication) []byte {
	b = append(b, byte(pub.Length), byte(pub.Length>>8))
	for i := range pub.Tuples {
		t := &pub.Tuples[i]
		b = append(b, t.Tag...)
		b = append(b, 0, byte(t.Occ), byte(t.Occ>>8))
	}
	return b
}

// maxEvictAdds is the most pending chains — single-path expressions and
// sub-expressions — a catch-up tests cache entries against; past it the
// cache is flushed.
const maxEvictAdds = 16

// cacheEffect is the one place a registration change acts on the path
// cache: added are the distinct expressions registered since the last
// catch-up (none after a change of SIDs only, which therefore does
// nothing). See the header for why the kept entries stay exact. Callers
// hold the write lock, so the walk cannot interleave with a matcher's
// Get/Put (matching holds the read lock).
func (m *Matcher) cacheEffect(added []*expr) {
	chains := 0
	for _, e := range added {
		chains += max(1, len(e.subs))
	}
	switch {
	case m.cache == nil || chains == 0:
	case chains > maxEvictAdds:
		m.cache.Invalidate()
	default:
		var tags []string
		m.cache.Evict(func(sig string) bool {
			tags = sigTags(tags[:0], sig)
			for _, e := range added {
				if m.canMatch(e, tags) {
					return true
				}
			}
			return false
		})
	}
}

// sigTags appends the tag sequence of a signature (appendPubSig's format).
func sigTags(tags []string, sig string) []string {
	for rest := sig[2:]; rest != ""; {
		end := strings.IndexByte(rest, 0)
		tags = append(tags, rest[:end])
		rest = rest[end+3:]
	}
	return tags
}

// canMatch reports whether every predicate of e's chain — for a
// nested-path expression, of one of its sub-expressions' — matches a path
// with this tag sequence, attribute filters aside: the predicate stage's
// rules (predindex.matchPath) read off the signature, where a tag's
// position is its index plus one. It is the condition under which the
// sweep makes e's unit a candidate, and a miss compiles a sub-expression,
// and it holds on every path e matches.
func (m *Matcher) canMatch(e *expr, tags []string) bool {
	if e.root != nil {
		return slices.ContainsFunc(e.subs, func(n *nestedNode) bool { return m.canMatch(&n.expr, tags) })
	}
	for _, pid := range e.pids {
		p := m.ix.Pred(pid)
		holds := func(d int) bool { return d == p.Value || p.Op == predicate.GE && d > p.Value }
		ok := p.Kind == predicate.Length && holds(len(tags))
		for i := 0; i < len(tags) && !ok; i++ {
			if tags[i] != p.Tag1 {
				continue
			}
			switch p.Kind {
			case predicate.Absolute:
				ok = holds(i + 1)
			case predicate.EndOfPath:
				ok = holds(len(tags) - i - 1)
			case predicate.Relative:
				for j := i + 1; j < len(tags) && !ok; j++ {
					ok = tags[j] == p.Tag2 && holds(j-i)
				}
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// matchPathCached is the cache-enabled body of matchPath, entered after
// the dedup check: the one cached path, on the columnar organization.
// Callers hold the read lock with the columnar index caught up. A shape
// the document ran already takes its record's entry, with no cache probe;
// else the Shape picks the cache shard and the signature the entry, and a
// miss runs the structural predicate stage and builds it. Every path then
// runs its entry.
func (m *Matcher) matchPathCached(sc *scratch, cs *colScratch, pub *xmldoc.Publication, bud *guard.Budget) {
	r := sc.record(pub)
	first := r == nil
	if first {
		sc.sig = appendPubSig(sc.sig[:0], pub)
		ent, ok := m.cache.Get(pub.Shape, sc.sig)
		if !ok {
			sc.res.Reset(m.ix.Len())
			m.ix.MatchPath(pub, sc.res, false)
			if ent = m.buildEntry(sc, cs, repeatsTag(pub), bud); ent == nil {
				return
			}
			m.cache.Put(pub.Shape, sc.sig, ent)
		}
		r = sc.newRecord(pub, ent)
	}
	m.runEntry(sc, r, first, pub, bud)
}

// shapeRec is the document's record of one path shape whose entry ran. Its
// tuples' tags and occurrences confirm a later path's signature exactly;
// their attributes are the storage the tests were last decided on.
type shapeRec struct {
	ent    *pathcache.Entry
	length int
	tuples []xmldoc.Tuple
	pass   []uint64
}

// record returns the document's record of pub's shape, or nil when there
// is none or it differs from pub's signature.
func (sc *scratch) record(pub *xmldoc.Publication) *shapeRec {
	i, ok := sc.shapes[pub.Shape]
	if !ok || sc.recs[i].length != pub.Length || len(sc.recs[i].tuples) != len(pub.Tuples) {
		return nil
	}
	for k, rt := range sc.recs[i].tuples {
		if t := &pub.Tuples[k]; t.Tag != rt.Tag || t.Occ != rt.Occ {
			return nil
		}
	}
	return &sc.recs[i]
}

// newRecord records pub's shape as running ent, in the scratch's slabs.
func (sc *scratch) newRecord(pub *xmldoc.Publication, ent *pathcache.Entry) *shapeRec {
	lo, plo := len(sc.recTuples), len(sc.recPass)
	sc.recTuples = append(sc.recTuples, pub.Tuples...)
	if ent.Prog != nil {
		sc.recPass = append(sc.recPass, make([]uint64, bitset.Words(len(ent.Prog.Tests)))...)
	}
	sc.shapes[pub.Shape] = int32(len(sc.recs))
	sc.recs = append(sc.recs, shapeRec{ent: ent, length: pub.Length, tuples: sc.recTuples[lo:], pass: sc.recPass[plo:]})
	return &sc.recs[len(sc.recs)-1]
}

// runEntry is the cache hit: it folds the entry's contribution for the
// current path into sc — the structural outcome on the shape's first
// path, then the program's units over the document's attribute values —
// and records the path for the sub-expressions the entry holds. A miss
// ends here too, on the entry it just built.
func (m *Matcher) runEntry(sc *scratch, r *shapeRec, first bool, pub *xmldoc.Publication, bud *guard.Budget) {
	ent, p := r.ent, r.ent.Prog
	if first {
		for _, id := range ent.Outcome {
			sc.matched[id] = true
		}
	}
	if p == nil {
		return
	}
	decided := m.progTests(sc, r, first, pub)
	if decided {
		// Charged like the sweep, a step per 64 operations: an entry's
		// tests, pairs and marks are bounded by the units a scalar loop
		// would have evaluated at one step or more apiece. Determination
		// charges its own.
		if n := int64((len(p.Tests) + len(p.Pairs) + progUnits(sc, p, r.pass)) >> 6); n > 0 {
			bud.StepN(n)
		}
		m.progChains(sc, p, r.pass, bud)
	}
	m.recordNested(sc, p, r.pass, pub)
}

// progTests decides the program's tests into the record's pass bits — on
// the shape's first path all of them, on a later one those on tuples
// whose node changed: Holds reads nothing of a tuple but its attribute
// storage. It reports whether it decided any; if not, the units decide as
// they last did.
func (m *Matcher) progTests(sc *scratch, r *shapeRec, first bool, pub *xmldoc.Publication) (decided bool) {
	fresh := sc.fresh[:0]
	for k := range r.tuples {
		t, seen := &pub.Tuples[k], &r.tuples[k]
		fresh = append(fresh, first || unsafe.SliceData(seen.Attrs) != unsafe.SliceData(t.Attrs) || len(seen.Attrs) != len(t.Attrs))
		seen.Attrs = t.Attrs
	}
	sc.fresh = fresh
	for i, pt := range r.ent.Prog.Tests {
		if !fresh[pt.Tuple] {
			continue
		}
		decided = true
		bitset.Clear(r.pass, i)
		if t := &pub.Tuples[pt.Tuple]; len(t.Attrs) > 0 { // else the test fails unevaluated
			sc.work.tests++
			if m.ix.Vals.Holds(pt.Test, t, &sc.res.Vals) {
				bitset.Set(r.pass, i)
			}
		}
	}
	return decided
}

// allPass reports whether every test of a run of program.More (closed by
// -1) passed.
func allPass(run []int32, pass []uint64) bool {
	for _, j := range run {
		if j < 0 {
			break
		}
		if !bitset.Get(pass, int(j)) {
			return false
		}
	}
	return true
}

// progUnits walks the conjunction units under the tests that passed,
// marks those whose further tests passed too, and returns how many it
// marked.
func progUnits(sc *scratch, p *pathcache.Program, pass []uint64) (marked int) {
	for w, word := range pass {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			for _, u := range p.Units[p.Start[i]:p.Start[i+1]] {
				if u.More < 0 || allPass(p.More[u.More:], pass) {
					sc.matched[u.ID] = true
					marked++
				}
			}
		}
	}
	return marked
}

// progChains decides the chain units not matched yet: each pair list
// keeps the pairs whose guards passed, and occurrence determination runs
// over a unit's levels, charging the budget a step per pair it visits.
func (m *Matcher) progChains(sc *scratch, p *pathcache.Program, pass []uint64, bud *guard.Budget) {
	if len(p.Chains) == 0 || p.Chains[0].ID < 0 {
		return
	}
	if cap(sc.pairBuf) < len(p.Pairs) {
		sc.pairBuf = make([]occur.Pair, 0, len(p.Pairs))
	}
	buf, lists := sc.pairBuf[:0], sc.filt[:0]
	for k := 1; k < len(p.Lists); k++ {
		lo := len(buf)
		for _, pp := range p.Pairs[p.Lists[k-1]:p.Lists[k]] {
			if pp.Guard < 0 || allPass(p.More[pp.Guard:], pass) {
				buf = append(buf, pp.Pair)
			}
		}
		lists = append(lists, buf[lo:len(buf):len(buf)])
	}
	sc.pairBuf, sc.filt = buf, lists
chains:
	for _, c := range p.Chains {
		if c.ID < 0 {
			return // the nested-path sub-expressions, which recordNested reads
		}
		if sc.matched[c.ID] {
			continue
		}
		chain := sc.chain[:0]
		for _, k := range p.Levels[c.Levels:] {
			if k < 0 {
				break
			}
			if len(lists[k]) == 0 {
				sc.chain = chain
				continue chains
			}
			chain = append(chain, lists[k])
		}
		sc.chain = chain
		sc.work.evals++
		ok, _, visited := occur.Determine(chain, bud, &sc.occBuf)
		sc.work.pairs += visited
		if bud.Exceeded() {
			return
		}
		if ok {
			sc.matched[c.ID] = true
		}
	}
}

// buildEntry computes the cache entry of the current path from the
// structural results in sc.res. It returns nil when the budget tripped: an
// entry must be the complete outcome and program for its signature, never
// a budget-truncated one.
func (m *Matcher) buildEntry(sc *scratch, cs *colScratch, ambiguous bool, bud *guard.Budget) *pathcache.Entry {
	acc := m.colSweep(sc.res.Touched(), cs, ambiguous, bud)
	if bud.Exceeded() {
		return nil
	}

	// Candidates against the clean buffer with logging on: the structural
	// ones are evaluated, the live ones set aside and compiled; what either
	// marks is the outcome.
	sc.matched, sc.matched2 = sc.matched2, sc.matched
	sc.log = sc.log[:0]
	sc.logging = true
	cs.plan = cs.plan[:0]
	m.markCandidates(sc, cs, acc, ambiguous, bud)
	var prog *pathcache.Program
	if (len(cs.plan) > 0 || len(m.nodes) > 0) && !bud.Exceeded() {
		prog = m.compileProgram(sc, cs, ambiguous, bud)
	}
	sc.logging = false
	sc.matched, sc.matched2 = sc.matched2, sc.matched
	for _, id := range sc.log {
		sc.matched2[id] = false // restore the all-false invariant
	}
	if bud.Exceeded() {
		return nil
	}
	return &pathcache.Entry{Outcome: append([]int32(nil), sc.log...), Prog: prog}
}

// progBuilder is a program while a miss compiles it: its tests and pair
// lists by identity, and per conjunction unit the test it is laid out
// under.
type progBuilder struct {
	p     pathcache.Program
	tests map[pathcache.ProgTest]int32
	lists map[listKey]int32
	first []int32
	need  []int32
}

// listKey names a pair list: a predicate under its own filters (post nil)
// or under a Postponed member's at one chain level.
type listKey struct {
	pid  predindex.PID
	post *[2][]predicate.Test
}

// compileProgram compiles the live candidates of the current path
// (cs.plan) and the sub-expressions that can match it over the structural
// results into the entry's program, nil when none of them is left. A
// Postponed member without filters is marked instead, into the outcome
// being logged.
func (m *Matcher) compileProgram(sc *scratch, cs *colScratch, ambiguous bool, bud *guard.Budget) *pathcache.Program {
	b := &progBuilder{tests: make(map[pathcache.ProgTest]int32), lists: make(map[listKey]int32)}
	for _, c := range cs.plan {
		switch u := cs.ci.units[c]; {
		case u.members == nil:
			m.compileUnit(sc, b, u, ambiguous, bud)
		case !ambiguous || m.chains(sc, u.pids, bud): // else no member can match
			for _, mem := range u.members {
				if mem.post == nil {
					sc.mark(mem.id)
				} else {
					m.compileUnit(sc, b, mem, false, bud)
				}
			}
		}
	}
	m.compileNested(sc, b)
	if bud.Exceeded() || len(b.p.Units)+len(b.p.Chains) == 0 {
		return nil
	}
	return b.finish()
}

// chains runs occurrence determination over the structural results of
// pids, every level of which holds pairs, and reports whether they chain.
func (m *Matcher) chains(sc *scratch, pids []predindex.PID, bud *guard.Budget) bool {
	chain := sc.chain[:0]
	for _, pid := range pids {
		chain = append(chain, sc.res.Get(pid))
	}
	sc.chain = chain
	sc.work.evals++
	ok, _, visited := occur.Determine(chain, bud, &sc.occBuf)
	sc.work.pairs += visited
	return ok && !bud.Exceeded()
}

// compileUnit adds e to the program: a conjunction unit where every level
// has one structural pair, else a chain unit. With check set, a unit whose
// structural pairs do not chain is left out.
func (m *Matcher) compileUnit(sc *scratch, b *progBuilder, e *expr, check bool, bud *guard.Budget) {
	if check && !m.chains(sc, e.pids, bud) {
		return
	}
	single := true
	for _, pid := range e.pids {
		single = single && len(sc.res.Get(pid)) == 1
	}
	if !single {
		lv := int32(len(b.p.Levels))
		for l := range e.pids {
			b.p.Levels = append(b.p.Levels, b.list(m, sc, levelKey(e, l)))
		}
		b.p.Levels = append(b.p.Levels, -1)
		b.p.Chains = append(b.p.Chains, pathcache.ProgChain{ID: int32(e.id), Levels: lv})
		return
	}
	need := b.need[:0]
	for l, pid := range e.pids {
		need = b.guard(m, sc, need, levelKey(e, l), sc.res.Get(pid)[0])
	}
	if b.need = need; len(need) == 0 {
		sc.mark(e.id) // no filter left to decide: a function of the signature
		return
	}
	u := pathcache.ProgUnit{ID: int32(e.id), More: -1}
	if len(need) > 1 {
		u.More = int32(len(b.p.More))
		b.p.More = append(append(b.p.More, need[1:]...), -1)
	}
	b.first = append(b.first, need[0])
	b.p.Units = append(b.p.Units, u)
}

// levelKey names the pair list of e's chain level l.
func levelKey(e *expr, l int) listKey {
	if e.postTests != nil {
		return listKey{e.pids[l], &e.postTests[l]}
	}
	return listKey{pid: e.pids[l]}
}

// guard appends to need the indices of the tests the filters of list k put
// on the tuples its pair pr names.
func (b *progBuilder) guard(m *Matcher, sc *scratch, need []int32, k listKey, pr occur.Pair) []int32 {
	filters := m.ix.Tests(k.pid)
	if k.post != nil {
		filters = *k.post
	}
	if len(filters[0])+len(filters[1]) == 0 {
		return need
	}
	p := m.ix.Pred(k.pid)
	for side, fs := range filters {
		tag, o := p.Tag1, pr.A
		if side == 1 {
			tag, o = p.Tag2, pr.B
		}
		for _, f := range fs {
			pt := pathcache.ProgTest{Tuple: int32(sc.tupleAt(tag, o).Pos - 1), Test: f}
			i, ok := b.tests[pt]
			if !ok {
				i = int32(len(b.p.Tests))
				b.tests[pt] = i
				b.p.Tests = append(b.p.Tests, pt)
			}
			need = append(need, i)
		}
	}
	return need
}

// list returns the index of pair list k, adding it on first use: the
// predicate's structural pairs, each with the run of tests that guards it.
func (b *progBuilder) list(m *Matcher, sc *scratch, k listKey) int32 {
	if i, ok := b.lists[k]; ok {
		return i
	}
	i := int32(len(b.p.Lists))
	b.lists[k] = i
	b.p.Lists = append(b.p.Lists, int32(len(b.p.Pairs)))
	for _, pr := range sc.res.Get(k.pid) {
		pp := pathcache.ProgPair{Pair: pr, Guard: -1}
		if b.need = b.guard(m, sc, b.need[:0], k, pr); len(b.need) > 0 {
			pp.Guard = int32(len(b.p.More))
			b.p.More = append(append(b.p.More, b.need...), -1)
		}
		b.p.Pairs = append(b.p.Pairs, pp)
	}
	return i
}

// finish lays the program out for the hit: the conjunction units sorted
// by first test (a counting sort), the pair lists closed, every slice
// exact.
func (b *progBuilder) finish() *pathcache.Program {
	p := &b.p
	start := make([]int32, len(p.Tests)+1)
	for _, i := range b.first {
		start[i+1]++
	}
	for i := range p.Tests {
		start[i+1] += start[i]
	}
	next := slices.Clone(start)
	units := make([]pathcache.ProgUnit, len(p.Units))
	for k, u := range p.Units {
		units[next[b.first[k]]] = u
		next[b.first[k]]++
	}
	if len(p.Chains) > 0 {
		p.Lists = append(p.Lists, int32(len(p.Pairs)))
	}
	return &pathcache.Program{
		Tests: slices.Clone(p.Tests), Start: start, Units: units, More: slices.Clone(p.More),
		Chains: slices.Clone(p.Chains), Levels: slices.Clone(p.Levels), Lists: slices.Clone(p.Lists), Pairs: slices.Clone(p.Pairs),
	}
}
