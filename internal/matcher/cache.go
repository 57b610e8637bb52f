package matcher

import (
	"math/bits"
	"strings"
	"time"

	"predfilter/internal/bitset"
	"predfilter/internal/guard"
	"predfilter/internal/pathcache"
	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
)

// Path-signature caching (the document-side dual of expression sharing;
// see internal/pathcache). The four structural predicate types depend
// only on tag names and positions, so for a given path *signature* — its
// tag sequence plus per-path occurrence vector — the predicate stage and
// the occurrence determination of every value-independent iteration unit
// produce the same result on every document. The iteration units
// therefore split in two:
//
//   - structural units: every chain predicate is bare (no attribute
//     filters), the expression carries no postponed annotations, and —
//     for Postponed group representatives — neither does any member.
//     Their per-path mark set is a pure function of the signature and is
//     cached as the entry's Outcome. This is sound because every
//     expression a structural unit can mark (its group members) is itself
//     bare and annotation-free, and mark contributions are monotone, so
//     OR-ing a cached outcome into the document state is exactly the
//     sequential evaluation: marks only ever set bits, so the order in
//     which units contribute them cannot change the result.
//
//   - live units (expr.live): anything touching attribute values. Whether
//     one matches depends on the document, but whether it *can* match
//     does not: a unit matches only if every chain predicate produced
//     pairs, and an attribute-carrying predicate produces pairs only
//     where its cell matched on tags and positions. The live units whose
//     every predicate matched structurally are the entry's live plan —
//     the same argument the Outcome makes, applied one step earlier. A
//     hit decides the plan's units and no others; every other live unit
//     has a predicate that no document with this signature can satisfy.
//
// How a hit decides the plan depends on whether occurrence pairs can
// matter:
//
//   - The program (pathcache.Program), for an unambiguous path in Inline
//     mode with no nested-path expression registered. No tag repeats, so
//     each tag, and each ordered pair of tags, names one tuple or tuple
//     pair of the path, and every predicate has at most one structural
//     occurrence on it — for an attribute-carrying predicate of a plan
//     unit exactly one, the residual hit the miss transcribed. Replay
//     would add that predicate's one pair iff the filters on its first tag
//     hold on tuple T1 and those on its second on T2; MatchedAll(u.pids)
//     would then hold iff that is so for every filtered predicate of u
//     (the bare ones matched, or u were no candidate), and the unit would
//     be marked directly, every level holding the pair (1,1) (columnar.go).
//     So u is marked iff the conjunction of its (tuple, filter) tests
//     holds, which is what the program stores and evaluates — each
//     distinct test once, through predicate.Dict.Holds like every other
//     filter decision — without results, replay or unit lookups. What it
//     names is append-only: expression ids, and the dictionary's constant
//     ids, whose ranks may change under it (Dict.Rerank) but not their
//     meaning.
//
//   - Plan and transcript, otherwise: a repeated tag needs occurrence
//     determination over the pairs, a Postponed group representative
//     verifies its members' filters pair by pair, and nested-path
//     expressions enumerate assignments. The hit replays the transcript
//     (deciding the residual hits' filters against the live tuples) and
//     runs evalExpr on the plan's units. The transcript is pruned to the
//     predicates the plan references, since nothing else reads the
//     replayed results — except nested-path expressions, which are live
//     too (their recombination needs node identities) and read arbitrary
//     predicates, so their presence keeps the transcript whole.
//
// A miss builds the entry from one sweep over the structural touched set
// and then takes the hit's tail, so there is one cached path. Structural
// candidates evaluate against a clean matched buffer (sc.matched2) with
// mark logging on, so the cached outcome never absorbs marks from earlier
// paths of the same document.
//
// Registration changes (cacheEffect). An entry is a function of its
// signature and the set of distinct expressions, so a change of SIDs —
// Remove, Add of a registered expression — leaves the cache alone. When
// distinct expressions X were added, the entries of the signatures no
// x ∈ X can match structurally (canMatch: some predicate of x's chain
// fails on the signature's tags and positions) are kept, and are still
// the entries a miss would build now:
//
//	(a) x is on no such signature's Outcome or Plan: its unit is a sweep
//	    candidate only where every predicate of its chain matched
//	    structurally, which is what canMatch evaluates.
//	(b) No other unit's marks changed. The kernel evaluates each unit on
//	    its own (no cover relation is read), so the only unit an x
//	    changes is the Postponed group it joins, possibly turning it
//	    from structural to live — and the group has x's chain, so it is
//	    a candidate on no kept signature either.
//	(c) The program, or the pruned transcript, has to serve the plan's
//	    units, which did not change. Predicates new with X are referenced
//	    by X alone.
//	(d) Expression ids, predicate ids, unit columns and the value
//	    dictionary's constant ids are append-only, so what the entry names
//	    still means the same; a constant new with X re-ranks its
//	    attribute's others, and tests read ranks when they run.
//
// Two cases flush instead, as rules rather than arguments: a nested-path
// expression is registered (old or new — transcripts are kept whole for
// those, and recombination reads predicates no chain test covers), or
// more than maxEvictAdds expressions are pending (a bulk load: one walk
// per catch-up tests every entry against every pending expression).

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

// sigHash is the FNV-1a shard-selection hash of a signature. Collisions
// are harmless: the cache compares full signature bytes.
func sigHash(sig []byte) uint64 {
	h := fnvOffset64
	for _, c := range sig {
		h = fnvByte(h, c)
	}
	return h
}

// maxEvictAdds is the most pending distinct expressions a catch-up tests
// cache entries against; past it the cache is flushed.
const maxEvictAdds = 16

// cacheEffect is the one place a registration change acts on the path
// cache: added are the distinct expressions registered since the last
// catch-up (none after a change of SIDs only, which therefore does
// nothing). See the header for why the kept entries stay exact. Callers
// hold the write lock, so the walk cannot interleave with a matcher's
// Get/Put (matching holds the read lock).
func (m *Matcher) cacheEffect(added []*expr) {
	switch {
	case m.cache == nil || len(added) == 0:
	case len(m.nested) > 0 || len(added) > maxEvictAdds:
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

// canMatch reports whether every predicate of e's chain matches a path
// with this tag sequence, attribute filters aside: the predicate stage's
// rules (predindex.matchPath) read off the signature, where a tag's
// position is its index plus one. It is the condition under which the
// sweep makes e's unit a candidate, and it holds on every path e matches.
func (m *Matcher) canMatch(e *expr, tags []string) bool {
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
// Callers hold the read lock with the columnar index caught up. A miss
// runs stage 1 and builds the entry; hit and miss then both run the entry.
func (m *Matcher) matchPathCached(sc *scratch, cs *colScratch, pub *xmldoc.Publication, bd *Breakdown, t0 time.Time, bud *guard.Budget) {
	sc.sig = appendPubSig(sc.sig[:0], pub)
	h := sigHash(sc.sig)

	ent, ok := m.cache.Get(h, sc.sig)
	// Signature build + lookup is the cache stage; predicate work
	// (attribute tests, replay or a fresh stage 1) is accounted below.
	tc := time.Now()
	bd.Cache += tc.Sub(t0)
	if !ok {
		// Stage 1 over the layout, recording the transcript when
		// value-dependent work will need it on later hits.
		ambiguous := cs.resolveTids(pub)
		sc.res.Reset(m.ix.Len())
		var rec *predindex.Recording
		if m.needRes {
			sc.rec.Reset()
			rec = &sc.rec
		}
		cs.ci.lay.MatchPathTids(pub, cs.tids, sc.res, rec)
		t1 := time.Now()
		bd.PredMatch += t1.Sub(tc)
		if ent = m.buildEntry(sc, cs, ambiguous, bd, bud); ent == nil {
			return
		}
		m.cache.Put(h, sc.sig, ent)
		tc = time.Now()
		bd.ExprMatch += tc.Sub(t1)
	}
	m.runEntry(sc, cs.ci, ent, pub, bd, tc, bud)
}

// runEntry is the cache hit: it folds the entry's contribution for the
// current path into sc — the structural outcome as it stands, the
// value-dependent units through the program or, where the entry has none,
// through the replayed transcript and evalExpr. A miss ends here too, on
// the entry it just built. t is when the caller last read the clock.
func (m *Matcher) runEntry(sc *scratch, ci *colIndex, ent *pathcache.Entry, pub *xmldoc.Publication, bd *Breakdown, t time.Time, bud *guard.Budget) {
	// Predicate stage: the document's attribute values against the
	// program's tests, or against the transcript's residual hits.
	p := ent.Prog
	var pass []uint64
	if p != nil {
		pass = m.progTests(sc, p, pub)
	} else if len(ent.Plan) > 0 || len(m.nested) > 0 {
		sc.res.Reset(m.ix.Len())
		m.ix.Replay(&ent.Rec, pub, sc.res)
	}
	t1 := time.Now()
	bd.PredMatch += t1.Sub(t)

	// Expression stage.
	for _, id := range ent.Outcome {
		sc.matched[id] = true
	}
	if p != nil {
		// Charged like the sweep, a step per 64 operations: an entry's
		// tests and marks are bounded by the units a scalar loop would
		// have evaluated at one step or more apiece.
		if n := int64((len(p.Tests) + progUnits(sc, p, pass)) >> 6); n > 0 {
			bud.StepN(n)
		}
	}
	for _, c := range ent.Plan {
		// The plan proves the chain structurally possible; the replayed
		// results say whether this document's attribute values agree.
		u := ci.units[c]
		if sc.matched[u.id] || !sc.res.MatchedAll(u.pids) {
			continue
		}
		if bud.Exceeded() {
			return
		}
		m.markUnit(sc, u, ent.Ambiguous, bud)
	}
	for _, e := range m.nested { // none while an entry has a program
		e.root.collect(m, sc, bud)
	}
	bd.ExprMatch += time.Since(t1)
}

// progTests evaluates every distinct test of the program once, into a
// bitset of a few words.
func (m *Matcher) progTests(sc *scratch, p *pathcache.Program, pub *xmldoc.Publication) []uint64 {
	sc.pass = sized(sc.pass, bitset.Words(len(p.Tests)))
	clear(sc.pass)
	for i := range p.Tests {
		if f := &p.Tests[i]; m.ix.Vals.Holds(f.Test, &pub.Tuples[f.Tuple], &sc.res.Vals) {
			bitset.Set(sc.pass, i)
		}
	}
	return sc.pass
}

// progUnits walks the units under the tests that passed, marks those whose
// further tests passed too, and returns how many it marked.
func progUnits(sc *scratch, p *pathcache.Program, pass []uint64) (marked int) {
	for w, word := range pass {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
		units:
			for _, u := range p.Units[p.Start[i]:p.Start[i+1]] {
				if u.More >= 0 {
					for _, j := range p.More[u.More:] {
						if j < 0 {
							break
						}
						if !bitset.Get(pass, int(j)) {
							continue units
						}
					}
				}
				sc.matched[u.ID] = true
				marked++
			}
		}
	}
	return marked
}

// buildEntry computes the cache entry of the current path from the stage-1
// results in sc.res and the transcript in sc.rec. It returns nil when the
// budget tripped: an entry must be the complete outcome and plan for its
// signature, never a budget-truncated one.
func (m *Matcher) buildEntry(sc *scratch, cs *colScratch, ambiguous bool, bd *Breakdown, bud *guard.Budget) *pathcache.Entry {
	// One sweep over the structural touched set: what stage 1 matched plus
	// the attribute-carrying predicates whose cell matched but whose
	// filters failed on this document. Structural units reference bare
	// predicates only, so their candidate bits are unaffected by the
	// extras; the live candidates become the plan.
	touched := sc.res.Touched()
	if m.needRes && len(sc.rec.Residual) > 0 {
		cs.pids = append(cs.pids[:0], touched...)
		for _, r := range sc.rec.Residual {
			if !sc.res.Matched(r.PID) {
				cs.pids = append(cs.pids, r.PID) // repeats only re-set bits
			}
		}
		touched = cs.pids
	}
	acc := m.colSweep(touched, cs, ambiguous, bd, bud)
	if bud.Exceeded() {
		return nil
	}

	// Structural candidates against the clean buffer with logging on; the
	// live ones are set aside as the plan.
	sc.matched, sc.matched2 = sc.matched2, sc.matched
	sc.log = sc.log[:0]
	sc.logging = true
	cs.plan = cs.plan[:0]
	m.markCandidates(sc, cs, acc, true, ambiguous, bud)
	sc.logging = false
	sc.matched, sc.matched2 = sc.matched2, sc.matched
	for _, id := range sc.log {
		sc.matched2[id] = false // restore the all-false invariant
	}
	if bud.Exceeded() {
		return nil
	}

	ne := &pathcache.Entry{Outcome: append([]int32(nil), sc.log...), Ambiguous: ambiguous}
	nested := len(m.nested) > 0
	switch {
	case !m.needRes || !nested && len(cs.plan) == 0:
	case !nested && !ambiguous && m.opts.AttrMode == predicate.Inline:
		ne.Prog = m.compileProgram(sc, cs)
	default:
		ne.Plan = append([]int32(nil), cs.plan...)
		if !nested {
			bitset.Zero(cs.planPids)
			for _, c := range ne.Plan {
				for _, pid := range cs.ci.units[c].pids {
					bitset.Set(cs.planPids, int(pid))
				}
			}
			sc.rec.Keep(func(pid predindex.PID) bool { return bitset.Get(cs.planPids, int(pid)) })
		}
		ne.Rec = sc.rec.Clone()
	}
	return ne
}

// compileProgram turns the plan of an unambiguous path (cs.plan, plain
// units only) into the entry's hit program: each unit's filters become
// tests on the tuples its predicates' one structural occurrence names
// (the transcript's residual hits), numbered per entry and shared between
// units, and the units are laid out under the first test each needs.
func (m *Matcher) compileProgram(sc *scratch, cs *colScratch) *pathcache.Program {
	at := make(map[predindex.PID]predindex.ResidualHit, len(sc.rec.Residual))
	for _, h := range sc.rec.Residual {
		at[h.PID] = h
	}
	p := &pathcache.Program{}
	testIx := make(map[pathcache.ProgTest]int32)
	first := make([]int32, len(cs.plan)) // per plan unit, the test it is laid out under
	units := make([]pathcache.ProgUnit, len(cs.plan))
	var need []int32
	for k, c := range cs.plan {
		u := cs.ci.units[c]
		need = need[:0]
		for _, pid := range u.pids {
			h := at[pid] // present for every filtered predicate of a plan unit
			tuple := [2]int32{h.T1, h.T2}
			for side, tests := range m.ix.Tests(pid) {
				for _, f := range tests {
					pt := pathcache.ProgTest{Tuple: tuple[side], Test: f}
					i, ok := testIx[pt]
					if !ok {
						i = int32(len(p.Tests))
						testIx[pt] = i
						p.Tests = append(p.Tests, pt)
					}
					need = append(need, i)
				}
			}
		}
		first[k], units[k] = need[0], pathcache.ProgUnit{ID: int32(u.id), More: -1}
		if len(need) > 1 {
			units[k].More = int32(len(p.More))
			p.More = append(append(p.More, need[1:]...), -1)
		}
	}
	// Counting sort of the units by first test.
	p.Start = make([]int32, len(p.Tests)+1)
	for _, i := range first {
		p.Start[i+1]++
	}
	for i := range p.Tests {
		p.Start[i+1] += p.Start[i]
	}
	next := append([]int32(nil), p.Start...)
	p.Units = make([]pathcache.ProgUnit, len(units))
	for k, u := range units {
		p.Units[next[first[k]]] = u
		next[first[k]]++
	}
	p.Tests, p.More = append([]pathcache.ProgTest(nil), p.Tests...), append([]int32(nil), p.More...) // exact: retained
	return p
}
