package matcher

import (
	"math/bits"
	"time"

	"predfilter/internal/bitset"
	"predfilter/internal/guard"
	"predfilter/internal/pathcache"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
)

// Path-signature caching (the document-side dual of expression sharing;
// see internal/pathcache). The four structural predicate types depend
// only on tag names and positions, so for a given path *signature* — its
// tag sequence plus per-path occurrence vector — the predicate stage and
// the occurrence determination of every value-independent iteration unit
// produce the same result on every document. The columnar organization
// (columnar.go) therefore splits its unit columns at freeze time:
//
//   - structural units: every chain predicate is bare (no attribute
//     filters), the expression carries no postponed annotations, and —
//     for Postponed group representatives — neither does any member.
//     Their per-path mark set is a pure function of the signature and is
//     cached as the entry's Outcome. This is sound because every
//     expression a structural unit can mark (containment covers, group
//     members) is itself bare and annotation-free, and mark contributions
//     are monotone, so OR-ing a cached outcome into the document state is
//     exactly the sequential evaluation (the same argument that justifies
//     the parallel merge).
//
//   - live units: anything touching attribute values. Whether one matches
//     depends on the document, but whether it *can* match does not: a
//     unit matches only if every chain predicate produced pairs, and an
//     attribute-carrying predicate produces pairs only where its cell
//     matched on tags and positions. The live units whose every predicate
//     matched structurally are the entry's live plan — the same argument
//     the Outcome makes, applied one step earlier. A hit replays the
//     transcript (re-verifying attribute filters against the live tuples)
//     and evaluates the plan's units only; every other live unit has a
//     predicate that no document with this signature can satisfy. The
//     transcript is pruned to the predicates the plan references, since
//     nothing else reads the replayed results — except nested-path
//     expressions, which are live too (their recombination needs node
//     identities) and read arbitrary predicates, so their presence keeps
//     the transcript whole.
//
// A miss builds the entry from one sweep over the structural touched set
// and then takes the hit's tail, so there is one cached path. Structural
// candidates evaluate against a clean matched buffer (sc.matched2) with
// mark logging on, so the cached outcome never absorbs marks from earlier
// paths of the same document.

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

// unitValueDependent reports whether the iteration unit rooted at e does
// any attribute-value work: an attribute-carrying chain predicate
// (Inline mode), postponed annotations on the expression itself, or on
// any member of its structural group (Postponed mode).
func (m *Matcher) unitValueDependent(e *expr) bool {
	for _, pid := range e.pids {
		if m.ix.Pred(pid).HasAttrs() {
			return true
		}
	}
	if e.post != nil {
		return true
	}
	for _, mem := range e.members {
		if mem.post != nil {
			return true
		}
	}
	return false
}

// invalidatePathCache bumps the cache generation so no stale outcome can
// be served after a registration change. Callers hold the write lock, so
// the bump cannot interleave with a matcher's Get/Put (matching holds the
// read lock).
func (m *Matcher) invalidatePathCache() {
	if m.cache != nil {
		m.cache.Invalidate()
	}
}

// matchPathCached is the cache-enabled body of matchPath, entered after
// the dedup check: the one cached path, on the columnar organization.
// Callers hold the read lock with the columnar index current. A hit
// replays the pruned transcript; a miss runs stage 1 and builds the entry;
// both then apply the structural outcome and walk the live plan.
func (m *Matcher) matchPathCached(sc *scratch, cs *colScratch, pub *xmldoc.Publication, bd *Breakdown, t0 time.Time, bud *guard.Budget) {
	ci := cs.ci
	sc.sig = appendPubSig(sc.sig[:0], pub)
	h := sigHash(sc.sig)

	ent, ok := m.cache.Get(h, sc.sig)
	var tc, t1 time.Time
	if bd != nil {
		// Signature build + lookup is the cache stage; predicate work
		// (replay or a fresh stage 1) is accounted separately below.
		tc = time.Now()
		bd.Cache += tc.Sub(t0)
	}
	if ok {
		if ci.needRes {
			sc.res.Reset(m.ix.Len())
			m.ix.Replay(&ent.Rec, pub, sc.res)
		}
		if bd != nil {
			t1 = time.Now()
			bd.PredMatch += t1.Sub(tc)
		}
	} else {
		// Stage 1 over the layout, recording the transcript when
		// value-dependent work will need it replayed on later hits.
		ambiguous := cs.resolveTids(pub)
		sc.res.Reset(m.ix.Len())
		var rec *predindex.Recording
		if ci.needRes {
			sc.rec.Reset()
			rec = &sc.rec
		}
		ci.lay.MatchPathTids(pub, cs.tids, sc.res, rec)
		if bd != nil {
			t1 = time.Now()
			bd.PredMatch += t1.Sub(tc)
		}
		if ent = m.buildEntry(sc, cs, ambiguous, bd, bud); ent == nil {
			return
		}
		m.cache.Put(h, sc.sig, ent)
	}

	for _, id := range ent.Outcome {
		sc.matched[id] = true
	}
	for _, p := range ent.Plan {
		// The plan proves the chain structurally possible; the replayed
		// results say whether this document's attribute values agree.
		if !sc.res.Matched(p.Gate) {
			continue
		}
		u := &ci.units[p.Col]
		if sc.matched[u.id] || !sc.res.MatchedAll(u.e.pids) {
			continue
		}
		if bud.Exceeded() {
			return
		}
		m.markUnit(sc, u, ent.Ambiguous, bud)
	}
	for _, e := range m.nested {
		e.root.collect(m, sc, bud)
	}
	if bd != nil {
		bd.ExprMatch += time.Since(t1)
	}
}

// buildEntry computes the cache entry of the current path from the stage-1
// results in sc.res and the transcript in sc.rec. It returns nil when the
// budget tripped: an entry must be the complete outcome and plan for its
// signature, never a budget-truncated one.
func (m *Matcher) buildEntry(sc *scratch, cs *colScratch, ambiguous bool, bd *Breakdown, bud *guard.Budget) *pathcache.Entry {
	ci := cs.ci
	// One sweep over the structural touched set: what stage 1 matched plus
	// the attribute-carrying predicates whose cell matched but whose
	// filters failed on this document. Structural units reference bare
	// predicates only, so their candidate bits are unaffected by the
	// extras; the live candidates become the plan.
	touched := sc.res.Touched()
	if ci.needRes && len(sc.rec.Residual) > 0 {
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

	// Structural candidates against the clean buffer with logging on.
	sc.matched, sc.matched2 = sc.matched2, sc.matched
	sc.log = sc.log[:0]
	sc.logging = true
	m.markCandidates(sc, ci, acc, ci.structMask, ambiguous, bud)
	sc.logging = false
	sc.matched, sc.matched2 = sc.matched2, sc.matched
	for _, id := range sc.log {
		sc.matched2[id] = false // restore the all-false invariant
	}
	if bud.Exceeded() {
		return nil
	}

	ne := &pathcache.Entry{Outcome: append([]int32(nil), sc.log...), Ambiguous: ambiguous}
	if !ci.needRes {
		return ne
	}
	cs.plan = cs.plan[:0]
	for w, word := range acc {
		for word &= ci.liveMask[w]; word != 0; word &= word - 1 {
			c := w<<6 + bits.TrailingZeros64(word)
			cs.plan = append(cs.plan, pathcache.PlanUnit{Col: int32(c), Gate: ci.gate[c]})
		}
	}
	ne.Plan = append([]pathcache.PlanUnit(nil), cs.plan...)
	if len(m.nested) == 0 {
		bitset.Zero(cs.planPids)
		for _, p := range ne.Plan {
			for _, pid := range ci.units[p.Col].e.pids {
				bitset.Set(cs.planPids, int(pid))
			}
		}
		sc.rec.Keep(func(pid predindex.PID) bool { return bitset.Get(cs.planPids, int(pid)) })
	}
	ne.Rec = sc.rec.Clone()
	return ne
}

// PathCacheStats returns the cache counters and whether the cache is
// enabled.
func (m *Matcher) PathCacheStats() (pathcache.Stats, bool) {
	if m.cache == nil {
		return pathcache.Stats{}, false
	}
	return m.cache.Stats(), true
}
