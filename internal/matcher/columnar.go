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

// Columnar matching: the expression-matching stage rewritten as bitset
// sweeps so one 64-bit word op advances 64 expressions at once. This is
// the kernel every served entry point runs, for one document or a batch;
// the scalar per-unit loop (runUnits) survives as the uncached reference
// the equivalence suites, the benchmark oracle and the paper's Figure 6–9
// organizations compare against.
//
// At freeze time the iteration units (m.ordered, longest chain first)
// become bit columns. For each predicate pid, a CSR table records which
// (column, chain level) slots reference it. Per path, the sweep scatters
// the predicate stage's touched pids into per-level bitsets L[ℓ] — bit c
// of L[ℓ] says "unit c's level-ℓ predicate produced occurrence pairs" —
// and then folds acc = L[0] & L[1] & … down the levels. Because the
// columns are sorted longest-chain-first, the units owning a level ℓ
// occupy a prefix of the columns: the fold touches only levelWords[ℓ]
// words per level, with a single boundary-word mask letting shorter
// chains pass through. The surviving bits are the candidates — units
// whose every chain level matched — so the per-path cost is
// words(|units|/64) × maxLen word ops plus work proportional to the
// (few) candidates, instead of the scalar loop's |units| probes.
//
// A candidate still needs occurrence determination in general; the sweep
// only proves every level non-empty. The shortcut that makes the kernel
// profitable: on a path where no tag occurs twice (Tuple.Occ == 1 for
// every tuple — the common case by far), every matched predicate emitted
// exactly one occurrence pair, (occ, occ) = (1, 1), so any chained
// combination trivially exists and plain candidates are marked directly.
// (Length predicates record (0, 0), but they only ever form single-level
// chains, where determination needs no chaining.) Paths with a repeated
// tag — and group representatives, whose members need attribute
// verification — go through the scalar evalExpr per candidate.
//
// Covering parity: the scalar organizations also mark prefix covers (on
// partial determination depth) and containment covers. Both relations
// are exact — a consistent depth-k prefix assignment is a match of the
// length-k prefix expression, and a containment cover is a restriction
// of a full assignment — and every covered expression is itself a
// column, so its own candidate bit fires on exactly the paths the
// scalar cover-marking would mark it on. The columnar kernel therefore
// evaluates every unit independently (evalExpr with cover=false) and
// produces the same mark set; full-containment covers of a directly
// marked unit are marked through markFullCovers as in the scalar path.

// colRef is one CSR entry: predicate pid appears at chain level `level`
// of unit column `col`.
type colRef struct {
	col   int32
	level int32
}

// colIndex is the frozen columnar organization, derived from the frozen
// scalar one (m.ordered) and keyed to the freeze generation.
type colIndex struct {
	gen   uint64
	lay   *predindex.Layout
	units []hotExpr // == m.ordered at build: columns, longest chain first

	words  int // bitset words covering len(units) columns
	maxLen int // longest chain length

	// Per level ℓ: the number of words covering the columns whose chains
	// reach level ℓ (a prefix, by the longest-first sort), and the
	// valid-bit mask of the boundary word.
	levelWords []int
	levelMask  []uint64

	// CSR membership: refs[refOff[pid]:refOff[pid+1]] are pid's slots.
	refOff []int32
	refs   []colRef

	// Cache-enabled split (nil when the path cache is off; see cache.go):
	// columns of value-independent vs value-dependent units. needRes
	// records whether any live work exists, i.e. whether cache entries
	// must carry a plan and a replayable predicate transcript.
	structMask []uint64
	liveMask   []uint64
	needRes    bool
	gate       []predindex.PID // per column: see pathcache.PlanUnit

	// sweepCost is the fixed word-op count of one sweep (level clears +
	// fold); the per-path budget charge adds the scattered refs on top.
	sweepCost int
}

// colScratch is the pooled per-batch columnar working state. Buffer
// sizes are keyed to the colIndex identity, so steady-state batches
// allocate nothing.
type colScratch struct {
	ci    *colIndex
	back  []uint64   // backing array for level
	level [][]uint64 // level ℓ → levelWords[ℓ] words
	acc   []uint64
	tids  []int32
	stats colStats

	// Entry building on a cache miss (see buildEntry): the structural
	// touched set, the plan, and the predicates its units reference.
	pids     []predindex.PID
	plan     []pathcache.PlanUnit
	planPids []uint64
}

// colStats accumulates one batch's kernel counters, flushed to the
// metric set once per batch.
type colStats struct {
	paths      int64
	candidates int64
	ambiguous  int64
	words      int64
	wordsLive  int64
}

// buildColumnar derives the columnar organization from the frozen scalar
// one. Callers hold the write lock with freeze() already run.
func (m *Matcher) buildColumnar() {
	ci := &colIndex{gen: m.gen, lay: m.ix.BuildLayout(), units: m.ordered}
	n := len(ci.units)
	ci.words = bitset.Words(n)
	for _, h := range ci.units {
		if len(h.e.pids) > ci.maxLen {
			ci.maxLen = len(h.e.pids)
		}
	}

	// Level widths: count[ℓ] = units whose chain has a level ℓ. The
	// longest-first sort makes them a prefix of the columns.
	counts := make([]int, ci.maxLen)
	npids := m.ix.Len()
	refCnt := make([]int32, npids+1)
	total := 0
	for _, h := range ci.units {
		for ℓ, pid := range h.e.pids {
			counts[ℓ]++
			refCnt[pid]++
			total++
		}
	}
	ci.levelWords = make([]int, ci.maxLen)
	ci.levelMask = make([]uint64, ci.maxLen)
	for ℓ, c := range counts {
		ci.levelWords[ℓ] = bitset.Words(c)
		ci.levelMask[ℓ] = bitset.TailMask(c)
		ci.sweepCost += ci.levelWords[ℓ] // per-path clear
		if ℓ > 0 {
			ci.sweepCost += ci.levelWords[ℓ] // fold AND
		}
	}
	ci.sweepCost += ci.words // acc copy

	// CSR membership table.
	ci.refOff = make([]int32, npids+1)
	for pid := 0; pid < npids; pid++ {
		ci.refOff[pid+1] = ci.refOff[pid] + refCnt[pid]
	}
	ci.refs = make([]colRef, total)
	fill := make([]int32, npids)
	copy(fill, ci.refOff[:npids])
	for c, h := range ci.units {
		for ℓ, pid := range h.e.pids {
			ci.refs[fill[pid]] = colRef{col: int32(c), level: int32(ℓ)}
			fill[pid]++
		}
	}

	if m.cache != nil {
		ci.structMask = make([]uint64, ci.words)
		ci.liveMask = make([]uint64, ci.words)
		ci.gate = make([]predindex.PID, n)
		for c, h := range ci.units {
			ci.gate[c] = h.first
			for _, pid := range h.e.pids {
				if m.ix.Pred(pid).HasAttrs() {
					ci.gate[c] = pid
					break
				}
			}
			if m.unitValueDependent(h.e) {
				bitset.Set(ci.liveMask, c)
				ci.needRes = true
			} else {
				bitset.Set(ci.structMask, c)
			}
		}
		ci.needRes = ci.needRes || len(m.nested) > 0
	}
	m.col = ci
}

// ensureColumnar returns with the read lock held, the scalar
// organizations frozen, and the columnar index current for them. Like
// ensureFrozen, the upgrade window is raced benignly: gen is re-checked
// after every downgrade.
func (m *Matcher) ensureColumnar() *colIndex {
	m.mu.RLock()
	for m.dirty || m.col == nil || m.col.gen != m.gen {
		m.mu.RUnlock()
		m.mu.Lock()
		m.freeze()
		if m.col == nil || m.col.gen != m.gen {
			m.buildColumnar()
		}
		m.mu.Unlock()
		m.mu.RLock()
	}
	return m.col
}

// getColScratch returns a pooled columnar scratch sized for ci. The
// batch's stats accumulator starts zeroed.
func (m *Matcher) getColScratch(ci *colIndex) *colScratch {
	cs := m.colPool.Get().(*colScratch)
	if cs.ci != ci {
		total := 0
		for _, w := range ci.levelWords {
			total += w
		}
		if cap(cs.back) < total {
			cs.back = make([]uint64, total)
		}
		if cap(cs.level) < ci.maxLen {
			cs.level = make([][]uint64, ci.maxLen)
		}
		cs.level = cs.level[:ci.maxLen]
		off := 0
		for ℓ, w := range ci.levelWords {
			cs.level[ℓ] = cs.back[off : off+w : off+w]
			off += w
		}
		if cap(cs.acc) < ci.words {
			cs.acc = make([]uint64, ci.words)
		}
		cs.acc = cs.acc[:ci.words]
		if n := bitset.Words(ci.lay.Len()); cap(cs.planPids) < n {
			cs.planPids = make([]uint64, n)
		} else {
			cs.planPids = cs.planPids[:n]
		}
		cs.ci = ci
	}
	cs.stats = colStats{}
	return cs
}

// resolveTids maps the publication's tags through the frozen layout and
// reports whether the path is ambiguous (some tag occurs more than once,
// so occurrence pairs are not all (1,1) and candidates need scalar
// occurrence determination).
func (cs *colScratch) resolveTids(pub *xmldoc.Publication) bool {
	n := len(pub.Tuples)
	if cap(cs.tids) < n {
		cs.tids = make([]int32, n)
	}
	cs.tids = cs.tids[:n]
	ambiguous := false
	for i := range pub.Tuples {
		t := &pub.Tuples[i]
		cs.tids[i] = cs.ci.lay.Tid(t.Tag)
		if t.Occ > 1 {
			ambiguous = true
		}
	}
	return ambiguous
}

// sweep computes the candidate bitset for the current path: bit c
// survives iff every chain level of unit c produced occurrence pairs.
// refOps reports the scattered membership entries (for budget charging).
func (ci *colIndex) sweep(cs *colScratch, touched []predindex.PID) (acc []uint64, refOps int) {
	for _, lv := range cs.level {
		bitset.Zero(lv)
	}
	refs, off := ci.refs, ci.refOff
	for _, pid := range touched {
		rs := refs[off[pid]:off[pid+1]]
		refOps += len(rs)
		for _, r := range rs {
			cs.level[r.level][r.col>>6] |= 1 << (uint(r.col) & 63)
		}
	}
	if ci.maxLen == 0 {
		return cs.acc[:0], refOps
	}
	acc = cs.acc
	copy(acc, cs.level[0])
	for ℓ := 1; ℓ < ci.maxLen; ℓ++ {
		lv := cs.level[ℓ]
		lw := len(lv)
		for w := 0; w < lw-1; w++ {
			acc[w] &= lv[w]
		}
		// Boundary word: columns past the level's unit count have no
		// level ℓ and pass through; words past lw are untouched entirely.
		acc[lw-1] &= lv[lw-1] | ^ci.levelMask[ℓ]
	}
	return acc, refOps
}

// markCandidates resolves the surviving candidate bits (restricted to
// mask when non-nil) into definitive marks.
func (m *Matcher) markCandidates(sc *scratch, ci *colIndex, acc, mask []uint64, ambiguous bool, bud *guard.Budget) {
	for w, word := range acc {
		if mask != nil {
			word &= mask[w]
		}
		for ; word != 0; word &= word - 1 {
			u := &ci.units[w<<6+bits.TrailingZeros64(word)]
			if sc.matched[u.id] {
				continue
			}
			if bud.Exceeded() {
				return
			}
			m.markUnit(sc, u, ambiguous, bud)
		}
	}
}

// markUnit resolves one unit whose every chain level is known to hold
// occurrence pairs. Unambiguous paths mark plain expressions directly (see
// the package comment above: every level holds exactly the pair (1,1), so
// determination trivially succeeds); group representatives and
// ambiguous-path candidates run the scalar evalExpr, which charges the
// budget per occurrence pair as the scalar path does.
func (m *Matcher) markUnit(sc *scratch, u *hotExpr, ambiguous bool, bud *guard.Budget) {
	if ambiguous || u.e.members != nil {
		m.evalExpr(sc, u.e, false, bud)
		return
	}
	sc.mark(int(u.id))
	if len(u.e.fullCovers) > 0 {
		m.markFullCovers(sc, u.e)
	}
}

// colSweep runs the budget-charged sweep for one path over the touched
// predicates and folds the occupancy counters into the batch stats. The
// budget is charged one step per 64-word-op block — strictly less than the
// scalar loop's per-unit probes for the same path, so a budget generous
// enough for the scalar matcher never trips only under the columnar one.
func (m *Matcher) colSweep(touched []predindex.PID, cs *colScratch, ambiguous bool, bd *Breakdown, bud *guard.Budget) []uint64 {
	ci := cs.ci
	var ts time.Time
	if bd != nil {
		ts = time.Now()
	}
	acc, refOps := ci.sweep(cs, touched)
	live, cands := 0, 0
	for _, w := range acc {
		if w != 0 {
			live++
			cands += bits.OnesCount64(w)
		}
	}
	if bd != nil {
		bd.Sweep += time.Since(ts)
	}
	cs.stats.paths++
	cs.stats.words += int64(len(acc))
	cs.stats.wordsLive += int64(live)
	cs.stats.candidates += int64(cands)
	if ambiguous {
		cs.stats.ambiguous++
	}
	bud.StepN(int64((ci.sweepCost+refOps)>>6) + 1)
	return acc
}

// MatchDocumentsColumnar matches a batch of parsed documents through the
// columnar kernel, sharing one pooled columnar scratch (level bitsets,
// accumulator, tag-id arena) across the batch. buds[i] budgets document
// i (a short or nil slice leaves the remainder unbudgeted); each
// document fails or succeeds independently — outs[i] is nil exactly
// when errs[i] is non-nil — and bds[i] is its cost split. Results are
// identical to the scalar reference on each document; registration may
// run concurrently.
func (m *Matcher) MatchDocumentsColumnar(docs []*xmldoc.Document, buds []*guard.Budget) (outs [][]SID, bds []Breakdown, errs []error) {
	outs = make([][]SID, len(docs))
	bds = make([]Breakdown, len(docs))
	errs = make([]error, len(docs))
	if len(docs) == 0 {
		return outs, bds, errs
	}
	cs := m.lockColumnar()
	defer m.unlockColumnar(cs, len(docs))
	for i, doc := range docs {
		var bud *guard.Budget
		if i < len(buds) {
			bud = buds[i]
		}
		outs[i], bds[i], errs[i] = m.matchDoc(cs, doc, bud, time.Now())
	}
	return outs, bds, errs
}

// MatchDocumentColumnar is MatchDocumentsColumnar for one document: the
// entry point of a single publish.
func (m *Matcher) MatchDocumentColumnar(doc *xmldoc.Document, bud *guard.Budget) ([]SID, Breakdown, error) {
	t0 := time.Now()
	cs := m.lockColumnar()
	defer m.unlockColumnar(cs, 1)
	return m.matchDoc(cs, doc, bud, t0)
}

// lockColumnar returns a pooled columnar scratch on a current columnar
// index, with the read lock held.
func (m *Matcher) lockColumnar() *colScratch {
	return m.getColScratch(m.ensureColumnar())
}

// unlockColumnar undoes lockColumnar after docs documents, flushing the
// kernel counters the scratch accumulated.
func (m *Matcher) unlockColumnar(cs *colScratch, docs int) {
	m.mu.RUnlock()
	if m.mx != nil {
		m.mx.ColBatches.Inc()
		m.mx.ColDocs.Add(int64(docs))
		m.mx.ColPaths.Add(cs.stats.paths)
		m.mx.ColCandidates.Add(cs.stats.candidates)
		m.mx.ColAmbiguous.Add(cs.stats.ambiguous)
		m.mx.ColWords.Add(cs.stats.words)
		m.mx.ColWordsLive.Add(cs.stats.wordsLive)
	}
	m.colPool.Put(cs)
}
