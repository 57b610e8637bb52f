package matcher

import (
	"math/bits"

	"predfilter/internal/guard"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
)

// Columnar matching: the expression-matching stage rewritten as bitset
// sweeps so one 64-bit word op advances 64 expressions at once. This is
// the kernel every entry point runs, for one document or a batch, on a
// matcher with a path cache — a cache miss sweeps, and its entry holds
// what the sweep found (cache.go). The scalar per-unit loop (runUnits) is
// the kernel of a matcher without one (PathCacheBytes < 0): the reference
// the equivalence suites, the benchmark oracle and the paper's Figure 6–10
// organizations compare against.
//
// Every iteration unit (m.units) is a bit column, and columns never move:
// they are handed out in words of 64 that each hold chains of one length,
// so a unit registered later takes the next free column of its length's
// open word, or opens a new word at the end. A word of chain length n owns
// n consecutive sweep slots, one per chain level; for each predicate pid a
// membership list records which (slot, bit) pairs reference it. Per path,
// the sweep scatters the predicate stage's touched pids into the slots —
// bit b of a word's level-ℓ slot says "the level-ℓ predicate of the unit
// at bit b produced occurrence pairs" — and then ANDs each word's slots
// together. The surviving bits are the candidates — units whose every
// chain level matched — so the per-path cost is Σ(chain lengths)/64 word
// ops plus work proportional to the (few) candidates, instead of the
// scalar loop's |units| probes. Because nothing a cache entry names ever
// moves (columns here, expression and predicate ids by construction),
// entries stay valid while the index grows (see cache.go).
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
// evaluates every unit independently and produces the same mark set
// without building or reading either relation.

// colRef is one membership entry: the predicate is the chain level that
// sweep slot `slot` stands for, of the unit at bit `bit` of that word.
type colRef struct {
	slot int32
	bit  uint32
}

// colIndex is the columnar organization. It only grows (extend), under
// the matcher's write lock.
type colIndex struct {
	n     int     // m.units[:n] hold columns
	units []*expr // column → unit, 64 per word; nil where a word has room left

	// free[n] is the next free column for a chain of length n; a multiple
	// of 64 means no word of that length has room. wordOff[w] is word w's
	// first sweep slot, with one entry past the last word.
	free    []int32
	wordOff []int32

	refs [][]colRef // pid → membership

	// sweepCost is the fixed word-op count of one sweep (slot clear + AND
	// + acc store); the per-path budget charge adds the scattered refs.
	sweepCost int
}

// colScratch is the pooled per-batch columnar working state.
type colScratch struct {
	ci    *colIndex
	slots []uint64 // sweep slots, word-major
	acc   []uint64 // one candidate word per column word
	stats colStats

	// Entry building on a cache miss (see buildEntry): the live
	// candidates, as unit columns.
	plan []int32
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

// size returns the number of column words and of sweep slots.
func (ci *colIndex) size() (words, slots int) {
	return len(ci.wordOff) - 1, int(ci.wordOff[len(ci.wordOff)-1])
}

// extend places the units (all of the matcher's, in creation order) and
// gives the predicates added since the last call (npreds in all) their
// membership lists, in time proportional to their number.
func (ci *colIndex) extend(units []*expr, npreds int) {
	if n := npreds - len(ci.refs); n > 0 {
		ci.refs = append(ci.refs, make([][]colRef, n)...)
	}
	for _, u := range units[ci.n:] {
		n := len(u.pids)
		for len(ci.free) <= n {
			ci.free = append(ci.free, 0)
		}
		c := ci.free[n]
		if c&63 == 0 { // open a word for this chain length
			c = int32(len(ci.units))
			ci.units = append(ci.units, make([]*expr, 64)...)
			_, slots := ci.size()
			ci.wordOff = append(ci.wordOff, int32(slots+n))
		}
		ci.units[c], ci.free[n] = u, c+1
		for ℓ, pid := range u.pids {
			ci.refs[pid] = append(ci.refs[pid], colRef{slot: ci.wordOff[c>>6] + int32(ℓ), bit: uint32(c) & 63})
		}
	}
	ci.n = len(units)
	words, slots := ci.size()
	ci.sweepCost = 2*slots + words
}

// lockKernel returns with the read lock held and the derived state of the
// matcher's kernel caught up with every registration: the scalar
// reference's organizations (freeze), with a nil scratch, or the columnar
// index, with a pooled columnar scratch sized for it. The read lock cannot
// be upgraded atomically, so after concurrent Adds several matchers may
// race through the RUnlock→Lock window; the catch-up is an idempotent no-op
// once the first one ran, and the condition is re-checked after every
// downgrade, so a registration that slipped into the window is accounted
// for too rather than matched against stale state.
func (m *Matcher) lockKernel() *colScratch {
	m.mu.RLock()
	for m.stale() || m.col == nil && m.frozen != m.caught {
		m.mu.RUnlock()
		m.mu.Lock()
		if m.col == nil {
			m.freeze()
		} else {
			m.catchUp()
		}
		m.mu.Unlock()
		m.mu.RLock()
	}
	if m.col == nil {
		return nil
	}
	return m.getColScratch(m.col)
}

// sized returns b with length n, reallocating (with headroom, for an index
// that grows a little at a time) only when it must grow.
func sized(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n, n+n/8)
	}
	return b[:n]
}

// getColScratch returns a pooled columnar scratch sized for ci, so
// steady-state batches allocate nothing. The batch's stats accumulator
// starts zeroed.
func (m *Matcher) getColScratch(ci *colIndex) *colScratch {
	cs := m.colPool.Get().(*colScratch)
	cs.ci = ci
	words, slots := ci.size()
	cs.slots = sized(cs.slots, slots)
	cs.acc = sized(cs.acc, words)
	cs.stats = colStats{}
	return cs
}

// repeatsTag reports whether some tag occurs more than once on the path:
// the path is ambiguous, its occurrence pairs are not all (1,1), and
// candidates need scalar occurrence determination.
func repeatsTag(pub *xmldoc.Publication) bool {
	for i := range pub.Tuples {
		if pub.Tuples[i].Occ > 1 {
			return true
		}
	}
	return false
}

// sweep computes the candidate bitset for the current path: bit c
// survives iff every chain level of unit c produced occurrence pairs.
// refOps reports the scattered membership entries (for budget charging).
func (ci *colIndex) sweep(cs *colScratch, touched []predindex.PID) (acc []uint64, refOps int) {
	slots := cs.slots
	clear(slots)
	for _, pid := range touched {
		rs := ci.refs[pid]
		refOps += len(rs)
		for _, r := range rs {
			slots[r.slot] |= 1 << r.bit
		}
	}
	acc, off := cs.acc, ci.wordOff
	for w := range acc {
		a := slots[off[w]]
		for _, level := range slots[off[w]+1 : off[w+1]] {
			a &= level
		}
		acc[w] = a
	}
	return acc, refOps
}

// markCandidates resolves the surviving candidate bits of a cache miss
// building its entry: the structural candidates into definitive marks,
// while the live (value-dependent) ones are not evaluated but appended to
// cs.plan.
func (m *Matcher) markCandidates(sc *scratch, cs *colScratch, acc []uint64, ambiguous bool, bud *guard.Budget) {
	for w, word := range acc {
		for ; word != 0; word &= word - 1 {
			c := w<<6 + bits.TrailingZeros64(word)
			u := cs.ci.units[c]
			if u.live {
				cs.plan = append(cs.plan, int32(c))
				continue
			}
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
func (m *Matcher) markUnit(sc *scratch, u *expr, ambiguous bool, bud *guard.Budget) {
	if ambiguous || u.members != nil {
		sc.work.evals++
		m.evalExpr(sc, u, false, bud)
		return
	}
	sc.mark(u.id)
}

// colSweep runs the budget-charged sweep for one path over the touched
// predicates and folds the occupancy counters into the batch stats. The
// budget is charged one step per 64-word-op block — strictly less than the
// scalar loop's per-unit probes for the same path, so a budget generous
// enough for the scalar matcher never trips only under the columnar one.
func (m *Matcher) colSweep(touched []predindex.PID, cs *colScratch, ambiguous bool, bud *guard.Budget) []uint64 {
	ci := cs.ci
	acc, refOps := ci.sweep(cs, touched)
	live, cands := 0, 0
	for _, w := range acc {
		if w != 0 {
			live++
			cands += bits.OnesCount64(w)
		}
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

// unlockKernel undoes lockKernel after docs documents, flushing the
// columnar counters the scratch accumulated; a batch of none, and the
// scalar reference, are not counted.
func (m *Matcher) unlockKernel(cs *colScratch, docs int) {
	m.mu.RUnlock()
	if cs == nil {
		return
	}
	if m.mx != nil && docs > 0 {
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
