package matcher

import (
	"math/bits"
	"time"

	"predfilter/internal/bitset"
	"predfilter/internal/guard"
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
	lay   *predindex.Layout
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
	tids  []int32
	stats colStats

	// Entry building on a cache miss (see buildEntry): the structural
	// touched set, the plan, and the predicates its units reference.
	pids     []predindex.PID
	plan     []int32
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

// size returns the number of column words and of sweep slots.
func (ci *colIndex) size() (words, slots int) {
	return len(ci.wordOff) - 1, int(ci.wordOff[len(ci.wordOff)-1])
}

// extend places the units (all of the matcher's, in creation order) and
// hangs the predicates added since the last call, in time proportional to
// their number.
func (ci *colIndex) extend(units []*expr) {
	ci.lay.Sync()
	if n := ci.lay.Len() - len(ci.refs); n > 0 {
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

// ensureColumnar returns with the read lock held and the columnar index
// caught up with every registration. Like ensureFrozen, the upgrade
// window is raced benignly: the condition is re-checked after every
// downgrade.
func (m *Matcher) ensureColumnar() *colIndex {
	m.mu.RLock()
	for m.stale() || m.col == nil {
		m.mu.RUnlock()
		m.mu.Lock()
		if m.col == nil {
			m.col = &colIndex{lay: m.ix.BuildLayout(), wordOff: []int32{0}}
		}
		m.catchUp()
		m.mu.Unlock()
		m.mu.RLock()
	}
	return m.col
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
	cs.planPids = sized(cs.planPids, bitset.Words(ci.lay.Len()))
	cs.stats = colStats{}
	return cs
}

// resolveTids maps the publication's tags through the layout and
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

// markCandidates resolves the surviving candidate bits into definitive
// marks. With split set (a cache miss building its entry) the
// value-dependent candidates are not evaluated but appended to cs.plan.
func (m *Matcher) markCandidates(sc *scratch, cs *colScratch, acc []uint64, split, ambiguous bool, bud *guard.Budget) {
	for w, word := range acc {
		for ; word != 0; word &= word - 1 {
			c := w<<6 + bits.TrailingZeros64(word)
			u := cs.ci.units[c]
			if split && u.live {
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
func (m *Matcher) colSweep(touched []predindex.PID, cs *colScratch, ambiguous bool, bd *Breakdown, bud *guard.Budget) []uint64 {
	ci := cs.ci
	ts := time.Now()
	acc, refOps := ci.sweep(cs, touched)
	live, cands := 0, 0
	for _, w := range acc {
		if w != 0 {
			live++
			cands += bits.OnesCount64(w)
		}
	}
	bd.Sweep += time.Since(ts)
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

// MatchDocumentColumnar matches a parsed document through the columnar
// kernel: the materialized counterpart of MatchScanned, whose results it
// equals. A budget trip returns the budget's *guard.LimitError and no
// result; registration may run concurrently.
func (m *Matcher) MatchDocumentColumnar(doc *xmldoc.Document, bud *guard.Budget) ([]SID, Breakdown, error) {
	t0 := time.Now()
	cs := m.lockColumnar()
	defer m.unlockColumnar(cs, 1)
	return m.matchDoc(cs, doc, bud, t0)
}

// ScanDoc is one document of MatchScanned: the input, budget and options
// the caller sets, and the outcome.
type ScanDoc struct {
	Doc []byte
	Bud *guard.Budget
	// Explain adds a Trace to the SIDs; Count replaces the SIDs with
	// Counts, each matching expression's distinct occurrence-chain
	// combinations (the all-matches problem), enumerated on every
	// distinct path.
	Explain, Count bool

	SIDs   []SID // nil when Err is set, and with Count
	Trace  *Trace
	Counts map[SID]int
	Err    error // the parse verdict, else the budget's
	Scan   xmldoc.Scanned
	Bd     Breakdown     // Bd.Total is the match stage
	Parse  time.Duration // the parse stage: the document's wall time less Bd.Total and the explanation
}

// MatchScanned matches documents as they are scanned, the served path: the
// columnar kernel runs on each root-to-leaf path as its leaf closes, inside
// xmldoc.Scan under the parse-stage limits lim, and no Document is built.
// The documents share one columnar scratch and one hold of the read lock,
// so a registration waits for the batch's scans. Each document fails or
// succeeds on its own, and its verdict is the one a parse followed by
// MatchDocumentColumnar would give: a parse error or parse-stage limit
// anywhere in it beats a budget trip, after which its scan runs on to the
// parse verdict without matching. A document gets one parse and one match
// stage observation. The match stage is the kernel time Breakdown clocks
// per path, plus the lock wait for the first document; the parse stage is
// the rest of the document's wall time, so no clock is read per path for
// it. Documents that do not parse, and counted ones, leave no columnar
// counts.
func (m *Matcher) MatchScanned(docs []ScanDoc, lim guard.Limits) {
	start := time.Now()
	cs := m.lockColumnar()
	wait := time.Since(start)
	parsed := 0
	defer func() { m.unlockColumnar(cs, parsed) }()
	for i := range docs {
		d := &docs[i]
		sc := m.getScratch(cs, d.Bud)
		var v xmldoc.Visitor = sc
		var x *explainer
		var k *counter
		switch {
		case d.Count:
			k = newCounter(sc)
			v = k
		case d.Explain:
			x = m.newExplainer(sc)
			v = x
		}
		var perr error
		if d.Scan, perr = xmldoc.Scan(d.Doc, lim, v); perr != nil {
			cs.stats, d.Err = sc.stats, perr
		} else if k != nil {
			d.Counts, d.Err = k.end()
		} else {
			parsed++
			d.SIDs, d.Err = m.end(sc)
		}
		d.Bd = sc.bd
		m.pool.Put(sc)
		now := time.Now()
		d.Bd.Total = wait + d.Bd.Cache + d.Bd.PredMatch + d.Bd.ExprMatch + d.Bd.Other
		d.Parse = now.Sub(start) - d.Bd.Total
		if x != nil {
			d.Parse -= x.took
			if d.Err == nil {
				d.Trace, d.Err = x.end(d)
			}
		}
		start, wait = now, 0
		d.Scan.Observe(m.mx, d.Parse, perr)
		if d.Err != nil {
			d.SIDs = nil
			continue
		}
		m.observe(&d.Bd, d.Scan.Paths, len(d.SIDs)+len(d.Counts))
	}
}

// lockColumnar returns a pooled columnar scratch on a current columnar
// index, with the read lock held.
func (m *Matcher) lockColumnar() *colScratch {
	return m.getColScratch(m.ensureColumnar())
}

// unlockColumnar undoes lockColumnar after docs documents, flushing the
// kernel counters the scratch accumulated; a batch of none is not counted.
func (m *Matcher) unlockColumnar(cs *colScratch, docs int) {
	m.mu.RUnlock()
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
