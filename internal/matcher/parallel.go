package matcher

import (
	"runtime"
	"sync"
	"time"

	"predfilter/internal/guard"
	"predfilter/internal/xmldoc"
)

// MatchDocumentParallel is MatchDocument with the document's root-to-leaf
// paths sharded across worker goroutines. Each worker owns a pooled
// scratch (its own predicate-result accumulator, matched flags and
// occurrence buffers) and runs the identical per-path matching code;
// per-expression results are then merged.
//
// The merge is sound because every per-path effect is monotone: an
// expression matches the document iff it matches at least one path, a
// cover mark witnesses a consistent partial assignment on some path, and
// nested-path candidates are enumerated per path — so the union of
// per-shard results over any partition of the paths equals the sequential
// result (the equivalence is asserted across all engine configurations in
// internal/bench). Per-worker state that exists only to skip work — the
// path-dedup set, the matched flags consulted by covering/cluster skips —
// loses some cross-shard sharing, costing duplicated evaluation but never
// correctness.
//
// workers ≤ 0 selects GOMAXPROCS (more workers than cores cannot help:
// the work is CPU-bound); an explicit count is honored as given, clamped
// only to the path count. With one worker (or one path) it falls back to
// the sequential path. The matcher stays safe for concurrent calls of any
// matching method.
func (m *Matcher) MatchDocumentParallel(doc *xmldoc.Document, workers int) []SID {
	sids, _ := m.MatchDocumentParallelBudget(doc, workers, nil)
	return sids
}

// MatchDocumentParallelBudget is MatchDocumentParallel charging the match
// to a per-document budget. The budget is single-goroutine state, so each
// shard runs under its own Fork: the deadline and cancellation carry over
// exactly, while the step bound applies per shard (the aggregate bound is
// workers × MaxSteps). The first tripped shard's *guard.LimitError is
// returned and the partial marks are discarded. A nil budget is unlimited
// and never errors.
func (m *Matcher) MatchDocumentParallelBudget(doc *xmldoc.Document, workers int, bud *guard.Budget) ([]SID, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(doc.Paths) {
		workers = len(doc.Paths)
	}
	if workers <= 1 {
		sids, _, err := m.MatchDocumentBudget(doc, bud)
		return sids, err
	}

	t0 := time.Now()
	ci := m.ensureKernel() // the cached path runs on the columnar organization
	defer m.mu.RUnlock()

	dedup := m.pathDedup()
	scratches := make([]*scratch, workers)
	limitErrs := make([]error, workers)
	var wg sync.WaitGroup
	// Contiguous shards: sibling subtrees emit adjacent paths, so
	// contiguity keeps structurally identical paths in one shard where the
	// per-worker dedup set still catches them.
	per := (len(doc.Paths) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > len(doc.Paths) {
			hi = len(doc.Paths)
		}
		sc := m.getScratch()
		scratches[w] = sc
		wg.Add(1)
		go func(w int, sc *scratch, lo, hi int) {
			defer wg.Done()
			sb := bud.Fork()
			var cs *colScratch
			if ci != nil {
				cs = m.getColScratch(ci)
				defer m.colPool.Put(cs)
			}
			for i := lo; i < hi; i++ {
				if !sb.CheckPoint() {
					break
				}
				m.matchPath(sc, cs, &doc.Paths[i], dedup, nil, sb)
				if sb.Exceeded() {
					break
				}
			}
			limitErrs[w] = sb.Err()
		}(w, sc, lo, hi)
	}
	wg.Wait()

	// Merge: OR the per-shard matched flags and pool the nested-path
	// candidates into the first scratch.
	sc := scratches[0]
	for _, other := range scratches[1:] {
		for id, ok := range other.matched {
			if ok {
				sc.matched[id] = true
			}
		}
		for n, cands := range other.ncands {
			sc.ncands[n] = append(sc.ncands[n], cands...)
		}
		clear(other.ncands)
		m.pool.Put(other)
	}

	for _, err := range limitErrs {
		if err != nil {
			clear(sc.ncands)
			m.pool.Put(sc)
			return nil, err
		}
	}

	out := m.collect(sc)
	m.pool.Put(sc)
	// The shards keep clock calls off their inner loops (bd == nil), so
	// only the whole-document duration and counters are recorded.
	m.observe(nil, time.Since(t0), len(doc.Paths), len(out))
	return out, nil
}
