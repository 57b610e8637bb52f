package matcher

import (
	"time"

	"predfilter/internal/guard"
	"predfilter/internal/xmldoc"
)

// The two entry points of a document. MatchScanned is the served one: the
// document's paths reach Path as the scan closes their leaves. MatchDocument
// feeds Path the paths of a parsed Document. Both run one protocol —
// lockKernel, getScratch, Path per path, end, observe — on the matcher's
// kernel: the cached columnar kernel, or the scalar reference when
// PathCacheBytes < 0.

// MatchDocument returns the SIDs of all expressions matched by a parsed
// document (paper semantics: an expression matches the document iff it
// matches at least one of its root-to-leaf paths; nested-path expressions
// recombine per-path results over the document tree) and the match's cost:
// Figure 10's split from the scalar reference loop, the total alone from
// the cached kernel. Its results equal MatchScanned's. The match is
// charged to bud; nil is unlimited and never errors. Once the budget trips
// — step bound, deadline, or cancellation — matching stops and the
// budget's *guard.LimitError is returned; the partial marks are discarded,
// never reported as "no match". Registration may run concurrently.
func (m *Matcher) MatchDocument(doc *xmldoc.Document, bud *guard.Budget) ([]SID, Breakdown, error) {
	t0 := time.Now()
	cs := m.lockKernel()
	defer m.unlockKernel(cs, 1)
	sc := m.getScratch(cs, bud)
	defer m.pool.Put(sc)
	for i := range doc.Paths {
		if bud.Exceeded() {
			break
		}
		sc.Path(&doc.Paths[i])
	}
	out, err := m.end(sc, nil)
	bd := sc.bd
	if err == nil {
		bd.Total = time.Since(t0)
		m.observe(bd.Total, sc.work, len(doc.Paths), len(out), nil)
	}
	return out, bd, err
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
	// Emit, when set on a scan with neither option, receives the result
	// in place of SIDs; it is left empty when Err is set.
	Emit *Emit

	SIDs   []SID // nil when Err is set, with Count, and with Emit
	Trace  *Trace
	Counts map[SID]int
	Err    error // the parse verdict, else the budget's
	Scan   xmldoc.Scanned
	Match  time.Duration // the match stage
	Parse  time.Duration // the parse stage: the document's wall time less Match and the explanation
}

// Matches returns the number of SIDs in d's result.
func (d *ScanDoc) Matches() int {
	n := len(d.SIDs) + len(d.Counts)
	if d.Emit != nil {
		n += d.Emit.N
	}
	return n
}

// MatchScanned matches documents as they are scanned, the served path: the
// matcher's kernel — the cached columnar one, or the scalar reference
// (see lockKernel) — runs on each root-to-leaf path as its leaf closes,
// inside xmldoc.Scan under the parse-stage limits lim, and no Document is
// built. The documents share one columnar scratch and one hold of the read
// lock, so a registration waits for the batch's scans. Each document fails
// or succeeds on its own, and its verdict is the one a parse followed by
// MatchDocument would give: a parse error or parse-stage limit
// anywhere in it beats a budget trip, after which its scan runs on to the
// parse verdict without matching. A document gets one parse and one match
// stage observation. The match stage is the time of the clock pair each
// distinct path and the collection read, plus the lock wait for the first
// document; the parse stage is the rest of the document's wall time, so
// no clock is read for it per path. Documents that do not parse, counted
// ones and those of the scalar reference leave no columnar counts.
func (m *Matcher) MatchScanned(docs []ScanDoc, lim guard.Limits) {
	start := time.Now()
	cs := m.lockKernel()
	wait := time.Since(start)
	parsed := 0
	defer func() { m.unlockKernel(cs, parsed) }()
	for i := range docs {
		d := &docs[i]
		if d.Emit != nil {
			d.Emit.reset()
		}
		sc := m.getScratch(cs, d.Bud)
		var v xmldoc.Visitor = sc
		var x *explainer
		var k *counter
		switch {
		case d.Count:
			k = newCounter(sc)
			sc.count = k
		case d.Explain:
			x = m.newExplainer(sc)
			v = x
		}
		var perr error
		if d.Scan, perr = xmldoc.Scan(d.Doc, lim, v); perr != nil {
			sc.discard()
			d.Err = perr
		} else if k != nil {
			d.Counts, d.Err = k.end()
		} else {
			parsed++
			d.SIDs, d.Err = m.end(sc, d.Emit)
		}
		d.Match = wait + sc.match
		w := sc.work
		m.pool.Put(sc)
		now := time.Now()
		d.Parse = now.Sub(start) - d.Match
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
		m.observe(d.Match, w, d.Scan.Paths, d.Matches(), d.Emit)
	}
}
