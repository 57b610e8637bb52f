package matcher

import (
	"time"

	"predfilter/internal/guard"
	"predfilter/internal/xmldoc"
)

// MatchDocumentColumnar matches a parsed document through the columnar
// kernel: the materialized counterpart of MatchScanned, whose results it
// equals. A budget trip returns the budget's *guard.LimitError and no
// result; registration may run concurrently. Only the Breakdown's Total
// is filled.
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
// columnar kernel runs on each root-to-leaf path as its leaf closes, inside
// xmldoc.Scan under the parse-stage limits lim, and no Document is built.
// The documents share one columnar scratch and one hold of the read lock,
// so a registration waits for the batch's scans. Each document fails or
// succeeds on its own, and its verdict is the one a parse followed by
// MatchDocumentColumnar would give: a parse error or parse-stage limit
// anywhere in it beats a budget trip, after which its scan runs on to the
// parse verdict without matching. A document gets one parse and one match
// stage observation. The match stage is the time of the clock pair each
// distinct path and the collection read, plus the lock wait for the first
// document; the parse stage is the rest of the document's wall time, so
// no clock is read for it per path. Documents that do not parse, and
// counted ones, leave no columnar counts.
func (m *Matcher) MatchScanned(docs []ScanDoc, lim guard.Limits) {
	start := time.Now()
	cs := m.lockColumnar()
	wait := time.Since(start)
	parsed := 0
	defer func() { m.unlockColumnar(cs, parsed) }()
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
			cs.stats, d.Err = sc.stats, perr
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
