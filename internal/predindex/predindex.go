// Package predindex implements the predicate index of the paper
// (§4.1.2, Figure 1): distinct predicates are stored exactly once and
// managed through multi-stage tables — first by predicate type, then by
// tag(s) — that lead to per-operator arrays indexed by predicate value.
// Each tag gets a dense id the first time a predicate names it, and the
// per-tag rows hang off slices indexed by that id, so the matching stage
// hashes each tuple's tag once and then works on integer-indexed arrays.
// The index also implements the predicate matching stage (§4.1), once:
// evaluating one publication (encoded document path) against all stored
// predicates and recording occurrence-pair results per predicate.
package predindex

import (
	"predfilter/internal/occur"
	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
)

// PID identifies a distinct predicate within an Index.
type PID int32

// NoPID is the zero-value sentinel for "no predicate".
const NoPID PID = -1

// cell holds the predicates sharing one (type, tags, op, value) slot.
// The common case is a single bare (filter-free) predicate; predicates
// carrying inline attribute filters are structural twins kept in vars.
type cell struct {
	bare PID
	vars []PID
}

func (c *cell) empty() bool { return c.bare == NoPID && len(c.vars) == 0 }

// cells is a position-value-indexed array of cells (index 0 unused, since
// predicate values are 1-based).
type cells []cell

func (cs *cells) at(v int) *cell {
	for len(*cs) <= v {
		*cs = append(*cs, cell{bare: NoPID})
	}
	return &(*cs)[v]
}

// opArrays is the pair of per-operator arrays hanging off a hash bucket.
type opArrays struct {
	eq cells
	ge cells
}

func (a *opArrays) sel(op predicate.Op) *cells {
	if op == predicate.EQ {
		return &a.eq
	}
	return &a.ge
}

// Index is the predicate index. The zero value is not ready; use New.
type Index struct {
	preds []predicate.Predicate
	// tests[pid] are the predicate's attribute filters on its first and
	// second tag, compiled against Vals, the value dictionary every filter
	// registered with this index is interned in and decided through. Matching
	// never ranks it: whoever inserts calls Vals.Rerank before the next
	// match, with matching excluded (the matcher's catchUp).
	tests [][2][]predicate.Test
	Vals  *predicate.Dict

	tids   map[string]int32      // tag → dense id, assigned by Insert
	abs    []opArrays            // absolute: tag id → arrays
	rel    []map[int32]*opArrays // relative: tag1 id → tag2 id → arrays
	eop    []cells               // end-of-path: tag id → GE array
	length cells                 // length-of-expression: GE array
}

// New returns an empty predicate index.
func New() *Index {
	return &Index{Vals: predicate.NewDict(), tids: make(map[string]int32)}
}

// Len returns the number of distinct predicates stored.
func (ix *Index) Len() int { return len(ix.preds) }

// Pred returns the stored predicate for pid.
func (ix *Index) Pred(pid PID) predicate.Predicate { return ix.preds[pid] }

// Insert stores p if no identical predicate exists and returns its pid;
// an identical predicate (same type, tags, operator, value and attribute
// filters) is returned unchanged — this is where overlap across
// expressions collapses into shared work.
func (ix *Index) Insert(p predicate.Predicate) PID {
	c := ix.cellFor(p)
	if !p.HasAttrs() {
		if c.bare != NoPID {
			return c.bare
		}
		pid := ix.add(p)
		c.bare = pid
		return pid
	}
	key := p.AttrKey()
	for _, pid := range c.vars {
		if ix.preds[pid].AttrKey() == key {
			return pid
		}
	}
	pid := ix.add(p)
	c.vars = append(c.vars, pid)
	return pid
}

func (ix *Index) add(p predicate.Predicate) PID {
	pid := PID(len(ix.preds))
	ix.preds = append(ix.preds, p)
	ix.tests = append(ix.tests, [2][]predicate.Test{ix.Vals.Compile(p.Attrs1), ix.Vals.Compile(p.Attrs2)})
	return pid
}

func (ix *Index) cellFor(p predicate.Predicate) *cell {
	if p.Kind == predicate.Length {
		return ix.length.at(p.Value)
	}
	// tid grows the per-tag slices, so it runs before they are indexed.
	id := ix.tid(p.Tag1)
	switch p.Kind {
	case predicate.Absolute:
		return ix.abs[id].sel(p.Op).at(p.Value)
	case predicate.Relative:
		id2 := ix.tid(p.Tag2)
		if ix.rel[id] == nil {
			ix.rel[id] = make(map[int32]*opArrays)
		}
		a := ix.rel[id][id2]
		if a == nil {
			a = &opArrays{}
			ix.rel[id][id2] = a
		}
		return a.sel(p.Op).at(p.Value)
	default: // predicate.EndOfPath
		return ix.eop[id].at(p.Value)
	}
}

// tid returns the dense id for tag, assigning one (and growing the
// per-tag slices) on first sight.
func (ix *Index) tid(tag string) int32 {
	id, ok := ix.tids[tag]
	if !ok {
		id = int32(len(ix.tids))
		ix.tids[tag] = id
		ix.abs = append(ix.abs, opArrays{})
		ix.rel = append(ix.rel, nil)
		ix.eop = append(ix.eop, nil)
	}
	return id
}

// Results accumulates per-predicate occurrence-pair matching results for
// one publication. It is reusable across publications via Reset (epoch
// stamping avoids clearing the whole arrays each time). Vals outlives a
// publication: it memoises the document's resolved attribute values, and
// whoever matches a second document with the same Results resets it first.
type Results struct {
	pairs   [][]occur.Pair
	stamp   []uint64
	cur     uint64
	touched []PID
	tids    []int32 // MatchPath's buffer: the tag ids of the path's tuples
	Vals    predicate.DocValues
}

// NewResults returns a result accumulator sized for n predicates.
func NewResults(n int) *Results {
	return &Results{
		pairs: make([][]occur.Pair, n),
		stamp: make([]uint64, n),
	}
}

// Reset prepares the accumulator for a new publication; n is the current
// predicate count (the accumulator grows if predicates were added).
func (r *Results) Reset(n int) {
	if len(r.pairs) < n {
		r.pairs = append(r.pairs, make([][]occur.Pair, n-len(r.pairs))...)
		r.stamp = append(r.stamp, make([]uint64, n-len(r.stamp))...)
	}
	r.cur++
	r.touched = r.touched[:0]
}

// Add records an occurrence pair for pid.
func (r *Results) Add(pid PID, a, b int32) {
	if r.stamp[pid] != r.cur {
		r.stamp[pid] = r.cur
		r.pairs[pid] = r.pairs[pid][:0]
		r.touched = append(r.touched, pid)
	}
	r.pairs[pid] = append(r.pairs[pid], occur.Pair{A: a, B: b})
}

// Touched returns the pids that matched the current publication, in first
// match order. The slice is owned by the accumulator and valid until the
// next Reset.
func (r *Results) Touched() []PID { return r.touched }

// Get returns the occurrence pairs recorded for pid in the current
// publication (nil if the predicate did not match).
func (r *Results) Get(pid PID) []occur.Pair {
	if int(pid) >= len(r.stamp) || r.stamp[pid] != r.cur {
		return nil
	}
	return r.pairs[pid]
}

// Matched reports whether pid matched the current publication.
func (r *Results) Matched(pid PID) bool {
	return int(pid) < len(r.stamp) && r.stamp[pid] == r.cur && len(r.pairs[pid]) > 0
}

// Tests returns the compiled attribute filters of pid on its first and
// second tag (both nil for a bare predicate).
func (ix *Index) Tests(pid PID) [2][]predicate.Test { return ix.tests[pid] }

// holds reports whether the tuples standing for pid's tags (nil where the
// predicate has no such tag, and so no filters on it) satisfy its attribute
// filters.
func (ix *Index) holds(pid PID, t1, t2 *xmldoc.Tuple, res *Results) bool {
	ts := &ix.tests[pid]
	return ix.Vals.HoldsAll(ts[0], t1, &res.Vals) && ix.Vals.HoldsAll(ts[1], t2, &res.Vals)
}

// MatchPath evaluates every stored predicate against the publication,
// recording occurrence pairs into res (which must have been Reset for this
// publication). This is the predicate matching stage of §4.1: absolute,
// end-of-path and length predicates are evaluated per tuple; relative
// predicates per ordered pair of tuples. The path's tags are resolved to
// ids once, into res's buffer; a tag no predicate names matches nothing.
//
// With attrs set, attribute-carrying predicates get the pairs on which
// their filters hold. Without it the filters are not decided: such a
// predicate gets every pair its cell matched on tags and positions, in the
// same order — the structural results, a function of the path's signature
// — and the run reads no attribute value. Either way the cell visit order,
// so each predicate's pair sequence and the touched order, is fixed.
func (ix *Index) MatchPath(pub *xmldoc.Publication, res *Results, attrs bool) {
	tids := res.tids[:0]
	for i := range pub.Tuples {
		id, ok := ix.tids[pub.Tuples[i].Tag]
		if !ok {
			id = -1
		}
		tids = append(tids, id)
	}
	res.tids = tids
	l := pub.Length

	// The value-indexed arrays are dense, so most cells visited below are
	// empty; the inlinable empty() guard keeps those off the emit call.

	// Length-of-expression predicates: (length, >=, v) matches iff v <= l.
	for v := 1; v < len(ix.length) && v <= l; v++ {
		if c := &ix.length[v]; !c.empty() {
			ix.emit(c, nil, nil, 0, 0, res, attrs)
		}
	}

	for i, ti := range tids {
		if ti < 0 {
			continue
		}
		t := &pub.Tuples[i]
		occ := int32(t.Occ)

		// Absolute predicates on t.Tag.
		a := &ix.abs[ti]
		if v := t.Pos; v < len(a.eq) {
			if c := &a.eq[v]; !c.empty() {
				ix.emit(c, t, nil, occ, occ, res, attrs)
			}
		}
		for v := 1; v < len(a.ge) && v <= t.Pos; v++ {
			if c := &a.ge[v]; !c.empty() {
				ix.emit(c, t, nil, occ, occ, res, attrs)
			}
		}

		// End-of-path predicates: (p_t⊣, >=, v) matches iff l - pos >= v.
		cs := ix.eop[ti]
		for v := 1; v < len(cs) && v <= l-t.Pos; v++ {
			if c := &cs[v]; !c.empty() {
				ix.emit(c, t, nil, occ, occ, res, attrs)
			}
		}

		// Relative predicates with t as the first tag.
		row := ix.rel[ti]
		if row == nil {
			continue
		}
		for j := i + 1; j < len(tids); j++ {
			a := row[tids[j]]
			if a == nil {
				continue
			}
			u := &pub.Tuples[j]
			d := u.Pos - t.Pos
			if d < len(a.eq) {
				if c := &a.eq[d]; !c.empty() {
					ix.emit(c, t, u, occ, int32(u.Occ), res, attrs)
				}
			}
			for v := 1; v < len(a.ge) && v <= d; v++ {
				if c := &a.ge[v]; !c.empty() {
					ix.emit(c, t, u, occ, int32(u.Occ), res, attrs)
				}
			}
		}
	}
}

// emit records cell matches. t1/t2 may be nil for length predicates. With
// attrs set, the attribute-carrying structural twins are added only where
// their filters hold on t1/t2; without it wherever the cell matched.
func (ix *Index) emit(c *cell, t1, t2 *xmldoc.Tuple, a, b int32, res *Results, attrs bool) {
	if c.bare != NoPID {
		res.Add(c.bare, a, b)
	}
	for _, pid := range c.vars {
		if !attrs || ix.holds(pid, t1, t2, res) {
			res.Add(pid, a, b)
		}
	}
}
