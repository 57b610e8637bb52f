package predindex

import (
	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
)

// Layout is a frozen struct-of-arrays projection of an Index: every tag
// the index mentions gets a dense int32 id, and the per-tag hash-table
// rows (absolute, end-of-path, relative) are re-hung off tag-id-indexed
// slices. The matcher's columnar kernel resolves a publication's tags to
// ids once per path and then runs the predicate stage entirely over
// integer-indexed arrays — no string hashing in the tuple or tuple-pair
// loops. A Layout shares the index's cell arrays, so values added to an
// existing row show through; Sync hangs the rows and tags of predicates
// added since (the matcher calls it when it catches up with a registration
// change, with matching excluded).
type Layout struct {
	ix   *Index
	n    int // predicates accounted for
	tids map[string]int32
	abs  []*opArrays           // tag id → absolute-predicate arrays
	eop  []*cells              // tag id → end-of-path GE array
	rel  []map[int32]*opArrays // tag id → second-tag id → arrays
}

// BuildLayout returns a Layout of the index's current predicate set.
func (ix *Index) BuildLayout() *Layout {
	l := &Layout{ix: ix, tids: make(map[string]int32)}
	l.Sync()
	return l
}

// Sync extends the layout to the predicates the index gained since it was
// built or last synced, in time proportional to their number.
func (l *Layout) Sync() {
	ix := l.ix
	for _, p := range ix.preds[l.n:] {
		if p.Kind == predicate.Length {
			continue // no tag, no row
		}
		// tid grows the per-tag slices, so it runs before they are indexed.
		id := l.tid(p.Tag1)
		switch p.Kind {
		case predicate.Absolute:
			l.abs[id] = ix.abs[p.Tag1]
		case predicate.EndOfPath:
			l.eop[id] = ix.eop[p.Tag1]
		case predicate.Relative:
			id2 := l.tid(p.Tag2)
			if l.rel[id] == nil {
				l.rel[id] = make(map[int32]*opArrays)
			}
			l.rel[id][id2] = ix.rel[p.Tag1][p.Tag2]
		}
	}
	l.n = ix.Len()
}

// tid returns the dense id for tag, assigning one (and growing the
// per-tag slices) on first sight. Sync only.
func (l *Layout) tid(tag string) int32 {
	id, ok := l.tids[tag]
	if !ok {
		id = int32(len(l.tids))
		l.tids[tag] = id
		l.abs = append(l.abs, nil)
		l.eop = append(l.eop, nil)
		l.rel = append(l.rel, nil)
	}
	return id
}

// Tid resolves a tag to its layout id, or -1 when no stored predicate
// mentions the tag (such tuples can match nothing and are skipped by id).
func (l *Layout) Tid(tag string) int32 {
	if id, ok := l.tids[tag]; ok {
		return id
	}
	return -1
}

// Len returns the predicate count the layout accounts for.
func (l *Layout) Len() int { return l.n }

// MatchPathTids is Index.MatchPath over the frozen layout, with the
// publication's tags pre-resolved to layout ids (tids[i] is the id of
// pub.Tuples[i].Tag, -1 for unknown tags; the caller resolves once per path
// and reuses the buffer). The cell visit order is identical to
// Index.MatchPath, so with attrs set the Results contents — per-predicate
// pair sequences and the touched order — are exactly those of a fresh
// MatchPath run. Without attrs the attribute filters are not decided: an
// attribute-carrying predicate gets every pair its cell matched on tags
// and positions, in the same order, and the run reads no attribute value.
func (l *Layout) MatchPathTids(pub *xmldoc.Publication, tids []int32, res *Results, attrs bool) {
	ix := l.ix
	ln := pub.Length

	// Length-of-expression predicates: (length, >=, v) matches iff v <= l.
	for v := 1; v < len(ix.length) && v <= ln; v++ {
		if c := &ix.length[v]; !c.empty() {
			ix.emit(c, nil, nil, 0, 0, res, attrs)
		}
	}

	for i := range pub.Tuples {
		ti := tids[i]
		if ti < 0 {
			continue // the index has no predicate on this tag
		}
		t := &pub.Tuples[i]
		occ := int32(t.Occ)

		// Absolute predicates on t.Tag.
		if a := l.abs[ti]; a != nil {
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
		}

		// End-of-path predicates: (p_t⊣, >=, v) matches iff l - pos >= v.
		if cs := l.eop[ti]; cs != nil {
			for v := 1; v < len(*cs) && v <= ln-t.Pos; v++ {
				if c := &(*cs)[v]; !c.empty() {
					ix.emit(c, t, nil, occ, occ, res, attrs)
				}
			}
		}

		// Relative predicates with t as the first tag.
		row := l.rel[ti]
		if row == nil {
			continue
		}
		for j := i + 1; j < len(pub.Tuples); j++ {
			tj := tids[j]
			if tj < 0 {
				continue
			}
			a := row[tj]
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
