package matcher

import (
	"predfilter/internal/occur"
	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
)

// tupleAt returns the tuple of the current path with the tag and the
// per-path occurrence number o: the tuple a predicate's pair names on that
// tag. Used by postponed attribute evaluation, program compilation and
// nested-path recombination; a path is a few tuples long.
func (sc *scratch) tupleAt(tag string, o int32) *xmldoc.Tuple {
	for i := range sc.pub.Tuples {
		if t := &sc.pub.Tuples[i]; int32(t.Occ) == o && t.Tag == tag {
			return t
		}
	}
	panic("matcher: an occurrence pair names no tuple of the path")
}

// compilePost compiles an encoding's postponed filters against the
// engine's dictionary: per predicate position, the tests on the first and
// on the second tag. The filters stay the expression's identity; these are
// what filterChain evaluates. nil when there is nothing postponed.
func (m *Matcher) compilePost(enc *predicate.Encoding) [][2][]predicate.Test {
	if !enc.HasPostAttrs() {
		return nil
	}
	tests := make([][2][]predicate.Test, len(enc.PostAttrs))
	for i, pa := range enc.PostAttrs {
		tests[i] = [2][]predicate.Test{m.ix.Vals.Compile(pa.Left), m.ix.Vals.Compile(pa.Right)}
	}
	return tests
}

// filterChain applies postponed attribute filters (tests[i] on the tags of
// pids[i]) to the structural matching results, level by level (paper §5,
// "selection postponed"): each occurrence pair survives only if the
// document tuples it denotes satisfy the filters attached to the
// corresponding tag sides. It reports the filtered chain and whether every
// level stayed non-empty.
func (m *Matcher) filterChain(sc *scratch, pids []predindex.PID, tests [][2][]predicate.Test, chain [][]occur.Pair) ([][]occur.Pair, bool) {
	total := 0
	for _, pairs := range chain {
		total += len(pairs)
	}
	if cap(sc.pairBuf) < total {
		sc.pairBuf = make([]occur.Pair, 0, 2*total)
	}
	buf := sc.pairBuf[:0]
	filt := sc.filt[:0]
	ok := true
	for i, pairs := range chain {
		left, right := tests[i][0], tests[i][1]
		if len(left) == 0 && len(right) == 0 {
			filt = append(filt, pairs)
			continue
		}
		pred := m.ix.Pred(pids[i])
		start := len(buf)
		for _, pr := range pairs {
			if len(left) > 0 {
				t := sc.tupleAt(pred.Tag1, pr.A)
				if !m.ix.Vals.HoldsAll(left, t, &sc.res.Vals) {
					continue
				}
			}
			if len(right) > 0 {
				t := sc.tupleAt(pred.Tag2, pr.B)
				if !m.ix.Vals.HoldsAll(right, t, &sc.res.Vals) {
					continue
				}
			}
			buf = append(buf, pr)
		}
		if len(buf) == start {
			ok = false
		}
		filt = append(filt, buf[start:len(buf):len(buf)])
	}
	sc.pairBuf = buf
	sc.filt = filt
	return filt, ok
}
