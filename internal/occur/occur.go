// Package occur implements the occurrence determination algorithm
// (paper §4.2.1, Algorithm 1): given the ordered predicate matching
// results R_1, ..., R_n of an expression — each R_i a set of occurrence
// number pairs — decide whether a chained combination exists, i.e. pairs
// (o1_i, o2_i) with o2_{i-1} = o1_i for every i.
//
// Whether a combination exists is reachability from level to level, so
// Determine answers it in one pass that carries the occurrence numbers a
// consistent prefix can end at, visiting each pair at most once. Support
// adds the backward pass: which pairs of one level lie on a full
// combination, as nested-path recombination needs, and how many
// combinations there are, as combination counting needs — still each pair
// visited at most once, never an enumeration of the combinations.
// DetermineAlg1 is a literal transcription of the paper's backtracking
// Algorithm 1, kept as an executable specification and cross-checked
// against Determine in tests. Determine and Support charge one step of a
// guard.Budget per pair visited, so a tripped budget surfaces as a typed
// *guard.LimitError rather than a silent "no match".
package occur

import (
	"slices"

	"predfilter/internal/guard"
)

// Pair is one occurrence-number pair from a predicate matching result.
// Single-tag predicates duplicate their occurrence number (A == B);
// relative predicates carry the occurrence numbers of both tags.
// Occurrence numbers are positive.
type Pair struct {
	A, B int32
}

// Determine reports whether the chains admit a full match. Level i keeps
// the pairs whose A is an occurrence number level i-1 reached (every pair
// of the first level), and their Bs are what level i reaches; the last
// level stops at its first kept pair. depth is the length of the longest
// consistent prefix — a consistent partial assignment of length k is
// exactly a match of the length-k prefix expression, which is what prefix
// covering consumes — and visited counts the pairs read.
//
// bud is charged one step per pair visited (nil is unlimited); once it
// trips, matched is false and the caller must surface bud.Err instead of
// the result. buf holds the two occurrence bitsets between calls, so a
// warm buffer makes the call allocation-free. An empty result set at
// position i caps the depth at i; a nil or empty results slice matches
// vacuously with depth 0.
func Determine(results [][]Pair, bud *guard.Budget, buf *[]uint64) (matched bool, depth, visited int) {
	n := len(results)
	if n == 0 {
		return true, 0, 0
	}
	if cap(*buf) < 2 {
		*buf = make([]uint64, 2, 8)
	}
	sets := (*buf)[:2]
	clear(sets)
	// The two halves of sets take turns: cur holds the occurrence numbers
	// the previous level reached, next those this level reaches.
	half := 0
	for level, r := range results {
		w := len(sets) / 2
		cur, next := sets[half*w:][:w], sets[(1-half)*w:][:w]
		reached := false
		for _, pr := range r {
			if bud != nil && !bud.Step() {
				return false, depth, visited
			}
			visited++
			if level > 0 && !has(cur, pr.A) {
				continue
			}
			if i := int(pr.B >> 6); i >= w {
				sets = widen(sets, i+1)
				*buf = sets
				w = len(sets) / 2
				cur, next = sets[half*w:][:w], sets[(1-half)*w:][:w]
			}
			next[pr.B>>6] |= 1 << (pr.B & 63)
			reached = true
			if level == n-1 {
				break
			}
		}
		if !reached {
			break
		}
		depth = level + 1
		clear(cur)
		half = 1 - half
	}
	return depth == n, depth, visited
}

// has reports whether occurrence number o is in the bitset.
func has(set []uint64, o int32) bool {
	i := int(o >> 6)
	return i < len(set) && set[i]&(1<<(o&63)) != 0
}

// widen grows Determine's two w-word bitsets, laid end to end in sets, to
// w2 words each, keeping their contents and order.
func widen(sets []uint64, w2 int) []uint64 {
	w := len(sets) / 2
	if cap(sets) < 2*w2 {
		grown := make([]uint64, 2*w2, 4*w2)
		copy(grown, sets[:w])
		copy(grown[w2:], sets[w:])
		return grown
	}
	sets = sets[:2*w2]
	copy(sets[w2:], sets[w:2*w])
	clear(sets[w:w2])
	clear(sets[w2+w:])
	return sets
}

// DetermineAlg1 is a literal transcription of the paper's Algorithm 1,
// including its explicit back/step bookkeeping. It returns match/noMatch
// only. Production code uses Determine; this function exists as an
// executable specification and is cross-validated in tests.
func DetermineAlg1(results [][]Pair) bool {
	n := len(results)
	if n == 0 {
		return true
	}
	// Line 2-6: immediately noMatch if any R_i is empty.
	for _, r := range results {
		if len(r) == 0 {
			return false
		}
	}
	// R'_i are the remaining candidate sets; p_i the currently selected
	// pair per level.
	remaining := make([][]Pair, n)
	selected := make([]Pair, n)
	// Line 7: R'_1 ← R_1, select one pair and delete it.
	remaining[0] = append([]Pair(nil), results[0]...)
	selected[0] = remaining[0][0]
	remaining[0] = remaining[0][1:]
	current := 0 // 0-based; the paper's "current = 1"
	back := false
	for {
		if !back {
			if current == n-1 {
				return true // line 11
			}
			// Line 13: advance and build R'_{current} = R_current(o2).
			o2 := selected[current].B
			current++
			remaining[current] = remaining[current][:0]
			for _, pr := range results[current] {
				if pr.A == o2 {
					remaining[current] = append(remaining[current], pr)
				}
			}
		}
		if len(remaining[current]) > 0 {
			// Line 17: select and remove one pair.
			selected[current] = remaining[current][0]
			remaining[current] = remaining[current][1:]
			back = false
		} else {
			// Lines 19-27: backtrack to the deepest level with remaining
			// candidates.
			step := current - 1
			for step >= 0 && len(remaining[step]) == 0 {
				step--
			}
			if step < 0 {
				return false // line 24 (step = 0 in 1-based numbering)
			}
			current = step
			back = true
		}
	}
}

// Support runs occurrence determination both ways around level at of
// results (0 ≤ at < len(results)), visiting each pair at most once. A
// backward pass over levels n-1…at+1 collects the occurrence numbers a
// chained suffix runs from. A forward pass over levels 0…at then counts,
// for each pair of level at that such a suffix continues, the chained
// prefixes ending in it, into on (len(results[at]) long, 0 for the other
// pairs, saturating at the largest uint64). So the pairs with a nonzero
// count lie on a full chained combination, and with at the last level the
// counts sum to the number of combinations.
//
// bud is charged one step per pair visited (nil is unlimited); once it
// trips the counts are partial and the caller must surface bud.Err. buf
// holds the per-occurrence counts between calls, so a warm buffer makes
// the call allocation-free.
func Support(results [][]Pair, at int, on []uint64, bud *guard.Budget, buf *[]uint64) (visited int) {
	clear(on)
	last := len(results) - 1
	// occ[3o+h], h 0 or 1, is a pass's flag or count at occurrence number
	// o, the sides taking turns from level to level; occ[3o+2] is the
	// backward pass's result.
	occ, h := (*buf)[:0], 0
	defer func() { *buf = occ }()
	for level := last; level > at; level-- {
		reached := false
		for _, pr := range results[level] {
			if bud != nil && !bud.Step() {
				return visited
			}
			visited++
			if level == last || get(occ, pr.B, h) != 0 {
				reached = true
				occ = grow(occ, pr.A)
				occ[3*int(pr.A)+1-h] = 1
			}
		}
		if !reached {
			return visited
		}
		clearSide(occ, h)
		h = 1 - h
	}
	for i := h; i < len(occ); i += 3 {
		occ[i+2-h], occ[i] = occ[i], 0
	}
	h = 0
	for level, r := range results[:at+1] {
		reached := false
		for k, pr := range r {
			if bud != nil && !bud.Step() {
				return visited
			}
			visited++
			c := uint64(1)
			if level > 0 {
				c = get(occ, pr.A, h)
			}
			switch {
			case c == 0:
			case level == at:
				if at == last || get(occ, pr.B, 2) != 0 {
					on[k] = c
				}
			default:
				reached = true
				occ = grow(occ, pr.B)
				i := 3*int(pr.B) + 1 - h
				if occ[i] += c; occ[i] < c {
					occ[i] = ^uint64(0)
				}
			}
		}
		if !reached && level < at {
			return visited
		}
		clearSide(occ, h)
		h = 1 - h
	}
	return visited
}

// get is Support's side j at occurrence number o.
func get(occ []uint64, o int32, j int) uint64 {
	if i := 3*int(o) + j; i < len(occ) {
		return occ[i]
	}
	return 0
}

// grow widens Support's sides to hold occurrence number o.
func grow(occ []uint64, o int32) []uint64 {
	n, l := 3*int(o)+3, len(occ)
	if n <= l {
		return occ
	}
	occ = slices.Grow(occ, n-l)[:n]
	clear(occ[l:])
	return occ
}

// clearSide zeroes Support's side h.
func clearSide(occ []uint64, h int) {
	for i := h; i < len(occ); i += 3 {
		occ[i] = 0
	}
}
