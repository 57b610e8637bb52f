package occur

import (
	"context"
	"errors"
	"slices"
	"testing"

	"predfilter/internal/guard"
)

// worstCase builds the occurrence-pair sets of the pipeline's worst case:
// a chain of n identical tags matched by a k-step descendant expression.
// The descendant self-pair over the chain yields every (i, j) with
// 1 ≤ i < j ≤ n at each of the k levels; a full chained combination would
// be a strictly increasing sequence of k occurrence numbers drawn from
// 1..n, so with k > n none exists, and a backtracking search (Algorithm 1)
// visits every increasing sequence — Θ(2^n) pairs — before answering
// noMatch.
func worstCase(n, k int) [][]Pair {
	level := make([]Pair, 0, n*(n-1)/2)
	for i := int32(1); i <= int32(n); i++ {
		for j := i + 1; j <= int32(n); j++ {
			level = append(level, Pair{A: i, B: j})
		}
	}
	results := make([][]Pair, k)
	for lv := range results {
		results[lv] = level
	}
	return results
}

// totalPairs is Σ|R_i|, the most pairs Determine may visit.
func totalPairs(results [][]Pair) int {
	total := 0
	for _, r := range results {
		total += len(r)
	}
	return total
}

// TestWorstCaseVisitsBounded: on the input that makes a backtracking search
// exponential, Determine visits each pair at most once, answers noMatch with
// the depth the chain allows (an increasing sequence of n-1 steps), and
// charges a budget exactly the pairs it reports. Level n-1 reaches nothing
// (no pair starts at n), so the pass reads n levels and stops.
func TestWorstCaseVisitsBounded(t *testing.T) {
	var buf []uint64
	for n := 2; n <= 40; n++ {
		results := worstCase(n, n+1)
		b := guard.NewBudget(context.Background(), guard.Limits{MaxSteps: 1 << 40})
		matched, depth, visited := Determine(results, b, &buf)
		if matched || depth != n-1 {
			t.Fatalf("n=%d: matched=%v depth=%d, want noMatch at depth %d", n, matched, depth, n-1)
		}
		if visited > totalPairs(results) || visited != n*len(results[0]) {
			t.Fatalf("n=%d: visited %d pairs of %d, want the first %d levels' %d", n, visited, totalPairs(results), n, n*len(results[0]))
		}
		if b.Steps() != int64(visited) {
			t.Fatalf("n=%d: budget charged %d steps for %d pairs visited", n, b.Steps(), visited)
		}
	}
}

func TestWorstCaseExactBudgetCutoff(t *testing.T) {
	results := worstCase(14, 15)
	_, _, full := Determine(results, nil, new([]uint64))
	for _, budget := range []int64{1, 7, int64(full / 2), int64(full - 1)} {
		b := guard.NewBudget(context.Background(), guard.Limits{MaxSteps: budget})
		matched, _, visited := Determine(results, b, new([]uint64))
		if !b.Exceeded() {
			t.Fatalf("budget %d of %d: not exhausted", budget, full)
		}
		if int64(visited) != budget {
			t.Fatalf("budget %d: visited %d pairs, want the cutoff to be exact", budget, visited)
		}
		if matched {
			t.Fatalf("budget %d: matched=true from a tripped budget", budget)
		}
	}
	// At exactly the full cost the pass completes: exhaustion means the
	// budget ran out before the answer, not that it was merely consumed.
	b := guard.NewBudget(context.Background(), guard.Limits{MaxSteps: int64(full)})
	if _, _, visited := Determine(results, b, new([]uint64)); b.Exceeded() || visited != full || b.Steps() != int64(full) {
		t.Fatalf("budget==full: visited=%d steps=%d exceeded=%v, want %d,%d,false", visited, b.Steps(), b.Exceeded(), full, full)
	}
}

func TestWorstCaseDetermineBudgetTrips(t *testing.T) {
	b := guard.NewBudget(context.Background(), guard.Limits{MaxSteps: 1000})
	Determine(worstCase(16, 17), b, new([]uint64))
	if !b.Exceeded() {
		t.Fatal("budget survived the worst case")
	}
	var le *guard.LimitError
	if err := b.Err(); !errors.As(err, &le) || le.Kind != guard.Steps {
		t.Fatalf("Err = %v, want Steps *LimitError", b.Err())
	}
	if le.Limit != 1000 {
		t.Fatalf("LimitError.Limit = %d, want 1000", le.Limit)
	}
}

// TestWorstCaseSupport: on the same input Support visits each pair at
// most once, finds no combination, and charges a budget exactly the pairs
// it reports.
func TestWorstCaseSupport(t *testing.T) {
	var buf []uint64
	for _, at := range []int{0, 6, 12} {
		results := worstCase(12, 13)
		on := make([]uint64, len(results[at]))
		b := guard.NewBudget(context.Background(), guard.Limits{MaxSteps: 1 << 40})
		visited := Support(results, at, on, b, &buf)
		if visited > totalPairs(results) || b.Steps() != int64(visited) {
			t.Fatalf("at %d: visited %d of %d pairs, charged %d steps", at, visited, totalPairs(results), b.Steps())
		}
		for _, c := range on {
			if c != 0 {
				t.Fatalf("at %d: counts %v, want none on a chain", at, on)
			}
		}
	}
	// Counts saturate rather than wrap: C(78, 39) > 2^64 chains of 40
	// pairs over 80 tags end in the pair (79, 80).
	big := worstCase(80, 40)
	top := make([]uint64, len(big[39]))
	Support(big, 39, top, nil, &buf)
	if !slices.Contains(top, ^uint64(0)) {
		t.Fatalf("no count saturated on the 40-step chains over 80 tags")
	}
}

// TestSupportBudgetChargesDeadEnds: a chain that dead-ends without ever
// completing a combination still consumes steps, and a budget of fewer
// steps than the pass needs trips at exactly its bound. Charging only
// completed combinations would leave the dead-end walk unbounded.
func TestSupportBudgetChargesDeadEnds(t *testing.T) {
	var buf []uint64
	for _, at := range []int{0, 6, 12} {
		results := worstCase(12, 13)
		on := make([]uint64, len(results[at]))
		cut := guard.NewBudget(context.Background(), guard.Limits{MaxSteps: 500})
		if visited := Support(results, at, on, cut, &buf); !cut.Exceeded() || visited != 500 {
			t.Fatalf("at %d: visited %d pairs under a 500-step budget, want the cutoff exact", at, visited)
		}
	}
}

// TestSupportBudgetNilMatchesUnlimited: a nil budget is unlimited — the
// counts and pairs of a budget that never trips.
func TestSupportBudgetNilMatchesUnlimited(t *testing.T) {
	var buf []uint64
	results := [][]Pair{
		pairs([2]int32{1, 1}, [2]int32{1, 2}, [2]int32{2, 2}),
		pairs([2]int32{1, 1}, [2]int32{2, 2}),
	}
	a, b := make([]uint64, 2), make([]uint64, 2)
	bud := guard.NewBudget(context.Background(), guard.Limits{MaxSteps: 1 << 20})
	na, nb := Support(results, 1, a, nil, &buf), Support(results, 1, b, bud, &buf)
	if !slices.Equal(a, b) || na != nb || bud.Steps() != int64(nb) || a[0]+a[1] != 3 {
		t.Fatalf("nil budget: counts %v, %d pairs; budgeted: %v, %d (%d steps)", a, na, b, nb, bud.Steps())
	}
}

// TestDetermineWarmAllocs: with its bitsets in a warm buffer, Determine
// allocates nothing, wide occurrence numbers included.
func TestDetermineWarmAllocs(t *testing.T) {
	chains := [][][]Pair{
		worstCase(40, 41),
		{pairs([2]int32{1, 300}), pairs([2]int32{300, 2})},
		{pairs([2]int32{1, 1}, [2]int32{1, 2}), pairs([2]int32{2, 3}), pairs([2]int32{3, 1})},
	}
	var buf []uint64
	for _, c := range chains {
		Determine(c, nil, &buf)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, c := range chains {
			Determine(c, nil, &buf)
		}
	}); n != 0 {
		t.Fatalf("Determine allocated %.1f times per run with a warm buffer", n)
	}
}

// FuzzDetermine checks Determine's verdict against the paper's Algorithm 1
// and its depth against exhaustive search on random chains, reusing one
// buffer across inputs so stale bits from an earlier chain would show.
func FuzzDetermine(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2})
	for _, n := range []int{3, 4, 5} {
		var seed []byte
		for _, r := range worstCase(n, n+1) {
			seed = append(seed, byte(len(r)))
			for _, pr := range r {
				seed = append(seed, byte(pr.A), byte(pr.B))
			}
		}
		f.Add(seed)
	}
	var buf []uint64
	f.Fuzz(func(t *testing.T, data []byte) {
		results := decodeChain(data, 6, 16)
		ok, depth, visited := Determine(results, nil, &buf)
		if want := DetermineAlg1(results); ok != want {
			t.Fatalf("Determine = %v, Alg1 = %v, input %v", ok, want, results)
		}
		if want := deepest(results); depth != want {
			t.Fatalf("depth %d, exhaustive %d, input %v", depth, want, results)
		}
		if visited > totalPairs(results) {
			t.Fatalf("visited %d of %d pairs", visited, totalPairs(results))
		}
	})
}

// FuzzSupport checks Support's counts on every level against exhaustive
// enumeration of the combinations, on FuzzDetermine's encoding cut to
// chains short enough to enumerate, reusing one buffer across inputs.
func FuzzSupport(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2})
	f.Add([]byte{2, 1, 2, 1, 3, 2, 2, 3, 2, 2, 3, 1, 4})
	var buf []uint64
	f.Fuzz(func(t *testing.T, data []byte) {
		if results := decodeChain(data, 5, 8); len(results) > 0 {
			checkSupport(t, results, &buf)
		}
	})
}

// decodeChain reads a fuzzed chain: each level is a count byte then that
// many (A, B) byte pairs, at most levels levels of fewer than per pairs.
// Occurrence numbers run 1..200, so some span several words.
func decodeChain(data []byte, levels, per int) [][]Pair {
	var results [][]Pair
	for len(data) > 0 && len(results) < levels {
		k := int(data[0]) % per
		data = data[1:]
		level := []Pair{}
		for ; k > 0 && len(data) >= 2; k-- {
			level = append(level, Pair{A: int32(data[0]%200) + 1, B: int32(data[1]%200) + 1})
			data = data[2:]
		}
		results = append(results, level)
	}
	return results
}
