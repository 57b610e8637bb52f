package occur

import (
	"context"
	"errors"
	"testing"

	"predfilter/internal/guard"
)

// worstCase builds the occurrence-pair sets of the pipeline's worst case:
// a chain of n identical tags matched by a k-step descendant expression.
// The descendant self-pair over the chain yields every (i, j) with
// 1 ≤ i < j ≤ n at each of the k levels; a full chained combination would
// be a strictly increasing sequence of k occurrence numbers drawn from
// 1..n, so with k > n none exists, and a backtracking search (Algorithm 1,
// Enumerate) visits every increasing sequence — Θ(2^n) pairs — before
// answering noMatch.
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

func TestEnumerateBudgetChargesDeadEnds(t *testing.T) {
	// A search that dead-ends without ever producing a full combination
	// must still consume steps; charging only completed combinations would
	// leave the exponential dead-end walk unbounded.
	results := worstCase(12, 13)
	b := guard.NewBudget(context.Background(), guard.Limits{MaxSteps: 500})
	visits := 0
	visited := Enumerate(results, b, new([]Pair), func([]Pair) bool { visits++; return true })
	if visits != 0 {
		t.Fatalf("worst case produced %d full combinations, want 0", visits)
	}
	if !b.Exceeded() {
		t.Fatal("budget survived an exponential dead-end enumeration")
	}
	if visited != 500 {
		t.Fatalf("Enumerate visited %d pairs under a 500-step budget, want the cutoff exact", visited)
	}
}

func TestEnumerateBudgetNilMatchesEnumerate(t *testing.T) {
	// A nil budget is unlimited: the same combinations as under a budget
	// that never trips, and the same pairs visited.
	results := [][]Pair{
		pairs([2]int32{1, 1}, [2]int32{1, 2}, [2]int32{2, 2}),
		pairs([2]int32{1, 1}, [2]int32{2, 2}),
	}
	var a, b [][]Pair
	na := Enumerate(results, nil, new([]Pair), func(assign []Pair) bool {
		a = append(a, append([]Pair(nil), assign...))
		return true
	})
	bud := guard.NewBudget(context.Background(), guard.Limits{MaxSteps: 1 << 20})
	nb := Enumerate(results, bud, new([]Pair), func(assign []Pair) bool {
		b = append(b, append([]Pair(nil), assign...))
		return true
	})
	if len(a) != len(b) || na != nb || bud.Steps() != int64(nb) {
		t.Fatalf("nil budget: %d combinations, %d pairs; budgeted: %d, %d (%d steps)", len(a), na, len(b), nb, bud.Steps())
	}
	for i := range a {
		for lv := range a[i] {
			if a[i][lv] != b[i][lv] {
				t.Fatalf("combination %d differs: %v vs %v", i, a[i], b[i])
			}
		}
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
		// Each level is a count byte then that many (A, B) byte pairs;
		// occurrence numbers run 1..200, so some span several words. Six
		// levels of at most 15 pairs keep Algorithm 1's backtracking short.
		var results [][]Pair
		for len(data) > 0 && len(results) < 6 {
			k := int(data[0] % 16)
			data = data[1:]
			level := []Pair{}
			for ; k > 0 && len(data) >= 2; k-- {
				level = append(level, Pair{A: int32(data[0]%200) + 1, B: int32(data[1]%200) + 1})
				data = data[2:]
			}
			results = append(results, level)
		}
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
