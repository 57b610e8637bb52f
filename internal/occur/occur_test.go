package occur

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func pairs(ps ...[2]int32) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{A: p[0], B: p[1]}
	}
	return out
}

func TestDetermineExamples(t *testing.T) {
	cases := []struct {
		name      string
		results   [][]Pair
		want      bool
		wantDepth int
	}{
		{
			// Example 2 / Table 1 of the paper: a//b/c over (a,b,c,a,b,c).
			// R1 = {(1,1),(1,2),(2,2)}, R2 = {(1,1),(2,2)} — matched via
			// (1,1),(1,1).
			name: "paper-a//b/c",
			results: [][]Pair{
				pairs([2]int32{1, 1}, [2]int32{1, 2}, [2]int32{2, 2}),
				pairs([2]int32{1, 1}, [2]int32{2, 2}),
			},
			want: true, wantDepth: 2,
		},
		{
			// Example 2: c//b//a — R1 = {(1,2)}, R2 = {(1,2)}: the chain
			// (1,2),(1,2) is discontinuous (2 != 1), so no match.
			name: "paper-c//b//a",
			results: [][]Pair{
				pairs([2]int32{1, 2}),
				pairs([2]int32{1, 2}),
			},
			want: false, wantDepth: 1,
		},
		{
			name:    "single",
			results: [][]Pair{pairs([2]int32{3, 3})},
			want:    true, wantDepth: 1,
		},
		{
			name:    "empty-first",
			results: [][]Pair{nil, pairs([2]int32{1, 1})},
			want:    false, wantDepth: 0,
		},
		{
			name:    "empty-second",
			results: [][]Pair{pairs([2]int32{1, 1}), nil},
			want:    false, wantDepth: 1,
		},
		{
			name:    "nil-chain",
			results: nil,
			want:    true, wantDepth: 0,
		},
		{
			// Requires backtracking: first choice at level 0 dead-ends.
			name: "backtrack",
			results: [][]Pair{
				pairs([2]int32{1, 1}, [2]int32{1, 2}),
				pairs([2]int32{2, 3}),
				pairs([2]int32{3, 1}),
			},
			want: true, wantDepth: 3,
		},
		{
			// Deep backtracking across several levels.
			name: "deep-backtrack",
			results: [][]Pair{
				pairs([2]int32{1, 1}, [2]int32{1, 2}, [2]int32{1, 3}),
				pairs([2]int32{1, 5}, [2]int32{2, 5}, [2]int32{3, 4}),
				pairs([2]int32{4, 9}),
			},
			want: true, wantDepth: 3,
		},
		{
			name: "exhausts-without-match",
			results: [][]Pair{
				pairs([2]int32{1, 1}, [2]int32{2, 2}),
				pairs([2]int32{1, 3}, [2]int32{2, 4}),
				pairs([2]int32{5, 5}),
			},
			want: false, wantDepth: 2,
		},
	}
	var buf []uint64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, depth, _ := Determine(tc.results, nil, &buf)
			if got != tc.want || depth != tc.wantDepth {
				t.Errorf("Determine = (%v, %d), want (%v, %d)", got, depth, tc.want, tc.wantDepth)
			}
		})
	}
}

// TestDetermineVisits pins the pairs the pass reads (the trace's steps):
// every pair of each level but the last, where it stops at the first kept
// pair, and nothing after a level that reaches no occurrence number.
func TestDetermineVisits(t *testing.T) {
	var buf []uint64
	for _, tc := range []struct {
		name    string
		results [][]Pair
		want    int
	}{
		{"single", [][]Pair{pairs([2]int32{1, 1}, [2]int32{2, 2})}, 1},
		{"last-level-first-kept", [][]Pair{
			pairs([2]int32{1, 1}, [2]int32{1, 2}, [2]int32{2, 2}),
			pairs([2]int32{3, 3}, [2]int32{2, 2}, [2]int32{1, 1}),
		}, 3 + 2},
		{"stops-at-dead-level", [][]Pair{
			pairs([2]int32{1, 1}, [2]int32{2, 2}),
			pairs([2]int32{5, 5}),
			pairs([2]int32{1, 1}, [2]int32{2, 2}),
		}, 2 + 1},
	} {
		if _, _, visited := Determine(tc.results, nil, &buf); visited != tc.want {
			t.Errorf("%s: visited %d pairs, want %d", tc.name, visited, tc.want)
		}
	}
}

// bruteForce enumerates every combination; the ground truth for small
// inputs.
func bruteForce(results [][]Pair) bool {
	var rec func(level int, need int32) bool
	rec = func(level int, need int32) bool {
		if level == len(results) {
			return true
		}
		for _, pr := range results[level] {
			if level > 0 && pr.A != need {
				continue
			}
			if rec(level+1, pr.B) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
}

func randomResults(rng *rand.Rand) [][]Pair {
	n := 1 + rng.Intn(5)
	results := make([][]Pair, n)
	for i := range results {
		k := rng.Intn(5) // may be empty
		for j := 0; j < k; j++ {
			results[i] = append(results[i], Pair{A: int32(1 + rng.Intn(3)), B: int32(1 + rng.Intn(3))})
		}
	}
	return results
}

// TestDetermineAgainstBruteForce cross-checks the production search
// against exhaustive enumeration on random instances.
func TestDetermineAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []uint64
	for i := 0; i < 5000; i++ {
		results := randomResults(rng)
		want := bruteForce(results)
		got, _, _ := Determine(results, nil, &buf)
		if got != want {
			t.Fatalf("case %d: Determine = %v, brute force = %v, input %v", i, got, want, results)
		}
	}
}

// TestDetermineAgainstAlg1 cross-checks the production search against the
// literal transcription of the paper's Algorithm 1.
func TestDetermineAgainstAlg1(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf []uint64
	for i := 0; i < 5000; i++ {
		results := randomResults(rng)
		want := DetermineAlg1(results)
		got, _, _ := Determine(results, nil, &buf)
		if got != want {
			t.Fatalf("case %d: Determine = %v, Alg1 = %v, input %v", i, got, want, results)
		}
	}
}

// TestDetermineDepthSound checks with testing/quick that the reported
// depth is achievable: there is a consistent chain of exactly that length,
// and (when the search failed) no longer one.
func TestDetermineDepthSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf []uint64
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		results := randomResults(r)
		ok, depth, _ := Determine(results, nil, &buf)
		want := deepest(results)
		if ok {
			// Early exit: depth is at least the full length.
			return depth == len(results)
		}
		return depth == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// deepest is the length of the longest consistent prefix, by exhaustive
// search over the assignments, memoized on (level, occurrence number) so
// that fuzzed chains stay cheap.
func deepest(results [][]Pair) int {
	memo := map[[2]int32]int{}
	var rec func(level int, need int32) int
	rec = func(level int, need int32) int {
		if level == len(results) {
			return level
		}
		key := [2]int32{int32(level), need}
		if d, ok := memo[key]; ok {
			return d
		}
		best := level
		for _, pr := range results[level] {
			if level > 0 && pr.A != need {
				continue
			}
			best = max(best, rec(level+1, pr.B))
		}
		memo[key] = best
		return best
	}
	return rec(0, 0)
}

// TestSupport pins Support on a small chain: the prefix counts of each
// level's pairs, zeroed where no suffix continues, and the combinations
// they sum to on the last level.
func TestSupport(t *testing.T) {
	results := [][]Pair{
		pairs([2]int32{1, 1}, [2]int32{1, 2}, [2]int32{1, 3}),
		pairs([2]int32{1, 1}, [2]int32{2, 2}, [2]int32{2, 1}),
		pairs([2]int32{1, 4}, [2]int32{5, 5}),
	}
	var buf []uint64
	for at, want := range [][]uint64{{1, 1, 0}, {1, 0, 1}, {2, 0}} {
		on := make([]uint64, len(results[at]))
		Support(results, at, on, nil, &buf)
		if !slices.Equal(on, want) {
			t.Errorf("level %d: counts %v, want %v", at, on, want)
		}
	}
	on := make([]uint64, 2)
	if n := testing.AllocsPerRun(100, func() { Support(results, 2, on, nil, &buf) }); n != 0 || on[0] != 2 {
		t.Errorf("Support over a warm buffer: %v allocations per call, counts %v", n, on)
	}
}

// combinations lists, by exhaustive depth-first search, the full chained
// combinations of results as the index of the pair chosen at each level:
// the ground truth for Support.
func combinations(results [][]Pair) [][]int {
	var out [][]int
	pick := make([]int, len(results))
	var rec func(level int, need int32)
	rec = func(level int, need int32) {
		if level == len(results) {
			out = append(out, slices.Clone(pick))
			return
		}
		for k, pr := range results[level] {
			if level == 0 || pr.A == need {
				pick[level] = k
				rec(level+1, pr.B)
			}
		}
	}
	rec(0, 0)
	return out
}

// checkSupport compares Support on every level of results with the
// combinations: a pair's count is the number of distinct chained prefixes
// ending in it when some combination uses it, else 0; the last level's
// counts sum to the number of combinations, and a match is what Determine
// finds.
func checkSupport(t *testing.T, results [][]Pair, buf *[]uint64) {
	t.Helper()
	combos := combinations(results)
	for at := range results {
		used := make([]bool, len(results[at]))
		for _, c := range combos {
			used[c[at]] = true
		}
		want := make([]uint64, len(results[at]))
		for _, c := range combinations(results[:at+1]) {
			if used[c[at]] {
				want[c[at]]++
			}
		}
		on := make([]uint64, len(results[at]))
		visited := Support(results, at, on, nil, buf)
		if !slices.Equal(on, want) {
			t.Fatalf("level %d: counts %v, want %v, input %v", at, on, want, results)
		}
		if visited > totalPairs(results) {
			t.Fatalf("level %d: visited %d pairs of %d", at, visited, totalPairs(results))
		}
		if at == len(results)-1 {
			var sum uint64
			for _, c := range on {
				sum += c
			}
			ok, _, _ := Determine(results, nil, new([]uint64))
			if sum != uint64(len(combos)) || ok != (sum > 0) {
				t.Fatalf("%d combinations, want %d; Determine %v, input %v", sum, len(combos), ok, results)
			}
		}
	}
}

// TestSupportAgainstBruteForce checks Support against enumeration on
// random instances, one buffer across them.
func TestSupportAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var buf []uint64
	for i := 0; i < 3000; i++ {
		results := randomResults(rng)
		if len(results) == 0 {
			continue
		}
		checkSupport(t, results, &buf)
	}
}
