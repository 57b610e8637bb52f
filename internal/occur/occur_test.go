package occur

import (
	"math/rand"
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

// TestEnumerate verifies all full combinations are produced exactly once
// and that early stop works.
func TestEnumerate(t *testing.T) {
	results := [][]Pair{
		pairs([2]int32{1, 1}, [2]int32{1, 2}),
		pairs([2]int32{1, 1}, [2]int32{2, 2}, [2]int32{2, 1}),
	}
	var got [][]Pair
	if visited := Enumerate(results, nil, new([]Pair), func(assign []Pair) bool {
		got = append(got, append([]Pair(nil), assign...))
		return true
	}); visited != 2+2*3 {
		t.Errorf("Enumerate visited %d pairs, want every level-2 pair once per level-1 pair: 8", visited)
	}
	want := [][]Pair{
		{{A: 1, B: 1}, {A: 1, B: 1}},
		{{A: 1, B: 2}, {A: 2, B: 2}},
		{{A: 1, B: 2}, {A: 2, B: 1}},
	}
	if len(got) != len(want) {
		t.Fatalf("Enumerate produced %d combinations, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Errorf("combination %d = %v, want %v", i, got[i], want[i])
		}
	}

	count := 0
	Enumerate(results, nil, new([]Pair), func([]Pair) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop: count=%d, want 1", count)
	}

	var buf []Pair
	if n := testing.AllocsPerRun(100, func() {
		count = 0
		Enumerate(results, nil, &buf, func([]Pair) bool { count++; return true })
	}); n != 0 || count != len(want) {
		t.Errorf("Enumerate over a warm buffer: %v allocations per call, %d combinations", n, count)
	}
}

// TestEnumerateCountMatchesDetermine: Determine finds a match iff
// Enumerate produces at least one combination.
func TestEnumerateCountMatchesDetermine(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var buf []uint64
	var assign []Pair // one buffer across chain lengths
	for i := 0; i < 3000; i++ {
		results := randomResults(rng)
		n := 0
		Enumerate(results, nil, &assign, func([]Pair) bool { n++; return true })
		ok, _, _ := Determine(results, nil, &buf)
		if ok != (n > 0) {
			t.Fatalf("case %d: Determine=%v but Enumerate found %d, input %v", i, ok, n, results)
		}
	}
}
