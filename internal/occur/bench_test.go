package occur

import (
	"math/rand"
	"testing"
)

func benchChains(n, levels, pairs int) [][][]Pair {
	rng := rand.New(rand.NewSource(9))
	out := make([][][]Pair, n)
	for i := range out {
		chain := make([][]Pair, levels)
		for j := range chain {
			for k := 0; k < pairs; k++ {
				chain[j] = append(chain[j], Pair{A: int32(1 + rng.Intn(4)), B: int32(1 + rng.Intn(4))})
			}
		}
		out[i] = chain
	}
	return out
}

// BenchmarkDetermine measures the level-to-level pass at the chain shapes
// the engine sees (short chains, a handful of pairs per level).
func BenchmarkDetermine(b *testing.B) {
	chains := benchChains(64, 4, 4)
	var buf []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Determine(chains[i%len(chains)], nil, &buf)
	}
}

// BenchmarkDetermineAlg1 measures the literal transcription of the
// paper's Algorithm 1 on the same inputs.
func BenchmarkDetermineAlg1(b *testing.B) {
	chains := benchChains(64, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetermineAlg1(chains[i%len(chains)])
	}
}

// BenchmarkSupport measures the forward and backward pass around the
// middle level over a warm buffer.
func BenchmarkSupport(b *testing.B) {
	chains := benchChains(64, 4, 4)
	var buf []uint64
	on := make([]uint64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Support(chains[i%len(chains)], 1, on, nil, &buf)
	}
}
