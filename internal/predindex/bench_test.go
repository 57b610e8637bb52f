package predindex

import (
	"fmt"
	"math/rand"
	"testing"

	"predfilter/internal/predicate"
	"predfilter/internal/xmldoc"
)

func randomPreds(n int) []predicate.Predicate {
	rng := rand.New(rand.NewSource(3))
	tags := []string{"a", "b", "c", "d", "e", "f"}
	out := make([]predicate.Predicate, n)
	for i := range out {
		op := predicate.Op(rng.Intn(2))
		switch rng.Intn(4) {
		case 0:
			out[i] = predicate.Predicate{Kind: predicate.Absolute, Op: op, Tag1: tags[rng.Intn(len(tags))], Value: 1 + rng.Intn(6)}
		case 1:
			out[i] = predicate.Predicate{Kind: predicate.Relative, Op: op, Tag1: tags[rng.Intn(len(tags))], Tag2: tags[rng.Intn(len(tags))], Value: 1 + rng.Intn(4)}
		case 2:
			out[i] = predicate.Predicate{Kind: predicate.EndOfPath, Op: predicate.GE, Tag1: tags[rng.Intn(len(tags))], Value: 1 + rng.Intn(4)}
		default:
			out[i] = predicate.Predicate{Kind: predicate.Length, Op: predicate.GE, Value: 1 + rng.Intn(8)}
		}
	}
	return out
}

// BenchmarkInsert measures predicate insertion with heavy dedup (the
// random space is small, so most inserts hit existing pids).
func BenchmarkInsert(b *testing.B) {
	preds := randomPreds(4096)
	ix := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(preds[i%len(preds)])
	}
}

// BenchmarkMatchPath measures the predicate matching stage at several
// index sizes.
func BenchmarkMatchPath(b *testing.B) {
	doc := xmldoc.FromPaths([]string{"a", "b", "c", "d", "e", "f", "a", "b"})
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("preds=%d", n), func(b *testing.B) {
			ix := New()
			for _, p := range randomPreds(n) {
				ix.Insert(p)
			}
			res := NewResults(ix.Len())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res.Reset(ix.Len())
				ix.MatchPath(&doc.Paths[0], res, true)
			}
		})
	}
}
