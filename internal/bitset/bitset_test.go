package bitset

import (
	"math/rand"
	"testing"
)

func TestWords(t *testing.T) {
	cases := []struct {
		n     int
		words int
	}{
		{0, 0},
		{1, 1},
		{63, 1},
		{64, 1},
		{65, 2},
		{128, 2},
		{130, 3},
	}
	for _, c := range cases {
		if got := Words(c.n); got != c.words {
			t.Errorf("Words(%d) = %d, want %d", c.n, got, c.words)
		}
	}
}

func TestSetGetClear(t *testing.T) {
	const n = 200
	b := make([]uint64, Words(n))
	ref := make(map[int]bool)
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 1000; step++ {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			Set(b, i)
			ref[i] = true
		} else {
			Clear(b, i)
			delete(ref, i)
		}
	}
	for i := 0; i < n; i++ {
		if Get(b, i) != ref[i] {
			t.Fatalf("bit %d: got %v, want %v", i, Get(b, i), ref[i])
		}
	}
	if got := Count(b); got != len(ref) {
		t.Fatalf("Count = %d, want %d", got, len(ref))
	}
}

func TestAndOrZero(t *testing.T) {
	a := []uint64{0xff00ff00, 0x0f0f, 0xffff}
	b := []uint64{0x00ffff00, 0xf00f}
	And(a, b)
	want := []uint64{0xff00ff00 & 0x00ffff00, 0x0f0f & 0xf00f, 0xffff}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("And word %d = %#x, want %#x", i, a[i], want[i])
		}
	}
	Or(a, b)
	for i := range b {
		if a[i]&b[i] != b[i] {
			t.Fatalf("Or word %d missing bits", i)
		}
	}
	Zero(a)
	if Count(a) != 0 {
		t.Fatal("Zero left bits set")
	}
}

func TestForEachAscending(t *testing.T) {
	b := make([]uint64, 3)
	want := []int{0, 1, 63, 64, 100, 191}
	for _, i := range want {
		Set(b, i)
	}
	var got []int
	ForEach(b, func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}
