// Package bitset provides the dense []uint64 bitset primitives of the
// columnar batch matcher: expression membership and per-level match state
// are packed 64 columns to a word, so one AND/OR advances 64 expressions
// at once (the software analog of the FPGA filtering papers' parallel
// evaluation). The package is deliberately minimal — fixed-width dense
// words, no growth policy, no iterator abstraction — because the matcher's
// sweep loop owns the layout and fuses the hot operations itself; what
// lives here are the primitives that loop and its tests share.
package bitset

import "math/bits"

// WordBits is the number of columns per word.
const WordBits = 64

// Words returns the number of words needed to hold n bits.
func Words(n int) int { return (n + WordBits - 1) / WordBits }

// Set sets bit i. The caller guarantees i < len(b)*WordBits.
func Set(b []uint64, i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i. The caller guarantees i < len(b)*WordBits.
func Clear(b []uint64, i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports bit i. The caller guarantees i < len(b)*WordBits.
func Get(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Zero clears every word.
func Zero(b []uint64) {
	for i := range b {
		b[i] = 0
	}
}

// And intersects src into dst word-wise over their common length.
func And(dst, src []uint64) {
	n := min(len(dst), len(src))
	for i := 0; i < n; i++ {
		dst[i] &= src[i]
	}
}

// Or unions src into dst word-wise over their common length.
func Or(dst, src []uint64) {
	n := min(len(dst), len(src))
	for i := 0; i < n; i++ {
		dst[i] |= src[i]
	}
}

// Count returns the number of set bits.
func Count(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn with the index of every set bit, ascending.
func ForEach(b []uint64, fn func(i int)) {
	for w, word := range b {
		base := w << 6
		for word != 0 {
			fn(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}
