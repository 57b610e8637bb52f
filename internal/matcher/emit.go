package matcher

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"strconv"
	"unsafe"
)

// The output side of a match. A document's result is the live SIDs of its
// matched expressions in expression-id order, each expression's SIDs in
// bind order. The kernel writes it from SID blocks, which hold those SIDs
// already laid out in that order and already rendered as text, so turning
// the matched flags into a result costs one copy per run of consecutive
// matched ids rather than one load per id.

// sidBlock is the output column of the 64 expression ids 64k … 64k+63: the
// live SIDs bound to them, contiguous in expression-id then bind order, and
// the same SIDs as decimal digits each followed by a comma. Expression
// 64k+i owns sids[off[i]:off[i+1]] and text[at[i]:at[i+1]]. A block is
// derived from sidOne/sidMany: bind and Remove only mark it dirty, and
// catchUp re-renders the dirty blocks under the write lock, so every
// match reads current blocks.
type sidBlock struct {
	sids  []SID
	text  []byte
	off   [65]int32
	at    [65]int32
	dirty bool
}

// touch marks the block of expression id for re-rendering at the next
// catch-up. Callers hold the write lock.
func (m *Matcher) touch(id int) {
	k := id >> 6
	if k >= len(m.blocks) {
		m.blocks = append(m.blocks, make([]sidBlock, k+1-len(m.blocks))...)
	}
	if b := &m.blocks[k]; !b.dirty {
		b.dirty = true
		m.redo = append(m.redo, int32(k))
	}
}

// render re-renders the dirty blocks from the SID columns, in time
// proportional to their SIDs. Callers hold the write lock.
func (m *Matcher) render() {
	for _, k := range m.redo {
		b := &m.blocks[k]
		b.sids, b.text, b.dirty = b.sids[:0], b.text[:0], false
		base := int(k) << 6
		for i := 0; i < 64; i++ {
			b.off[i], b.at[i] = int32(len(b.sids)), int32(len(b.text))
			for _, sid := range m.sids(base + i) {
				b.sids = append(b.sids, sid)
				b.text = append(strconv.AppendInt(b.text, int64(sid), 10), ',')
			}
		}
		b.off[64], b.at[64] = int32(len(b.sids)), int32(len(b.text))
	}
	m.redo = m.redo[:0]
}

// Emit is one document's result in the form a response writer and a
// delivery log take it. Text holds the SIDs in result order, each as its
// decimal digits followed by a comma; the SIDs as a set are a sparse
// bitset, the indexes of its nonzero 64-bit words in Words and the words
// themselves in Masks; N is the number of SIDs. It is a snapshot taken when
// the document was matched: a later Remove does not change it.
type Emit struct {
	Text  []byte
	Words []int32
	Masks []uint64
	N     int

	sorted []SID // SetSIDs' scratch
}

// reset empties e, keeping its buffers.
func (e *Emit) reset() {
	e.Text, e.Words, e.Masks, e.N = e.Text[:0], e.Words[:0], e.Masks[:0], 0
}

// SetSIDs renders sids, in their order, into e: the emitted form of a
// result a caller holds as a []SID.
func (e *Emit) SetSIDs(sids []SID) {
	e.reset()
	for _, sid := range sids {
		e.Text = append(strconv.AppendInt(e.Text, int64(sid), 10), ',')
	}
	e.sorted = append(e.sorted[:0], sids...)
	slices.Sort(e.sorted)
	for _, sid := range e.sorted {
		w := int32(sid >> 6)
		if n := len(e.Words); n == 0 || e.Words[n-1] != w {
			e.Words, e.Masks = append(e.Words, w), append(e.Masks, 0)
		}
		e.Masks[len(e.Masks)-1] |= 1 << (sid & 63)
	}
	e.N = len(sids)
}

// collect writes out the SIDs of the matched flags from the SID blocks,
// one copy per run of consecutive matched ids within a block: each
// block's 64 flags are read as one word (flagWord), a block with none is
// skipped with one test, and each run is found by two trailing-zero
// counts. With em set it fills em and returns
// nil; otherwise it returns the SIDs in a fresh slice.
func (m *Matcher) collect(sc *scratch, em *Emit) []SID {
	out, set := sc.out[:0], sc.sidBits
	// The matched flags as bytes: a Go bool is one byte, 0 or 1.
	flags := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(sc.matched))), len(sc.matched))
	for k := range m.blocks {
		base := k << 6
		if base >= len(flags) {
			break
		}
		x := flagWord(flags[base:min(base+64, len(flags))])
		for b := &m.blocks[k]; x != 0; {
			i := bits.TrailingZeros64(x)
			j := i + bits.TrailingZeros64(^(x >> i))
			x &= ^uint64(0) << j // j == 64 clears the word
			run := b.sids[b.off[i]:b.off[j]]
			if em == nil {
				out = append(out, run...)
				continue
			}
			em.Text = append(em.Text, b.text[b.at[i]:b.at[j]]...)
			em.N += len(run)
			for _, sid := range run {
				w := sid >> 6
				if set[w] == 0 {
					em.Words = append(em.Words, int32(w))
				}
				set[w] |= 1 << (sid & 63)
			}
		}
	}
	sc.out = out
	if em == nil {
		return append([]SID(nil), out...)
	}
	for _, w := range em.Words {
		em.Masks = append(em.Masks, set[w])
		set[w] = 0
	}
	return nil
}

// flagWord packs up to 64 matched flags, each byte 0 or 1, into a word
// with bit i set for f[i]: eight flags at a time by one 8-byte load and
// one multiply that gathers each byte's low bit into the top byte, the
// rest of a short block one flag at a time.
func flagWord(f []byte) uint64 {
	var x uint64
	i := 0
	for ; i+8 <= len(f); i += 8 {
		x |= binary.LittleEndian.Uint64(f[i:]) * 0x0102040810204080 >> 56 << i
	}
	for ; i < len(f); i++ {
		x |= uint64(f[i]) << i
	}
	return x
}
