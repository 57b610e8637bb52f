package server

import (
	"math/bits"

	"predfilter"
	"predfilter/internal/bitset"
)

// The delivery log: the live subscription set as columns indexed by SID,
// and one server-wide log of the last 2 × QueueLimit published documents,
// each with the bitset of the SIDs it is still pending for. A publish takes
// the engine's bitset of the matched ids a word at a time and adds it into
// bit-sliced per-SID window and delivered counters; a document is copied
// into a subscription's ring only when it leaves the log and is still among
// that subscription's newest QueueLimit pending documents. DESIGN.md §12,
// "Registry and the delivery log", has the invariants and the reasons.

// document is one published document as the log and the rings hold it.
// Every place that holds it stores the same pointer, so a queue slot is one
// word and retains exactly this document's bytes.
type document struct{ body []byte }

// subscription is the GET /subscriptions/{id} response.
type subscription struct {
	Expression string `json:"expression"`
	Delivered  int64  `json:"delivered"`
	Dropped    int64  `json:"dropped"`
	Pending    int    `json:"pending"`
}

// ring is one SID's queue of documents that left the log still pending:
// QueueLimit slots of the slab starting at (chunk−1)·QueueLimit, allocated
// at the SID's first push (chunk 0 is none), n documents from head on.
type ring struct{ chunk, head, n int32 }

// entry is one logged document: bits holds a set bit for every SID it is
// still pending for (or that drop-oldest has displaced it for, until the
// entry leaves the log), words the indexes of the words the publish set,
// n the bits still set. An entry whose n reaches 0 releases its document.
type entry struct {
	doc   *document
	bits  []uint64
	words []int32
	n     int
}

// registry is the live subscription set and every delivery queue. Server.mu
// guards it. Its columns grow to the highest id ever registered, like the
// matcher's own SID table.
type registry struct {
	q, k  int // QueueLimit; bits per window counter, ⌈log₂(2q+1)⌉
	count int // live subscriptions

	expr      []string // "" when not live
	live      []uint64 // bitset of live SIDs
	delivered []uint64 // per SID, its delivered count: 64 bit slices per word of SIDs
	popped    []int64
	rings     []ring
	filled    []uint64 // bitset: the SID's ring holds a document
	win       []uint64 // per SID, its log entries: k bit slices per word of SIDs

	slab []*document // ring chunks of q slots
	free []int32     // chunks of removed SIDs

	log        []entry // grows to 2q, then a ring from head
	head, size int

	// What eviction did with each set bit: copied into the SID's ring, or
	// passed over because drop-oldest had displaced it.
	ringPushes, passed int64
}

func (g *registry) init(queueLimit int) {
	g.q, g.k = queueLimit, bits.Len(uint(2*queueLimit))
}

// growTo extends s with zero values to length n.
func growTo[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// get returns id's expression, "" when it is not live. It takes an int so
// ids parsed from a URL need no narrowing first.
func (g *registry) get(id int) string {
	if uint(id) < uint(len(g.expr)) {
		return g.expr[id]
	}
	return ""
}

func (g *registry) put(sid predfilter.SID, expr string) {
	id := int(sid)
	if n := id + 1; n > len(g.expr) {
		g.expr = growTo(g.expr, n)
		g.popped, g.rings = growTo(g.popped, n), growTo(g.rings, n)
		w := bitset.Words(n)
		g.live, g.filled, g.win = growTo(g.live, w), growTo(g.filled, w), growTo(g.win, w*g.k)
		g.delivered = growTo(g.delivered, w*64)
	}
	g.expr[id] = expr
	bitset.Set(g.live, id)
	g.count++
}

// remove frees id's ring chunk and clears its bits from the log, so a later
// subscription under the same id starts with nothing pending.
func (g *registry) remove(sid predfilter.SID) {
	id := int(sid)
	g.clearRing(id)
	if c := g.rings[id].chunk; c != 0 {
		g.free = append(g.free, c)
	}
	g.rings[id] = ring{}
	for i := range g.size {
		if e := g.at(i); e.has(id) {
			g.unmark(e, id)
		}
	}
	s := g.dlv(id >> 6)
	for j := range s {
		s[j] &^= 1 << (id & 63)
	}
	g.expr[id], g.popped[id] = "", 0
	bitset.Clear(g.live, id)
	g.count--
}

// commit logs d for every id of em that is live and appends their text to
// buf, returning it and the number of ids. When every id is still live, as
// it is unless one was unsubscribed since the match, the entry takes em's
// masks as they are and the text is one copy; otherwise commitLive skips
// the removed ids one by one.
func (g *registry) commit(buf []byte, d *document, em *predfilter.Emitted) ([]byte, int) {
	if em.N == 0 {
		return buf, 0
	}
	if g.size == 2*g.q {
		g.evict()
	}
	e := g.at(g.size)
	if len(e.bits) < len(g.live) {
		e.bits = growTo(e.bits, len(g.live))
		e.words = make([]int32, 0, len(g.live))
	}
	allLive := true
	for i, wi := range em.Words {
		if uint(wi) >= uint(len(g.live)) || em.Masks[i]&^g.live[wi] != 0 {
			allLive = false
			break
		}
	}
	n := em.N
	if allLive {
		for i, wi := range em.Words {
			e.bits[wi] = em.Masks[i]
		}
		e.words = append(e.words, em.Words...)
		buf = append(buf, em.Text...)
	} else {
		buf, n = g.commitLive(buf, e, em.Text)
	}
	if n > 0 {
		e.doc, e.n = d, n
		for _, wi := range e.words {
			ripple(g.ws(int(wi)), e.bits[wi])
			ripple(g.dlv(int(wi)), e.bits[wi])
		}
		g.size++
	}
	return buf, n
}

// commitLive is commit's way when some id is no longer live: it reads the
// ids back from text and, for each live one, sets its bit in e and appends
// its text.
func (g *registry) commitLive(buf []byte, e *entry, text []byte) ([]byte, int) {
	n := 0
	for p := 0; p < len(text); {
		id, q := 0, p
		for ; text[q] != ','; q++ {
			id = id*10 + int(text[q]-'0')
		}
		wi, m := id>>6, uint64(1)<<(id&63)
		if wi < len(g.live) && g.live[wi]&m != 0 {
			if e.bits[wi] == 0 {
				e.words = append(e.words, int32(wi))
			}
			e.bits[wi] |= m
			buf = append(buf, text[p:q+1]...)
			n++
		}
		p = q + 1
	}
	return buf, n
}

// at returns the i-th oldest log entry; i == size is the free slot a
// publish fills, appended while the log is shorter than 2q.
func (g *registry) at(i int) *entry {
	if i += g.head; i == len(g.log) && len(g.log) < 2*g.q {
		g.log = append(g.log, entry{})
	} else if i >= len(g.log) {
		i -= len(g.log)
	}
	return &g.log[i]
}

func (e *entry) has(id int) bool {
	wi := id >> 6
	return wi < len(e.bits) && e.bits[wi]&(1<<(id&63)) != 0
}

// evict removes the oldest entry from the log. A set bit whose SID has
// fewer than q newer entries left is a document still pending: it goes into
// that SID's ring. Every other set bit is one drop-oldest displaced, and so
// is whatever the SID's ring still holds.
func (g *registry) evict() {
	e := &g.log[g.head]
	if g.head++; g.head == len(g.log) {
		g.head = 0
	}
	g.size--
	for _, wi := range e.words {
		x := e.bits[wi]
		if x == 0 {
			continue
		}
		e.bits[wi] = 0
		g.winSub(int(wi), x)
		keep := x & g.below(int(wi))
		for m := keep; m != 0; m &= m - 1 {
			g.push(int(wi)<<6|bits.TrailingZeros64(m), e.doc)
		}
		for m := x &^ keep & g.filled[wi]; m != 0; m &= m - 1 {
			g.clearRing(int(wi)<<6 | bits.TrailingZeros64(m))
		}
		g.ringPushes += int64(bits.OnesCount64(keep))
		g.passed += int64(bits.OnesCount64(x &^ keep))
	}
	e.doc, e.n, e.words = nil, 0, e.words[:0]
}

// unmark clears id's bit in e, which is set.
func (g *registry) unmark(e *entry, id int) {
	m := uint64(1) << (id & 63)
	e.bits[id>>6] &^= m
	g.winSub(id>>6, m)
	if e.n--; e.n == 0 {
		e.doc = nil
	}
}

// The window and delivered counts are bit-sliced: per word wi of SIDs, one
// word per bit of the counters, bit b of slice j being bit j of the count
// of SID 64·wi+b (ws and dlv return a word's slices).
func (g *registry) ws(wi int) []uint64  { return g.win[wi*g.k : wi*g.k+g.k] }
func (g *registry) dlv(wi int) []uint64 { return g.delivered[wi<<6 : wi<<6+64] }

// ripple adds each set bit of x to its SID's count in the bit slices s, a
// ripple carry over a whole word of SIDs that stops when none carries.
func ripple(s []uint64, x uint64) {
	for j := 0; x != 0; j++ {
		s[j], x = s[j]^x, s[j]&x
	}
}

// lane returns the count of bit b in the bit slices s.
func lane(s []uint64, b int) uint64 {
	var n uint64
	for j, x := range s {
		n |= (x >> b & 1) << j
	}
	return n
}

// winSub subtracts each set bit of x from its SID's window counter.
func (g *registry) winSub(wi int, x uint64) {
	s := g.ws(wi)
	for j := 0; x != 0; j++ {
		s[j], x = s[j]^x, x&^s[j]
	}
}

// below returns the SIDs of word wi whose window counter is under q, by a
// bit-sliced comparison from the top slice down.
func (g *registry) below(wi int) uint64 {
	s := g.ws(wi)
	lt, eq := uint64(0), ^uint64(0)
	for j := g.k - 1; j >= 0; j-- {
		if g.q>>j&1 != 0 {
			lt |= eq &^ s[j]
			eq &= s[j]
		} else {
			eq &^= s[j]
		}
	}
	return lt
}

// window returns the number of log entries with id's bit set.
func (g *registry) window(id int) int { return int(lane(g.ws(id>>6), id&63)) }

// push appends d to id's ring, overwriting the oldest document when the
// ring is full.
func (g *registry) push(id int, d *document) {
	r := &g.rings[id]
	if r.chunk == 0 {
		if n := len(g.free); n > 0 {
			r.chunk, g.free = g.free[n-1], g.free[:n-1]
		} else {
			g.slab = append(g.slab, make([]*document, g.q)...)
			r.chunk = int32(len(g.slab) / g.q)
		}
	}
	at := int(r.head) + int(r.n)
	if at >= g.q {
		at -= g.q
	}
	g.slab[(int(r.chunk)-1)*g.q+at] = d
	if int(r.n) < g.q {
		r.n++
	} else if r.head++; int(r.head) == g.q {
		r.head = 0
	}
	bitset.Set(g.filled, id)
}

// take dequeues the oldest document of id's ring, which is not empty.
func (g *registry) take(id int) *document {
	r := &g.rings[id]
	i := (int(r.chunk)-1)*g.q + int(r.head)
	d := g.slab[i]
	g.slab[i] = nil
	if r.head++; int(r.head) == g.q {
		r.head = 0
	}
	if r.n--; r.n == 0 {
		bitset.Clear(g.filled, id)
	}
	return d
}

func (g *registry) clearRing(id int) {
	for g.rings[id].n > 0 {
		g.take(id)
	}
}

// pending is drop-oldest's queue length: the newest q of what id's ring
// and the log hold.
func (g *registry) pending(id int) int {
	return min(g.q, int(g.rings[id].n)+g.window(id))
}

func (g *registry) info(id int) subscription {
	p, n := g.pending(id), int64(lane(g.dlv(id>>6), id&63))
	return subscription{Expression: g.expr[id], Delivered: n,
		Dropped: n - g.popped[id] - int64(p), Pending: p}
}

// pop dequeues up to max of id's pending documents, oldest first: the ring
// before the log, after discarding what drop-oldest displaced.
func (g *registry) pop(id, max int) []*document {
	over := int(g.rings[id].n) + g.window(id) - g.q
	for ; over > 0 && g.rings[id].n > 0; over-- {
		g.take(id)
	}
	for i := 0; over > 0; i++ {
		if e := g.at(i); e.has(id) {
			g.unmark(e, id)
			over--
		}
	}
	out := make([]*document, 0, min(max, g.pending(id)))
	for len(out) < cap(out) && g.rings[id].n > 0 {
		out = append(out, g.take(id))
	}
	for i := 0; len(out) < cap(out); i++ {
		if e := g.at(i); e.has(id) {
			out = append(out, e.doc)
			g.unmark(e, id)
		}
	}
	g.popped[id] += int64(len(out))
	return out
}
