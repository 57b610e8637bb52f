// Package pathcache implements the structural path-signature cache: the
// document-side dual of the paper's expression-side sharing. Documents
// generated from one DTD repeat the same root-to-leaf tag sequences over
// and over (NITF documents average ~128 tags across ~60 paths, and a
// filtering run sees dozens to thousands of documents), yet the matcher
// re-runs the predicate-matching stage and the occurrence machinery for
// every repeat. The four structural predicate types — absolute position,
// relative distance, end-of-path and length-of-expression — see only tag
// names and positions, so their results for a path are a pure function of
// the path's signature (tag sequence plus per-path occurrence vector).
// This cache stores, per distinct signature, the structural matching
// outcome (the expression ids marked by value-independent iteration
// units) together with a compiled program that decides, on a hit, the
// value-dependent units that are structurally able to match: attribute
// tests on the path's tuples, and — where occurrence pairs matter — the
// structural occurrence pairs those tests guard, over which occurrence
// determination runs.
//
// Structure: a sharded LRU bounded by total byte size. Keys are the full
// signature bytes, interned once per distinct signature as the map key —
// lookups compare entire signatures (not hashes), so a hash collision
// costs a shard choice, never a wrong result. The matcher decides what a
// registration change does to the cache (matcher/cache.go): nothing, for a
// change of subscription ids only; Evict, one walk that drops the entries
// a new expression could match and keeps the rest; or Invalidate, a
// generation bump that makes every entry stale in O(1), dropped on access
// instead of being served.
//
// Concurrency: all methods are safe for concurrent use. Callers must
// ensure that a Put's value was computed against the expression set the
// cache currently stands for; the matcher guarantees this by calling
// Evict and Invalidate only under its write lock while matching holds the
// read lock.
package pathcache

import (
	"sync"
	"sync/atomic"

	"predfilter/internal/occur"
	"predfilter/internal/predicate"
)

// DefaultMaxBytes is the cache bound used when New is given no positive
// size: large enough for tens of thousands of distinct path signatures,
// small next to the predicate index of any serious subscription set.
const DefaultMaxBytes = 16 << 20

// nShards keeps lock hold times short when parallel matchers share one
// cache; signatures spread across shards by hash.
const nShards = 16

// Entry is one cached per-signature result. It is a function of the
// signature and of the set of distinct registered single-path expressions,
// never of subscription ids: everything it names — expression ids and the
// value dictionary's constant ids — is append-only in the matcher and is
// resolved to the live SIDs when a document's result is collected. That is
// what lets entries survive subscribe and unsubscribe.
type Entry struct {
	// Outcome is the structural matching contribution of the path: the
	// ids (expressions and group-representative slots) whose match is a
	// function of the signature, starting from a clean state.
	Outcome []int32
	// Prog decides on a hit the value-dependent units that can match a
	// document with this signature; nil when there are none.
	Prog *Program
}

// Program is an entry's value-dependent units compiled down to attribute
// tests on the path's tuples. Tests holds the distinct (tuple, filter)
// pairs, so a hit decides each once. A unit is then one of two kinds:
//
//   - A conjunction unit (Units) matches exactly when all of its tests
//     pass: every predicate of its chain has one structural occurrence
//     pair on the path, so the filters on that pair's tuples are all that
//     is left to decide. The units are grouped under the first test each
//     needs, so a hit walks only the units under the tests that passed.
//   - A chain unit (Chains) has a level with several structural pairs (a
//     tag repeats), so which pairs survive their tests decides whether a
//     chained combination exists. Each level is a list of the predicate's
//     structural occurrence pairs, each guarded by the tests on the tuples
//     it names; units with the same predicate and filters share the list,
//     and a hit runs occurrence determination over the pairs whose guards
//     passed.
//
// The sub-expressions of nested-path expressions that can match the
// signature are chains too, after the chain units: a hit records their
// guard-passing pairs with the path's node ids instead of deciding them,
// and their runs of Levels go on with the tuple indices the node ids are
// read at.
type Program struct {
	Tests []ProgTest
	Start []int32 // Units[Start[i]:Start[i+1]] need Tests[i] first; len(Tests)+1 long
	Units []ProgUnit
	More  []int32 // runs of test indices, each closed by -1: a unit's further tests, a pair's guard

	Chains []ProgChain
	Levels []int32 // runs of pair-list indices, each closed by -1: a chain's levels
	Lists  []int32 // pair list k is Pairs[Lists[k]:Lists[k+1]]; one entry past the last
	Pairs  []ProgPair
}

// ProgTest is one attribute filter applied to the tuple at index Tuple of
// the path.
type ProgTest struct {
	Tuple int32
	predicate.Test
}

// ProgUnit is one conjunction unit: the expression id a hit marks and
// where in Program.More its tests beyond the first begin (-1: none).
type ProgUnit struct {
	ID   int32
	More int32
}

// ProgChain is one chain: the expression id a hit marks, or for a
// nested-path sub-expression the bitwise complement of the matcher's index
// of it, and where in Program.Levels its levels begin.
type ProgChain struct {
	ID     int32
	Levels int32
}

// ProgPair is one structural occurrence pair of a pair list and where in
// Program.More its guard begins (-1: unguarded).
type ProgPair struct {
	occur.Pair
	Guard int32
}

// sizeBytes estimates the heap footprint of an entry under its interned
// key; the constants are the struct sizes plus map/list bookkeeping.
func sizeBytes(key string, e *Entry) int64 {
	const overhead = 160 // entry struct, map bucket share, LRU links
	n := overhead + int64(len(key)) + 4*int64(len(e.Outcome))
	if p := e.Prog; p != nil {
		n += 192 + 24*int64(len(p.Tests)) + 4*int64(len(p.Start)) + 8*int64(len(p.Units)) + 4*int64(len(p.More)) +
			8*int64(len(p.Chains)) + 4*int64(len(p.Levels)) + 4*int64(len(p.Lists)) + 12*int64(len(p.Pairs))
	}
	return n
}

// node is one resident entry with its LRU links.
type node struct {
	key        string
	gen        uint64
	val        *Entry
	size       int64
	prev, next *node
}

// shard is one lock domain: a map from interned signature to node plus an
// intrusive LRU list (front = most recently used).
type shard struct {
	mu    sync.Mutex
	m     map[string]*node
	front *node
	back  *node
	bytes int64
}

// Cache is the sharded LRU. Create with New.
type Cache struct {
	shardMax int64 // byte bound per shard
	gen      atomic.Uint64

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64

	shards [nShards]shard
}

// New returns a cache bounded by maxBytes in total (DefaultMaxBytes when
// maxBytes <= 0).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	per := maxBytes / nShards
	if per < 1 {
		per = 1
	}
	c := &Cache{shardMax: per}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*node)
	}
	return c
}

// Generation returns the current generation counter.
func (c *Cache) Generation() uint64 { return c.gen.Load() }

// Invalidate makes every resident entry stale in O(1). Stale entries are
// dropped lazily, when a lookup or an Evict walk touches them or the LRU
// pushes them out.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
	c.invalidations.Add(1)
}

// Evict walks the resident entries once, dropping those whose signature
// drop reports true (and the stale ones it passes) and keeping the rest at
// their generation and LRU position. Dropped entries count as evictions.
func (c *Cache) Evict(drop func(sig string) bool) {
	gen := c.gen.Load()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for n := s.front; n != nil; {
			next := n.next
			if n.gen != gen || drop(n.key) {
				s.remove(n)
				c.evictions.Add(1)
			}
			n = next
		}
		s.mu.Unlock()
	}
}

func (c *Cache) shard(hash uint64) *shard { return &c.shards[hash%nShards] }

// Get returns the entry stored for the signature, or (nil, false). hash
// must be a hash of sig (it selects the shard; equality is decided on the
// full signature bytes). A hit refreshes the entry's LRU position; a
// stale entry (older generation) is removed and reported as a miss.
// Get performs no allocations.
func (c *Cache) Get(hash uint64, sig []byte) (*Entry, bool) {
	s := c.shard(hash)
	s.mu.Lock()
	n := s.m[string(sig)] // no allocation: map lookup on converted []byte
	if n == nil {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	if n.gen != c.gen.Load() {
		s.remove(n)
		s.mu.Unlock()
		c.evictions.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	s.moveFront(n)
	val := n.val
	s.mu.Unlock()
	c.hits.Add(1)
	return val, true
}

// Put stores the entry under the signature at the current generation,
// evicting least-recently-used entries to stay within the byte bound. The
// signature bytes are copied (interned) once; val is retained as-is and
// must not be mutated afterwards. Entries larger than a whole shard are
// not stored.
func (c *Cache) Put(hash uint64, sig []byte, val *Entry) {
	gen := c.gen.Load()
	s := c.shard(hash)
	s.mu.Lock()
	if n := s.m[string(sig)]; n != nil {
		// Concurrent workers can compute the same miss twice, and a stale
		// entry may be overwritten in place; refresh rather than duplicate.
		s.bytes -= n.size
		n.val = val
		n.gen = gen
		n.size = sizeBytes(n.key, val)
		s.bytes += n.size
		s.moveFront(n)
	} else {
		key := string(sig) // the one allocation: the interned signature
		n := &node{key: key, gen: gen, val: val, size: sizeBytes(key, val)}
		if n.size > c.shardMax {
			s.mu.Unlock()
			return
		}
		s.m[key] = n
		s.pushFront(n)
		s.bytes += n.size
	}
	for s.bytes > c.shardMax && s.back != nil {
		s.remove(s.back)
		c.evictions.Add(1)
	}
	s.mu.Unlock()
}

// pushFront links n at the front of the LRU list. Callers hold s.mu.
func (s *shard) pushFront(n *node) {
	n.prev = nil
	n.next = s.front
	if s.front != nil {
		s.front.prev = n
	}
	s.front = n
	if s.back == nil {
		s.back = n
	}
}

// moveFront refreshes n's LRU position. Callers hold s.mu.
func (s *shard) moveFront(n *node) {
	if s.front == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

// unlink detaches n from the LRU list. Callers hold s.mu.
func (s *shard) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.front = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.back = n.prev
	}
	n.prev, n.next = nil, nil
}

// remove deletes n from the shard entirely. Callers hold s.mu.
func (s *shard) remove(n *node) {
	s.unlink(n)
	delete(s.m, n.key)
	s.bytes -= n.size
}

// Stats is a point-in-time summary of cache activity and residency.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64 // entries dropped: capacity, Evict walks, stale after a flush
	Invalidations int64 // whole-cache flushes (Invalidate calls, generation bumps)
	Entries       int   // resident entries (stale ones included until dropped)
	Bytes         int64 // resident byte estimate
	MaxBytes      int64 // configured bound
	Generation    uint64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup. The
// sum is computed in floating point so counters near the int64 limit
// cannot overflow into a negative total.
func (s Stats) HitRate() float64 {
	total := float64(s.Hits) + float64(s.Misses)
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / total
}

// Stats snapshots the counters and residency.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		MaxBytes:      c.shardMax * nShards,
		Generation:    c.gen.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.m)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
