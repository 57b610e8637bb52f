package pathcache

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// hash mimics the matcher's FNV-1a signature hash; any deterministic
// function works for the cache (equality is on the full bytes).
func hash(sig []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range sig {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return h
}

func entry(n int) *Entry {
	e := &Entry{Outcome: make([]int32, n)}
	for i := range e.Outcome {
		e.Outcome[i] = int32(i)
	}
	return e
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	sig := []byte("a\x00\x01\x00b\x00\x01\x00")
	if _, ok := c.Get(hash(sig), sig); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(hash(sig), sig, entry(3))
	got, ok := c.Get(hash(sig), sig)
	if !ok || len(got.Outcome) != 3 {
		t.Fatalf("got %v ok=%v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// Two different signatures with an identical hash must not alias: the
// cache compares full signature bytes, so the second signature simply
// misses (and may be stored alongside under its own interned key).
func TestHashCollisionDoesNotAlias(t *testing.T) {
	c := New(1 << 20)
	a, b := []byte("sig-a"), []byte("sig-b")
	h := uint64(12345) // same (wrong) hash for both
	c.Put(h, a, entry(1))
	if _, ok := c.Get(h, b); ok {
		t.Fatal("colliding signature served the wrong entry")
	}
	c.Put(h, b, entry(2))
	ea, _ := c.Get(h, a)
	eb, _ := c.Get(h, b)
	if len(ea.Outcome) != 1 || len(eb.Outcome) != 2 {
		t.Fatalf("aliased entries: %v %v", ea, eb)
	}
}

func TestInvalidateDropsStale(t *testing.T) {
	c := New(1 << 20)
	sig := []byte("stale")
	c.Put(hash(sig), sig, entry(1))
	c.Invalidate()
	if _, ok := c.Get(hash(sig), sig); ok {
		t.Fatal("stale entry served after Invalidate")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations %d", st.Invalidations)
	}
	if st.Entries != 0 {
		t.Fatalf("stale entry still resident: %+v", st)
	}
	// Re-population at the new generation works.
	c.Put(hash(sig), sig, entry(2))
	if e, ok := c.Get(hash(sig), sig); !ok || len(e.Outcome) != 2 {
		t.Fatalf("re-populated entry %v ok=%v", e, ok)
	}
}

// TestEvictWalk: Evict drops what the callback names and what a flush
// left stale, keeps the rest servable at the generation they have, and
// counts evictions, not invalidations.
func TestEvictWalk(t *testing.T) {
	c := New(1 << 20)
	stale := []byte("stale")
	c.Put(hash(stale), stale, entry(1))
	c.Invalidate()
	var sigs [][]byte
	for i := 0; i < 64; i++ {
		sig := []byte(fmt.Sprintf("sig-%02d", i))
		sigs = append(sigs, sig)
		c.Put(hash(sig), sig, entry(2))
	}
	before := c.Stats()
	asked := 0
	c.Evict(func(sig string) bool {
		asked++
		return sig[len(sig)-1] == '7' // sig-07 … sig-57
	})
	st := c.Stats()
	if asked != 64 {
		t.Fatalf("callback consulted for %d entries, want the 64 current ones", asked)
	}
	if st.Entries != 64-6 || st.Evictions != before.Evictions+7 {
		t.Fatalf("after the walk %+v, before %+v: want 6 named and 1 stale entry dropped", st, before)
	}
	if st.Invalidations != before.Invalidations || st.Generation != before.Generation {
		t.Fatalf("the walk flushed: %+v, before %+v", st, before)
	}
	for i, sig := range sigs {
		if _, ok := c.Get(hash(sig), sig); ok == (i%10 == 7) {
			t.Fatalf("%s resident = %v", sig, ok)
		}
	}
}

func TestByteBoundEvictsLRU(t *testing.T) {
	// Small bound: each entry is ~240 bytes (overhead + key + outcome),
	// so only a handful fit per shard. Insert many and verify the bound
	// holds and the most recent entries survive.
	c := New(nShards * 1024)
	var sigs [][]byte
	for i := 0; i < 256; i++ {
		sig := []byte(fmt.Sprintf("signature-%03d", i))
		sigs = append(sigs, sig)
		c.Put(hash(sig), sig, entry(16))
	}
	st := c.Stats()
	if st.Bytes > c.shardMax*nShards {
		t.Fatalf("bytes %d over bound %d", st.Bytes, c.shardMax*nShards)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
	if st.Entries == 0 {
		t.Fatal("everything evicted")
	}
	// The very last insert must still be resident (it is the MRU of its
	// shard and fits alone).
	last := sigs[len(sigs)-1]
	if _, ok := c.Get(hash(last), last); !ok {
		t.Fatal("most recent entry was evicted")
	}
}

func TestLRUOrderWithinShard(t *testing.T) {
	// Force everything into one shard by using the same hash. Bound the
	// shard so only ~2 entries fit; touching A should keep it alive while
	// B is evicted.
	c := New(nShards * 400)
	h := uint64(7)
	a, b, d := []byte("entry-a"), []byte("entry-b"), []byte("entry-c")
	c.Put(h, a, entry(8))
	c.Put(h, b, entry(8))
	if _, ok := c.Get(h, a); !ok {
		t.Fatal("a missing before overflow")
	}
	c.Put(h, d, entry(8)) // evicts LRU = b
	if _, ok := c.Get(h, b); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get(h, a); !ok {
		t.Fatal("recently used entry a was evicted")
	}
}

func TestOversizeEntryNotStored(t *testing.T) {
	c := New(nShards * 256)
	sig := []byte("huge")
	c.Put(hash(sig), sig, entry(4096))
	if _, ok := c.Get(hash(sig), sig); ok {
		t.Fatal("oversize entry was stored")
	}
}

func TestPutOverwrites(t *testing.T) {
	c := New(1 << 20)
	sig := []byte("twice")
	c.Put(hash(sig), sig, entry(1))
	c.Put(hash(sig), sig, entry(5))
	e, ok := c.Get(hash(sig), sig)
	if !ok || len(e.Outcome) != 5 {
		t.Fatalf("overwrite lost: %v ok=%v", e, ok)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate entries after overwrite: %+v", st)
	}
}

func TestDefaultSize(t *testing.T) {
	c := New(0)
	if st := c.Stats(); st.MaxBytes != DefaultMaxBytes/nShards*nShards {
		t.Fatalf("default max %d", st.MaxBytes)
	}
}

// TestProgramEntrySized: the byte bound must see everything an entry
// retains — the outcome, and the program's tests, conjunction units and
// chain units with their levels, pair lists and guarded pairs.
func TestProgramEntrySized(t *testing.T) {
	if got, want := sizeBytes("k", &Entry{Outcome: make([]int32, 2)}), int64(160+1+4*2); got != want {
		t.Fatalf("sizeBytes = %d, want %d", got, want)
	}
	if unsafe.Sizeof(ProgTest{}) != 24 || unsafe.Sizeof(ProgUnit{}) != 8 || unsafe.Sizeof(ProgChain{}) != 8 || unsafe.Sizeof(ProgPair{}) != 12 || unsafe.Sizeof(Program{}) != 192 {
		t.Fatalf("sizeBytes' constants are stale: ProgTest %d, ProgUnit %d, ProgChain %d, ProgPair %d, Program %d bytes",
			unsafe.Sizeof(ProgTest{}), unsafe.Sizeof(ProgUnit{}), unsafe.Sizeof(ProgChain{}), unsafe.Sizeof(ProgPair{}), unsafe.Sizeof(Program{}))
	}
	p := &Entry{Prog: &Program{
		Tests: make([]ProgTest, 3), Start: make([]int32, 4), Units: make([]ProgUnit, 7), More: make([]int32, 2),
		Chains: make([]ProgChain, 2), Levels: make([]int32, 5), Lists: make([]int32, 3), Pairs: make([]ProgPair, 6),
	}}
	if got, want := sizeBytes("k", p), int64(160+1+192+24*3+4*4+8*7+4*2+8*2+4*5+4*3+12*6); got != want {
		t.Fatalf("sizeBytes with a program = %d, want %d", got, want)
	}
}

// Concurrent mixed traffic across generations; run under -race.
func TestConcurrentAccess(t *testing.T) {
	c := New(nShards * 4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sig := []byte(fmt.Sprintf("sig-%d", (g*31+i)%64))
				h := hash(sig)
				if _, ok := c.Get(h, sig); !ok {
					c.Put(h, sig, entry(i%8))
				}
				if i%97 == 0 {
					c.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("lookups %d", st.Hits+st.Misses)
	}
}
