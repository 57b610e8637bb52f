package server

import (
	"math/bits"
	"math/rand"
	"net/http"
	"testing"

	"predfilter"
)

// TestDeliveredSlices holds the bit-sliced delivered counts to a per-SID
// uint64 model: two words of SIDs, their counts seeded just below 2¹⁶,
// 2³² and 2⁶³ so that word adds carry into the high slices, then random
// word adds, dense and sparse, each followed by a read of every count.
// remove then clears one SID's count and leaves its 63 neighbours as they
// were.
func TestDeliveredSlices(t *testing.T) {
	var g registry
	g.init(4)
	const n = 128
	for id := 0; id < n; id++ {
		g.put(predfilter.SID(id), "/a")
	}
	rng := rand.New(rand.NewSource(1))
	model := make([]uint64, n)
	for id := range model {
		model[id] = []uint64{1<<16 - 1, 1<<32 - 1, 1<<63 - 1}[id%3] - uint64(rng.Intn(3))
		for j := 0; j < 64; j++ {
			g.delivered[id>>6<<6+j] |= model[id] >> j & 1 << (id & 63)
		}
	}
	check := func(step int) {
		t.Helper()
		for id, want := range model {
			if got := lane(g.dlv(id>>6), id&63); got != want {
				t.Fatalf("step %d: SID %d counts %d, model %d", step, id, got, want)
			}
			if got := g.info(id).Delivered; got != int64(want) {
				t.Fatalf("step %d: SID %d reports delivered %d, model %d", step, id, got, int64(want))
			}
		}
	}
	check(-1)
	for step := 0; step < 300; step++ {
		wi, x := rng.Intn(n/64), rng.Uint64()
		switch step % 3 {
		case 1:
			x &= rng.Uint64() & rng.Uint64()
		case 2:
			x = ^uint64(0)
		}
		ripple(g.dlv(wi), x)
		for m := x; m != 0; m &= m - 1 {
			model[wi<<6|bits.TrailingZeros64(m)]++
		}
		check(step)
	}
	for _, id := range []int{0, 63, 64 + 17} {
		g.remove(predfilter.SID(id))
		model[id] = 0
		check(id)
	}
}

// TestResubscribeDeliveredZero: a subscription removed and made again under
// the same explicit id starts with a delivered count of 0, although the
// old one's count had carried into several bit slices.
func TestResubscribeDeliveredZero(t *testing.T) {
	srv := New(Config{QueueLimit: 2})
	doReq(t, srv, "POST", "/subscriptions", `{"expression":"/a","id":70}`, http.StatusCreated, nil)
	doReq(t, srv, "POST", "/subscriptions", `{"expression":"/a","id":71}`, http.StatusCreated, nil)
	for i := 0; i < 7; i++ {
		publishIDs(t, srv, "<a/>")
	}
	var info subscription
	doReq(t, srv, "GET", "/subscriptions/70", "", http.StatusOK, &info)
	if info.Delivered != 7 {
		t.Fatalf("before: %+v, want 7 delivered", info)
	}
	doReq(t, srv, "DELETE", "/subscriptions/70", "", http.StatusNoContent, nil)
	doReq(t, srv, "POST", "/subscriptions", `{"expression":"/b","id":70}`, http.StatusCreated, nil)
	doReq(t, srv, "GET", "/subscriptions/70", "", http.StatusOK, &info)
	if info != (subscription{Expression: "/b"}) {
		t.Fatalf("re-subscribed: %+v, want /b with nothing delivered", info)
	}
	doReq(t, srv, "GET", "/subscriptions/71", "", http.StatusOK, &info)
	if info.Delivered != 7 || info.Pending != 2 || info.Dropped != 5 {
		t.Fatalf("neighbour: %+v, want 7 delivered, 2 pending, 5 dropped", info)
	}
}
