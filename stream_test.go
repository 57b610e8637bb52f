package predfilter_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"predfilter"
)

func streamEngine(t *testing.T) *predfilter.Engine {
	t.Helper()
	eng := predfilter.New(predfilter.Config{})
	for _, s := range []string{"/feed/a", "/feed//b", "//c[@k=1]", "/feed/a/b"} {
		if _, err := eng.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func streamDocs(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		switch i % 3 {
		case 0:
			docs[i] = []byte(`<feed><a><b/></a></feed>`)
		case 1:
			docs[i] = []byte(`<feed><c k="1"/></feed>`)
		default:
			docs[i] = []byte(`<other/>`)
		}
	}
	return docs
}

func sidSet(s []predfilter.SID) string {
	out := append([]predfilter.SID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return fmt.Sprint(out)
}

// TestMatchBatchMatchesSequential checks order preservation and result
// equality against the one-at-a-time API, at several worker counts.
func TestMatchBatchMatchesSequential(t *testing.T) {
	eng := streamEngine(t)
	docs := streamDocs(50)
	var want [][]predfilter.SID
	for _, d := range docs {
		sids, err := eng.Match(d)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sids)
	}
	for _, workers := range []int{0, 1, 2, 4, 7} {
		results := eng.MatchBatchContext(context.Background(), docs, workers)
		if len(results) != len(docs) {
			t.Fatalf("workers=%d: %d results for %d docs", workers, len(results), len(docs))
		}
		for i, r := range results {
			if r.Index != i {
				t.Fatalf("workers=%d: result %d has index %d", workers, i, r.Index)
			}
			if r.Err != nil {
				t.Fatalf("workers=%d doc %d: %v", workers, i, r.Err)
			}
			if sidSet(r.SIDs) != sidSet(want[i]) {
				t.Fatalf("workers=%d doc %d: batch %v != sequential %v", workers, i, r.SIDs, want[i])
			}
		}
	}
}

// TestMatchBatchBadDocument checks per-document error isolation: a
// malformed document yields an errored Result without failing its
// neighbors.
func TestMatchBatchBadDocument(t *testing.T) {
	eng := streamEngine(t)
	docs := [][]byte{
		[]byte(`<feed><a/></feed>`),
		[]byte(`<unclosed>`),
		[]byte(`<feed><c k="1"/></feed>`),
	}
	results := eng.MatchBatchContext(context.Background(), docs, 2)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good documents errored: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("malformed document did not error")
	}
	if len(results[0].SIDs) == 0 || len(results[2].SIDs) == 0 {
		t.Fatal("good documents matched nothing")
	}
}

// TestMatchStreamCancel checks that cancelling the context closes the
// result channel rather than leaking the pipeline.
func TestMatchStreamCancel(t *testing.T) {
	eng := streamEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan []byte) // unbuffered, never closed: only cancel ends the stream
	out := eng.MatchStream(ctx, in, 2)

	in <- []byte(`<feed><a/></feed>`)
	select {
	case r, ok := <-out:
		if !ok {
			t.Fatal("stream closed before cancel")
		}
		if r.Err != nil || r.Index != 0 {
			t.Fatalf("unexpected first result %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result within 5s")
	}

	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return // closed: pipeline wound down
			}
		case <-deadline:
			t.Fatal("stream not closed within 5s of cancel")
		}
	}
}

// TestMatchStreamEchoesDoc checks the Doc passthrough consumers use for
// fan-out.
func TestMatchStreamEchoesDoc(t *testing.T) {
	eng := streamEngine(t)
	docs := streamDocs(9)
	for i, r := range eng.MatchBatchContext(context.Background(), docs, 3) {
		if string(r.Doc) != string(docs[i]) {
			t.Fatalf("doc %d not echoed back", i)
		}
	}
}

func TestMergeSIDSets(t *testing.T) {
	cases := []struct {
		name string
		in   [][]predfilter.SID
		want []predfilter.SID
	}{
		{"empty", nil, nil},
		{"all empty", [][]predfilter.SID{nil, {}}, nil},
		{"single", [][]predfilter.SID{{1, 3, 5}}, []predfilter.SID{1, 3, 5}},
		{"disjoint interleave", [][]predfilter.SID{{0, 3, 7}, {1, 4}, {2, 5, 6}}, []predfilter.SID{0, 1, 2, 3, 4, 5, 6, 7}},
		{"overlap dedups", [][]predfilter.SID{{1, 2, 9}, {2, 9, 10}}, []predfilter.SID{1, 2, 9, 10}},
		{"one shard empty", [][]predfilter.SID{{4, 8}, nil}, []predfilter.SID{4, 8}},
	}
	for _, c := range cases {
		got := predfilter.MergeSIDSets(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: predfilter.MergeSIDSets(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
}
