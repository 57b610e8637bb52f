package predfilter

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The persistence acceptance property: add N subscriptions (some later
// removed), shut down — gracefully or by crash, with or without a torn
// log tail — reopen from the same state directory, and every document's
// matched SID set is identical to the pre-restart engine's.

var persistExprs = []string{
	"/nitf/body//p",
	"//keyword[@key=storm]",
	"/nitf/body//p", // duplicate: shares storage, distinct sid
	"/nitf/*/headline",
	"//media[@type=image]//caption",
	"/nitf//p[@lede=true]",
	"//body[keyword[@key=storm]]//p", // nested path filter
	"/feed/entry/title",
	"//entry[@lang=en]",
	"/nitf/head/title",
}

var persistDocs = [][]byte{
	[]byte(`<nitf><head><title>t</title></head><body><sec><p lede="true">x</p></sec><keyword key="storm"/></body></nitf>`),
	[]byte(`<nitf><x><headline>h</headline></x><body><p>plain</p></body></nitf>`),
	[]byte(`<feed><entry lang="en"><title>a</title></entry><entry lang="de"><title>b</title></entry></feed>`),
	[]byte(`<doc><media type="image"><inner><caption>c</caption></inner></media></doc>`),
	[]byte(`<nitf><body><keyword key="calm"/><p/></body></nitf>`),
}

func sortedSIDs(sids []SID) []SID {
	out := append([]SID(nil), sids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) == 0 {
		return []SID{}
	}
	return out
}

func matchAllSorted(t *testing.T, eng *Engine) [][]SID {
	t.Helper()
	out := make([][]SID, len(persistDocs))
	for i, d := range persistDocs {
		sids, err := eng.Match(d)
		if err != nil {
			t.Fatalf("Match(doc %d): %v", i, err)
		}
		out[i] = sortedSIDs(sids)
	}
	return out
}

// populate adds every expression and removes a few, returning the removed
// sids.
func populate(t *testing.T, pe *PersistentEngine) []SID {
	t.Helper()
	sids, err := pe.AddAll(persistExprs)
	if err != nil {
		t.Fatalf("AddAll: %v", err)
	}
	removed := []SID{sids[1], sids[4], sids[9]}
	for _, sid := range removed {
		if err := pe.Remove(sid); err != nil {
			t.Fatalf("Remove(%d): %v", sid, err)
		}
	}
	return removed
}

// copyStateDir clones a state directory, simulating the on-disk image a
// crash would leave (the source process keeps running, unaware).
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestPersistentRestartRoundTrip(t *testing.T) {
	for _, cfg := range []PersistentConfig{
		{NoSync: true},
		{NoSync: true, Engine: Config{AttributeMode: PostponedAttributes}},
		{NoSync: true, SnapshotEvery: 3}, // snapshots interleave with the ops
	} {
		dir := t.TempDir()
		pe, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		removed := populate(t, pe)
		want := matchAllSorted(t, pe.Engine)
		wantSubs := pe.Subscriptions()
		if err := pe.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		pe2, err := Open(dir, cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := matchAllSorted(t, pe2.Engine); !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %+v: matches after restart = %v, want %v", cfg, got, want)
		}
		if got := pe2.Subscriptions(); !reflect.DeepEqual(got, wantSubs) {
			t.Fatalf("cfg %+v: subscriptions after restart = %v, want %v", cfg, got, wantSubs)
		}
		// Removed sids stay dead and are not reissued to newcomers.
		for _, sid := range removed {
			if err := pe2.Remove(sid); err == nil {
				t.Fatalf("removed sid %d came back after restart", sid)
			}
		}
		nsid, err := pe2.Add("/brand/new")
		if err != nil {
			t.Fatal(err)
		}
		if int(nsid) != len(persistExprs) {
			t.Fatalf("post-restart sid = %d, want %d", nsid, len(persistExprs))
		}
		pe2.Close()
	}
}

// TestPersistentCrashRecovery reopens from a copy of the state directory
// without any graceful shutdown: recovery must come entirely from the WAL
// (no snapshot was ever written).
func TestPersistentCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	pe, err := Open(dir, PersistentConfig{NoSync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, pe)
	want := matchAllSorted(t, pe.Engine)
	crashed := copyStateDir(t, dir)

	pe2, err := Open(crashed, PersistentConfig{NoSync: true})
	if err != nil {
		t.Fatalf("recover from crash image: %v", err)
	}
	defer pe2.Close()
	if st := pe2.StoreStats(); st.SnapshotEntries != 0 || st.ReplayedRecords == 0 {
		t.Fatalf("expected WAL-only recovery, got %+v", st)
	}
	if got := matchAllSorted(t, pe2.Engine); !reflect.DeepEqual(got, want) {
		t.Fatalf("matches after crash recovery = %v, want %v", got, want)
	}
	pe.Close()
}

// TestPersistentTornTailRecovery tears the WAL mid-record and checks the
// recovered engine matches exactly like an in-memory engine holding the
// surviving operation prefix.
func TestPersistentTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	pe, err := Open(dir, PersistentConfig{NoSync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe.AddAll(persistExprs); err != nil {
		t.Fatal(err)
	}
	crashed := copyStateDir(t, dir)
	pe.Close()

	// Tear the tail: chop 3 bytes off the last record.
	walPath := filepath.Join(crashed, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	pe2, err := Open(crashed, PersistentConfig{NoSync: true})
	if err != nil {
		t.Fatalf("recover from torn tail: %v", err)
	}
	defer pe2.Close()
	if st := pe2.StoreStats(); st.TornBytes == 0 {
		t.Fatal("expected torn bytes to be reported")
	}
	// Reference: a fresh in-memory engine with all but the torn-off last
	// expression.
	ref := New(Config{})
	if _, err := ref.AddAll(persistExprs[:len(persistExprs)-1]); err != nil {
		t.Fatal(err)
	}
	want := matchAllSorted(t, ref)
	if got := matchAllSorted(t, pe2.Engine); !reflect.DeepEqual(got, want) {
		t.Fatalf("matches after torn-tail recovery = %v, want %v", got, want)
	}
}

// TestRecoveredMatchesInMemoryEquivalent replays the recovered live set
// into a fresh in-memory engine via AddWithSID and checks snapshot/replay
// recovery produces the same matcher behaviour.
func TestRecoveredMatchesInMemoryEquivalent(t *testing.T) {
	dir := t.TempDir()
	pe, err := Open(dir, PersistentConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, pe)
	if err := pe.Snapshot(); err != nil {
		t.Fatal(err)
	}
	subs := pe.Subscriptions()
	pe.Close()

	pe2, err := Open(dir, PersistentConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pe2.Close()

	mem := New(Config{})
	for _, sub := range subs {
		if err := mem.m.AddWithSID(sub.Expression, sub.ID); err != nil {
			t.Fatalf("AddWithSID(%q, %d): %v", sub.Expression, sub.ID, err)
		}
	}
	if got, want := matchAllSorted(t, pe2.Engine), matchAllSorted(t, mem); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot recovery = %v, in-memory equivalent = %v", got, want)
	}
}

func TestSnapshotPolicies(t *testing.T) {
	dir := t.TempDir()
	pe, err := Open(dir, PersistentConfig{NoSync: true, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := pe.Add("/a/b"); err != nil {
			t.Fatal(err)
		}
	}
	st := pe.StoreStats()
	if st.Snapshots != 2 {
		t.Fatalf("size-triggered snapshots = %d, want 2 (10 ops, every 4)", st.Snapshots)
	}
	if st.WALRecords != 2 {
		t.Fatalf("WALRecords = %d, want 2", st.WALRecords)
	}
	pe.Close()

	// Periodic policy.
	pe2, err := Open(dir, PersistentConfig{NoSync: true, SnapshotEvery: -1, SnapshotInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe2.Add("/c"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pe2.StoreStats().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := pe2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedEngineRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	pe, err := Open(dir, PersistentConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sid, err := pe.Add("/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Add("/b"); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	if err := pe.Remove(sid); err == nil {
		t.Fatal("Remove after Close succeeded")
	}
	if err := pe.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Matching stays available on the in-memory engine after Close.
	sids, err := pe.Match([]byte(`<a/>`))
	if err != nil || len(sids) != 1 || sids[0] != sid {
		t.Fatalf("Match after Close = %v, %v; want [%d]", sids, err, sid)
	}
}
