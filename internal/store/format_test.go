package store

import (
	"bytes"
	"encoding/binary"
	"flag"
	"path/filepath"
	"reflect"
	"testing"
)

// The on-disk format is a contract with every state directory already
// written: testdata/ holds the four files a fixed history leaves behind,
// and a change that alters one byte of them is a format change. Rewrite
// them with -update only for a deliberate one (with new magics).

var updateFormat = flag.Bool("update", false, "rewrite the pinned store files under testdata/")

var pinnedFiles = []string{walFile, snapFile, coordWALFile, coordSnapFile}

// writePinnedHistory drives both stores in dir through every operation,
// a snapshot, and more appends after it.
func writePinnedHistory(t *testing.T, dir string) {
	t.Helper()
	s := mustOpen(t, dir)
	for _, step := range []func() error{
		func() error { return s.AppendAdd(0, "/a") },
		func() error { return s.AppendAdd(1, "/b/c") },
		func() error { return s.AppendAddAt(5, "//d[@k=v]") },
		func() error { return s.AppendRemove(1) },
		func() error { return s.AppendAdd(6, "/e//f") },
		s.Snapshot,
		func() error { return s.AppendAdd(7, "/g") },
		func() error { return s.AppendAddAt(10, "/h[@x>3]") },
		func() error { return s.AppendRemove(0) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cs := mustOpenCoord(t, dir)
	for _, step := range []func() error{
		func() error { return cs.AppendAdd(0, "shard-0", "/a") },
		func() error { return cs.AppendAdd(1, "shard-1", "/b/c") },
		func() error { return cs.AppendBurn(2, "shard-0") },
		func() error { return cs.AppendOwner(1, "shard-2") },
		func() error { return cs.AppendBurn(3, "shard-1") },
		func() error { return cs.AppendReap(2) },
		func() error { return cs.AppendRemove(0) },
		func() error { return cs.AppendAdd(4, "shard-0", "//d[@k=v]") },
		cs.Snapshot,
		func() error { return cs.AppendAdd(5, "shard-1", "/g") },
		func() error { return cs.AppendBurn(6, "shard-2") },
		func() error { return cs.AppendOwner(4, "shard-1") },
		func() error { return cs.AppendReap(3) },
		func() error { return cs.AppendRemove(1) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFormatPinnedBytes regenerates the pinned history and compares each
// file with testdata/ byte for byte.
func TestFormatPinnedBytes(t *testing.T) {
	dir := t.TempDir()
	writePinnedHistory(t, dir)
	for _, name := range pinnedFiles {
		got := readFile(t, filepath.Join(dir, name))
		golden := filepath.Join("testdata", name)
		if *updateFormat {
			writeFile(t, golden, got)
			continue
		}
		if want := readFile(t, golden); !bytes.Equal(got, want) {
			t.Errorf("%s: written bytes differ from %s:\n got  %x\n want %x", name, golden, got, want)
		}
	}
}

// TestFormatPinnedRecovery opens the checked-in files and checks the
// state they recover.
func TestFormatPinnedRecovery(t *testing.T) {
	dir := t.TempDir()
	for _, name := range pinnedFiles {
		writeFile(t, filepath.Join(dir, name), readFile(t, filepath.Join("testdata", name)))
	}
	s := mustOpen(t, dir)
	defer s.Close()
	wantEntries(t, s, []Entry{{5, "//d[@k=v]"}, {6, "/e//f"}, {7, "/g"}, {10, "/h[@x>3]"}})
	if got := s.NextSID(); got != 11 {
		t.Fatalf("NextSID = %d, want 11", got)
	}
	cs := mustOpenCoord(t, dir)
	defer cs.Close()
	want := CoordState{
		Subs:    map[uint32]CoordSub{4: {Owner: "shard-1", Expr: "//d[@k=v]"}, 5: {Owner: "shard-1", Expr: "/g"}},
		Orphans: map[uint32]string{6: "shard-2"},
		NextSID: 7,
	}
	if got := cs.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("State = %+v, want %+v", got, want)
	}
}

// TestSnapshotHeaderCounts rewrites each entry-count field of both
// snapshot headers — one lower, and so that the counts sum to zero in
// uint32 arithmetic — and expects the open to fail: the counted entries
// must consume the snapshot body exactly.
func TestSnapshotHeaderCounts(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, e := range []string{"/a", "/b", "/c"} {
		mustAdd(t, s, e)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	cs := mustOpenCoord(t, dir)
	applyCoordOp(t, cs, coordOp{op: opCoordAdd, sid: 0, owner: "shard-0", expr: "/a"})
	applyCoordOp(t, cs, coordOp{op: opCoordAdd, sid: 1, owner: "shard-1", expr: "/b"})
	applyCoordOp(t, cs, coordOp{op: opCoordBurn, sid: 2, owner: "shard-1"})
	if err := cs.Snapshot(); err != nil {
		t.Fatal(err)
	}
	cs.Close()

	for _, tc := range []struct {
		file, magic string
		fields      int // count fields after the magic
		open        func() error
	}{
		{snapFile, snapMagic, 1, func() error {
			s, err := Open(dir, Options{NoSync: true})
			if err == nil {
				s.Close()
			}
			return err
		}},
		{coordSnapFile, coordSnapMagic, 2, func() error {
			cs, err := OpenCoord(dir, Options{NoSync: true})
			if err == nil {
				cs.Close()
			}
			return err
		}},
	} {
		path := filepath.Join(dir, tc.file)
		raw := readFile(t, path)
		var total uint32
		for f := 0; f < tc.fields; f++ {
			total += binary.LittleEndian.Uint32(raw[len(tc.magic)+4*f:])
		}
		for f := 0; f < tc.fields; f++ {
			at := len(tc.magic) + 4*f
			count := binary.LittleEndian.Uint32(raw[at:])
			for _, bad := range []struct {
				name  string
				count uint32
			}{
				{"one lower", count - 1},
				{"sum wrapped to zero", count - total},
			} {
				mut := append([]byte(nil), raw...)
				binary.LittleEndian.PutUint32(mut[at:], bad.count)
				writeFile(t, path, mut)
				if err := tc.open(); err == nil {
					t.Errorf("%s count field %d %s (%d → %d): open accepted the snapshot", tc.file, f, bad.name, count, bad.count)
				}
			}
		}
		writeFile(t, path, raw)
		if err := tc.open(); err != nil {
			t.Fatalf("%s: undamaged snapshot rejected: %v", tc.file, err)
		}
	}
}
