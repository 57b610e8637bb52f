package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compactCheck follows one store through a long run of appends and
// checks the compaction rule after each.
type compactCheck struct {
	t        *testing.T
	stats    func() Stats
	snapPath string

	snapshots int64 // snapshots seen so far
	last      int64 // size of the last snapshot written
	written   int64 // total size of the snapshots written
	appended  int64 // frame bytes appended
}

// after checks the store once an append of a frame bytes returned: the WAL
// body is below max(compactFloor, last snapshot size) plus that frame, and
// any snapshot the append wrote is added to the total.
func (c *compactCheck) after(frame int) {
	c.t.Helper()
	st := c.stats()
	c.appended += int64(frame)
	if st.Snapshots != c.snapshots {
		if st.Snapshots != c.snapshots+1 {
			c.t.Fatalf("one append wrote %d snapshots", st.Snapshots-c.snapshots)
		}
		fi, err := os.Stat(c.snapPath)
		if err != nil {
			c.t.Fatal(err)
		}
		c.snapshots, c.last = st.Snapshots, fi.Size()
		c.written += c.last
	}
	if bound := max(compactFloor, c.last) + int64(frame); st.WALBytes >= bound {
		c.t.Fatalf("after %d appended bytes: WAL body %d, want below %d", c.appended, st.WALBytes, bound)
	}
	if st.CompactFailures != 0 {
		c.t.Fatalf("%d failed compactions", st.CompactFailures)
	}
}

// done checks the whole run: the floor was crossed at least minSnaps
// times, and the snapshots written add up to at most twice the final one
// plus the floor, so the compaction work is linear in the appends.
func (c *compactCheck) done(minSnaps int64) {
	c.t.Helper()
	c.t.Logf("%d appended bytes, %d snapshots of %d bytes in all, the last %d", c.appended, c.snapshots, c.written, c.last)
	if c.snapshots < minSnaps {
		c.t.Fatalf("%d appended bytes compacted %d times, want at least %d", c.appended, c.snapshots, minSnaps)
	}
	if bound := 2*c.last + compactFloor; c.written > bound {
		c.t.Fatalf("%d snapshots wrote %d bytes in all, over 2 × %d (the final one) + %d",
			c.snapshots, c.written, c.last, compactFloor)
	}
}

func seqExpr(i int) string { return fmt.Sprintf("/feed/item%d/title[@lang=en%d]", i, i%7) }

// TestCompactionBound appends several times the floor to each kind and
// checks the compaction rule after every append. The subscription store
// grows under adds and removes; the coordinator store, after its adds,
// takes only owner, burn and reap records, which compact the same way.
func TestCompactionBound(t *testing.T) {
	t.Run("subscriptions", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		defer s.Close()
		c := &compactCheck{t: t, stats: s.Stats, snapPath: filepath.Join(dir, snapFile)}
		var live []uint32
		for i := 0; c.appended < 5*compactFloor; i++ {
			if i%5 == 4 {
				sid := live[i%len(live)]
				live[i%len(live)] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := s.AppendRemove(sid); err != nil {
					t.Fatal(err)
				}
				c.after(frameSize + 5)
				continue
			}
			expr := seqExpr(i)
			live = append(live, mustAdd(t, s, expr))
			c.after(frameSize + 5 + len(expr))
		}
		c.done(3)
	})
	t.Run("coordinator", func(t *testing.T) {
		dir := t.TempDir()
		cs := mustOpenCoord(t, dir)
		defer cs.Close()
		c := &compactCheck{t: t, stats: cs.Stats, snapPath: filepath.Join(dir, coordSnapFile)}
		const routed = 2000
		owner := func(i int) string { return fmt.Sprintf("shard-%d", i%4) }
		for sid := uint32(0); sid < routed; sid++ {
			expr := seqExpr(int(sid))
			if err := cs.AppendAdd(sid, owner(int(sid)), expr); err != nil {
				t.Fatal(err)
			}
			c.after(frameSize + 7 + len(owner(0)) + len(expr))
		}
		next := uint32(routed)
		for i := 0; c.appended < 4*compactFloor; i++ {
			var err error
			frame := frameSize + 5
			switch i % 3 {
			case 0:
				err = cs.AppendOwner(uint32(i%routed), owner(i+1))
				frame += len(owner(0))
			case 1:
				err = cs.AppendBurn(next, owner(i))
				frame += len(owner(0))
			case 2:
				err = cs.AppendReap(next)
				next++
			}
			if err != nil {
				t.Fatal(err)
			}
			c.after(frame)
		}
		c.done(3)
	})
}

// TestCompactFailureKeepsAppends makes every compaction fail — a directory
// sits where the snapshot goes, so the rename fails even for root — and
// appends past the floor: each append must succeed and count its failed
// compaction, and a reopen must bring every record back. The first
// append after that reopen retries the compaction, and it succeeds.
func TestCompactFailureKeepsAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	snap := filepath.Join(dir, snapFile)
	if err := os.Mkdir(snap, 0o755); err != nil {
		t.Fatal(err)
	}
	var want []Entry
	over := 0 // appends that ended with the WAL over the floor
	for over < 10 {
		expr := seqExpr(len(want)) + strings.Repeat("x", 1000)
		want = append(want, Entry{SID: mustAdd(t, s, expr), Expr: expr})
		if s.Stats().WALBytes >= compactFloor {
			over++
		}
	}
	if st := s.Stats(); st.CompactFailures != int64(over) || st.Snapshots != 0 {
		t.Fatalf("%d appends over the floor: %d failed compactions and %d snapshots, want %d and 0",
			over, st.CompactFailures, st.Snapshots, over)
	}
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir)
	wantEntries(t, s, want)
	expr := seqExpr(len(want))
	want = append(want, Entry{SID: mustAdd(t, s, expr), Expr: expr})
	if st := s.Stats(); st.Snapshots != 1 || st.WALBytes != 0 || st.CompactFailures != 0 {
		t.Fatalf("append after reopen: %+v, want one snapshot and an empty WAL", st)
	}
	s.Close()
	s = mustOpen(t, dir)
	defer s.Close()
	wantEntries(t, s, want)
}
