package store

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzLogHistory decodes its input into a history over both kinds of
// store sharing one state directory — valid and rejected appends of every
// operation, snapshots, close and reopen, a crash that tears the WAL at
// byte k, and a crash between snapshot rename and WAL reset, of an
// explicit snapshot or of a compaction an append started — and checks
// what each store reports against a model after every step.
//
// The model keeps what the files hold: the state as of the last snapshot,
// that snapshot's size, and the records appended since, with the WAL size
// after each. A store's state is the snapshot with those records replayed
// over it, so a tear at byte k keeps exactly the records that end at or
// before k. An append that takes the WAL body to max(compactFloor, the
// snapshot's size) compacts: its state becomes the snapshot.

var (
	// The last expression makes any add payload exceed the record limit.
	fuzzExprs  = []string{"/a", "/b/c", "//d[@k=v]", "", "/e//f[@x>3]", strings.Repeat("x", maxRecord)}
	fuzzOwners = []string{"", "s0", "shard-1", "s2"}
	// bigExpr is the largest expression an add of either kind takes, so
	// two of them cross compactFloor.
	bigExpr = strings.Repeat("y", maxRecord-16)
)

// histOp is one record of either kind. The two kinds share the op bytes
// of add ('A') and remove ('R').
type histOp struct {
	op          byte
	sid         uint32
	owner, expr string
	next        bool  // a subscription add through AppendAdd, not AppendAddAt
	walEnd      int64 // WAL file size once the record is on disk
}

// histModel is one kind's files, as the model sees them. The
// subscription kind keeps its live set in Subs, with empty owners.
type histModel struct {
	coord    bool
	snap     CoordState
	snapSize int64
	wal      []histOp
}

func emptyState() CoordState {
	return CoordState{Subs: map[uint32]CoordSub{}, Orphans: map[uint32]string{}}
}

// state replays the WAL records over the snapshot with each kind's rule:
// a subscription add keeps an already-live sid, a coordinator add
// overwrites it, and adds and burns advance the next sid.
func (m *histModel) state() CoordState {
	st := emptyState()
	st.NextSID = m.snap.NextSID
	for sid, sub := range m.snap.Subs {
		st.Subs[sid] = sub
	}
	for sid, shard := range m.snap.Orphans {
		st.Orphans[sid] = shard
	}
	for _, o := range m.wal {
		switch o.op {
		case opAdd:
			if _, live := st.Subs[o.sid]; m.coord || !live {
				st.Subs[o.sid] = CoordSub{Owner: o.owner, Expr: o.expr}
			}
		case opRemove:
			delete(st.Subs, o.sid)
		case opCoordBurn:
			st.Orphans[o.sid] = o.owner
		case opCoordReap:
			delete(st.Orphans, o.sid)
		case opCoordOwner:
			if sub, ok := st.Subs[o.sid]; ok {
				sub.Owner = o.owner
				st.Subs[o.sid] = sub
			}
		}
		if (o.op == opAdd || o.op == opCoordBurn) && o.sid >= st.NextSID {
			st.NextSID = o.sid + 1
		}
	}
	return st
}

// walSize is the WAL file size: the header and the records since the
// snapshot.
func (m *histModel) walSize() int64 {
	if len(m.wal) == 0 {
		return int64(len(walMagic)) // both kinds' magics are 8 bytes
	}
	return m.wal[len(m.wal)-1].walEnd
}

// push records an accepted append whose frame is n bytes and reports
// whether it starts a compaction.
func (m *histModel) push(o histOp, n int) bool {
	o.walEnd = m.walSize() + int64(n)
	m.wal = append(m.wal, o)
	return m.walSize()-int64(len(walMagic)) >= max(compactFloor, m.snapSize)
}

// snapshot makes the state the snapshot, as a compaction's rename does;
// the caller empties the WAL, or keeps it for a crash before the reset.
func (m *histModel) snapshot() {
	m.snap = m.state()
	m.snapSize = int64(len(snapMagic)) + 4 + 4 // magic, a count, next sid
	if m.coord {
		m.snapSize += 4 // the orphan count
	}
	for _, sub := range m.snap.Subs {
		m.snapSize += frameSize + 4 + int64(len(sub.Expr))
		if m.coord {
			m.snapSize += 1 + 2 + int64(len(sub.Owner)) // op, owner length, owner
		}
	}
	for _, shard := range m.snap.Orphans {
		m.snapSize += frameSize + 5 + int64(len(shard))
	}
}

// accepts reports whether a store in state st must take o.
func (m *histModel) accepts(st CoordState, o histOp) bool {
	_, live := st.Subs[o.sid]
	_, orphan := st.Orphans[o.sid]
	switch {
	case len(o.expr) == maxRecord:
		return false
	case o.next:
		return o.sid == st.NextSID
	case o.op == opAdd:
		return !live && (!m.coord || o.owner != "")
	case o.op == opRemove:
		return live
	case o.op == opCoordBurn:
		return o.owner != ""
	case o.op == opCoordReap:
		return orphan
	default: // opCoordOwner
		return live && o.owner != ""
	}
}

// histStores holds both open stores and their models.
type histStores struct {
	t     *testing.T
	dir   string
	s     *Store
	cs    *CoordStore
	model [2]*histModel // subscription, coordinator
}

func (h *histStores) open(coord bool) {
	h.t.Helper()
	var err error
	if coord {
		h.cs, err = OpenCoord(h.dir, Options{NoSync: true})
	} else {
		h.s, err = Open(h.dir, Options{NoSync: true})
	}
	if err != nil {
		h.t.Fatalf("open (coord=%v): %v", coord, err)
	}
}

func (h *histStores) close(coord bool) {
	h.t.Helper()
	var err error
	if coord {
		err = h.cs.Close()
	} else {
		err = h.s.Close()
	}
	if err != nil {
		h.t.Fatal(err)
	}
}

func (h *histStores) snapshot(coord bool) {
	h.t.Helper()
	var err error
	if coord {
		err = h.cs.Snapshot()
	} else {
		err = h.s.Snapshot()
	}
	if err != nil {
		h.t.Fatal(err)
	}
}

func (h *histStores) walPath(coord bool) string {
	if coord {
		return filepath.Join(h.dir, coordWALFile)
	}
	return filepath.Join(h.dir, walFile)
}

func (h *histStores) readWAL(coord bool) []byte {
	h.t.Helper()
	return readFile(h.t, h.walPath(coord))
}

// frame is o's WAL frame.
func (h *histStores) frame(coord bool, o histOp) []byte {
	if coord {
		return appendFrame(nil, h.cs.encode(nil, coordRec{op: o.op, sid: o.sid, owner: o.owner, expr: o.expr}))
	}
	return appendFrame(nil, h.s.encode(nil, Rec{Remove: o.op == opRemove, SID: o.sid, Expr: o.expr}))
}

// append sends o to its store and returns the store's verdict.
func (h *histStores) append(coord bool, o histOp) error {
	switch {
	case !coord && o.op == opRemove:
		return h.s.AppendRemove(o.sid)
	case !coord && o.next:
		return h.s.AppendAdd(o.sid, o.expr)
	case !coord:
		return h.s.AppendAddAt(o.sid, o.expr)
	case o.op == opCoordAdd:
		return h.cs.AppendAdd(o.sid, o.owner, o.expr)
	case o.op == opCoordRemove:
		return h.cs.AppendRemove(o.sid)
	case o.op == opCoordBurn:
		return h.cs.AppendBurn(o.sid, o.owner)
	case o.op == opCoordReap:
		return h.cs.AppendReap(o.sid)
	default:
		return h.cs.AppendOwner(o.sid, o.owner)
	}
}

// check compares both stores' state and counters with their models.
func (h *histStores) check(step int) {
	h.t.Helper()
	for _, m := range h.model {
		want := m.state()
		got, st := emptyState(), Stats{}
		if m.coord {
			got, st = h.cs.State(), h.cs.Stats()
		} else {
			for _, e := range h.s.Entries() {
				got.Subs[e.SID] = CoordSub{Expr: e.Expr}
			}
			got.NextSID, st = h.s.NextSID(), h.s.Stats()
		}
		if !reflect.DeepEqual(got, want) {
			h.t.Fatalf("step %d (coord=%v): state %+v, model %+v", step, m.coord, got, want)
		}
		if st.Live != len(want.Subs) || st.Orphans != len(want.Orphans) || st.NextSID != want.NextSID ||
			st.WALRecords != int64(len(m.wal)) || st.WALBytes != m.walSize()-int64(len(walMagic)) {
			h.t.Fatalf("step %d (coord=%v): stats %+v, model %+v with %d WAL records in %d bytes",
				step, m.coord, st, want, len(m.wal), m.walSize())
		}
	}
}

// histAppend decodes an append of the given kind from what and arg; what 5
// is an add of bigExpr.
func histAppend(coord bool, what, arg byte, st CoordState) histOp {
	o := histOp{sid: uint32(arg>>4) % 12}
	if coord {
		o.op = []byte{opCoordAdd, opCoordRemove, opCoordBurn, opCoordReap, opCoordOwner, opCoordAdd}[what]
	} else {
		o.op = []byte{opAdd, opAdd, opAdd, opRemove, opRemove, opAdd}[what]
		o.next = what < 2
		if o.next && arg&1 == 0 {
			o.sid = st.NextSID
		}
	}
	switch {
	case what == 5:
		o.expr = bigExpr
	case o.op == opAdd:
		o.expr = fuzzExprs[int(arg)%len(fuzzExprs)]
	}
	if coord && o.op != opCoordRemove && o.op != opCoordReap {
		o.owner = fuzzOwners[int(arg>>2)%len(fuzzOwners)]
	}
	return o
}

func FuzzLogHistory(f *testing.F) {
	// Each step is three bytes: kind (low bit: coordinator), what (mod
	// 10: 0–5 append, 6 snapshot, 7 close/reopen, 8 tear at byte k, 9
	// crash between snapshot rename and WAL reset — of Snapshot when the
	// argument is 0, else of the compaction a bigExpr add starts),
	// argument.
	f.Add([]byte{0, 0, 0, 0, 0, 16, 0, 2, 32, 0, 3, 0, 0, 6, 0, 0, 0, 1, 0, 8, 30})
	f.Add([]byte{1, 0, 4, 1, 0, 21, 1, 2, 36, 1, 4, 24, 1, 3, 36, 1, 1, 0, 1, 6, 0, 1, 0, 52, 1, 8, 40, 1, 7, 0})
	f.Add([]byte{0, 0, 0, 0, 5, 32, 0, 0, 0, 0, 9, 0, 0, 8, 23, 0, 0, 1, 0, 7, 0, 0, 3, 16})
	f.Add([]byte{1, 0, 4, 1, 2, 20, 1, 9, 0, 1, 8, 50, 1, 5, 5, 1, 4, 16, 1, 2, 0, 1, 3, 16, 1, 6, 0, 1, 7, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 4, 0, 0, 0, 1, 2, 20, 0, 6, 0, 1, 6, 0, 0, 3, 0, 1, 1, 0, 0, 9, 0, 1, 9, 0, 0, 8, 9, 1, 8, 9})
	// A tear inside the second record, an append after it, a reopen, and
	// an add over the record limit.
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 8, 40, 0, 0, 4, 0, 7, 0, 0, 2, 53})
	// Both kinds: re-add a removed sid inside the snapshot crash window,
	// then tear the WAL so only the first add replays over the snapshot —
	// kept as live by the subscription rule, overwritten by the
	// coordinator's.
	f.Add([]byte{0, 0, 0, 0, 9, 0, 0, 3, 0, 0, 2, 1, 0, 9, 0, 0, 8, 30})
	f.Add([]byte{1, 0, 4, 1, 9, 0, 1, 1, 0, 1, 0, 9, 1, 9, 0, 1, 8, 40})
	// Each kind crosses the floor twice, the second time in a compaction
	// that crashes between its rename and its WAL reset. Two subscription
	// bigExpr adds compact, both are removed, and two more reach the
	// threshold the 2 MiB snapshot set; one coordinator bigExpr add
	// compacts, and after a remove and a burn a second one crosses again.
	// A reopen, a compaction it left due, and a tear follow.
	f.Add([]byte{0, 5, 0, 0, 5, 16, 0, 3, 0, 0, 4, 16, 0, 5, 32, 0, 9, 48, 0, 7, 0, 0, 3, 32, 0, 8, 200})
	f.Add([]byte{1, 5, 4, 1, 1, 0, 1, 2, 20, 1, 9, 36, 1, 7, 0, 1, 3, 16, 1, 8, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 300 {
			return
		}
		h := &histStores{t: t, dir: t.TempDir(), model: [2]*histModel{{snap: emptyState()}, {coord: true, snap: emptyState()}}}
		h.open(false)
		h.open(true)
		defer func() {
			h.s.Close()
			h.cs.Close()
		}()
		for step := 0; len(data) >= 3; step++ {
			coord, what, arg := data[0]&1 == 1, data[1]%10, data[2]
			data = data[3:]
			m := h.model[0]
			if coord {
				m = h.model[1]
			}
			switch what {
			case 0, 1, 2, 3, 4, 5: // an append, valid or rejected
				st := m.state()
				o := histAppend(coord, what, arg, st)
				err := h.append(coord, o)
				if want := m.accepts(st, o); (err == nil) != want {
					t.Fatalf("step %d: append %q sid %d owner %q, %d-byte expression (coord=%v) returned %v, model accepts=%v",
						step, o.op, o.sid, o.owner, len(o.expr), coord, err, want)
				}
				if err == nil && m.push(o, len(h.frame(coord, o))) {
					m.snapshot()
					m.wal = nil
				}
			case 6:
				h.snapshot(coord)
				m.snapshot()
				m.wal = nil
			case 7: // close, an append the closed store must refuse, reopen
				h.close(coord)
				if err := h.append(coord, histOp{op: opCoordBurn, owner: "s0", sid: m.state().NextSID, next: true}); err == nil {
					t.Fatalf("step %d: a closed store (coord=%v) took an append", step, coord)
				}
				h.open(coord)
			case 8: // a crash leaves the WAL cut at byte k
				h.close(coord)
				raw := h.readWAL(coord)
				k := int64(arg) % int64(len(raw)+1)
				writeFile(t, h.walPath(coord), raw[:k])
				keep := 0
				for keep < len(m.wal) && m.wal[keep].walEnd <= k {
					keep++
				}
				m.wal = m.wal[:keep]
				h.open(coord)
			case 9: // a crash after the snapshot rename, before the WAL reset
				pre := h.readWAL(coord)
				if arg == 0 {
					h.snapshot(coord)
				} else {
					st := m.state()
					o := histAppend(coord, 5, arg, st)
					err := h.append(coord, o)
					if want := m.accepts(st, o); (err == nil) != want {
						t.Fatalf("step %d: bigExpr add sid %d owner %q (coord=%v) returned %v, model accepts=%v",
							step, o.sid, o.owner, coord, err, want)
					}
					if err != nil {
						break
					}
					frame := h.frame(coord, o)
					if !m.push(o, len(frame)) {
						break // no compaction to crash in
					}
					pre = append(pre, frame...)
				}
				h.close(coord)
				writeFile(t, h.walPath(coord), pre)
				m.snapshot() // and the records stay in the WAL
				h.open(coord)
			}
			h.check(step)
		}
	})
}
