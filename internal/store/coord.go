package store

import (
	"encoding/binary"
	"fmt"
)

// The coordinator schema: the durable half of the cluster coordinator.
//
// The coordinator's authoritative state — the global SID counter, the
// sid→(owner shard, expression) routing table, and the orphan set of
// burned sids — is kept in the same kind of log as a shard's
// subscriptions, so a kill -9'd coordinator reopens its CoordStore and is
// fully routed again with zero shard round-trips.
//
// WAL record payloads:
//
//	'A' [4]sid [2]ownerLen [ownerLen]owner [n]expression — route sid to owner
//	'R' [4]sid                                           — remove sid
//	'B' [4]sid [n]shard                                  — burn sid as orphan on shard
//	'P' [4]sid                                           — reap (clear) an orphan
//	'O' [4]sid [n]owner                                  — re-route sid (migration)
//
// The snapshot has two sections: one 'A' record per routed subscription,
// then one 'B' record per orphan. Replay overwrites: an add or burn sets
// its entry, a remove/reap of an unknown sid is a no-op, and the SID
// counter only ever advances, so records that survive a crash between
// snapshot and WAL truncation converge to the same state.

const (
	coordWALMagic  = "XFCWAL01"
	coordSnapMagic = "XFCSNP01"

	coordWALFile  = "coord.wal"
	coordSnapFile = "coord.snap"

	opCoordAdd    = 'A'
	opCoordRemove = 'R'
	opCoordBurn   = 'B'
	opCoordReap   = 'P'
	opCoordOwner  = 'O'
)

var coordFormat = format{wal: coordWALFile, walMagic: coordWALMagic, snap: coordSnapFile, snapMagic: coordSnapMagic, sections: 2}

// CoordSub is one routed subscription: the shard that holds it and the
// expression as the coordinator accepted it.
type CoordSub struct {
	Owner string
	Expr  string
}

// CoordState is a copy of the coordinator store's recovered state.
type CoordState struct {
	// Subs maps each live sid to its owning shard and expression.
	Subs map[uint32]CoordSub
	// Orphans maps each burned sid to the shard that may still hold an
	// unrecorded copy of it.
	Orphans map[uint32]string
	// NextSID is the next subscription id the coordinator will assign.
	NextSID uint32
}

// coordRec is one decoded coordinator WAL operation.
type coordRec struct {
	op    byte
	sid   uint32
	owner string // add, owner, burn (shard name)
	expr  string // add
}

// CoordStore is the coordinator's durable routing state, rooted in the
// same kind of state directory as a Store (the file names do not
// collide, so a coordinator that is also a shard could share one — they
// normally do not). Safe for concurrent use.
type CoordStore struct {
	log[coordRec]
	subs    map[uint32]CoordSub
	orphans map[uint32]string
}

// OpenCoord opens (creating if necessary) the coordinator store in dir
// and recovers its state: snapshot load, WAL replay, torn tail truncated
// at the first corrupt record.
func OpenCoord(dir string, opts Options) (*CoordStore, error) {
	cs := &CoordStore{subs: make(map[uint32]CoordSub), orphans: make(map[uint32]string)}
	if err := cs.open(dir, opts, coordFormat, cs); err != nil {
		return nil, err
	}
	return cs, nil
}

func (*CoordStore) decode(p []byte) (coordRec, bool) {
	if len(p) < 5 {
		return coordRec{}, false
	}
	r := coordRec{op: p[0], sid: binary.LittleEndian.Uint32(p[1:5])}
	rest := p[5:]
	switch r.op {
	case opCoordAdd:
		if len(rest) < 2 {
			return coordRec{}, false
		}
		ol := int(binary.LittleEndian.Uint16(rest))
		if ol == 0 || len(rest)-2 < ol {
			return coordRec{}, false
		}
		r.owner = string(rest[2 : 2+ol])
		r.expr = string(rest[2+ol:])
	case opCoordRemove, opCoordReap:
		if len(rest) != 0 {
			return coordRec{}, false
		}
	case opCoordBurn, opCoordOwner:
		if len(rest) == 0 {
			return coordRec{}, false
		}
		r.owner = string(rest)
	default:
		return coordRec{}, false
	}
	return r, true
}

func (*CoordStore) encode(buf []byte, r coordRec) []byte {
	buf = binary.LittleEndian.AppendUint32(append(buf, r.op), r.sid)
	if r.op == opCoordAdd {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.owner)))
	}
	buf = append(buf, r.owner...)
	return append(buf, r.expr...)
}

func (cs *CoordStore) apply(r coordRec) {
	switch r.op {
	case opCoordAdd:
		cs.subs[r.sid] = CoordSub{Owner: r.owner, Expr: r.expr}
		cs.advance(r.sid)
	case opCoordRemove:
		delete(cs.subs, r.sid)
	case opCoordBurn:
		cs.orphans[r.sid] = r.owner
		cs.advance(r.sid)
	case opCoordReap:
		delete(cs.orphans, r.sid)
	case opCoordOwner:
		if sub, ok := cs.subs[r.sid]; ok {
			sub.Owner = r.owner
			cs.subs[r.sid] = sub
		}
	}
}

func (cs *CoordStore) save(put func(sec int, p []byte)) {
	var p []byte
	for _, sid := range sortedKeys(cs.subs) {
		sub := cs.subs[sid]
		p = cs.encode(p[:0], coordRec{op: opCoordAdd, sid: sid, owner: sub.Owner, expr: sub.Expr})
		put(0, p)
	}
	for _, sid := range sortedKeys(cs.orphans) {
		p = cs.encode(p[:0], coordRec{op: opCoordBurn, sid: sid, owner: cs.orphans[sid]})
		put(1, p)
	}
}

// load takes the routed section's entries as adds and the orphan
// section's as burns; an entry of the other op is damage.
func (cs *CoordStore) load(sec int, p []byte) bool {
	r, ok := cs.decode(p)
	if !ok || r.op != [2]byte{opCoordAdd, opCoordBurn}[sec] {
		return false
	}
	cs.apply(r)
	return true
}

func (cs *CoordStore) count() (live, orphans int) { return len(cs.subs), len(cs.orphans) }

// AppendAdd durably routes sid to owner under expr. sid must be the
// store's NextSID or beyond (the coordinator assigns ids in order but
// burn records can leave holes).
func (cs *CoordStore) AppendAdd(sid uint32, owner, expr string) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if owner == "" {
		return fmt.Errorf("store: add sid %d with empty owner", sid)
	}
	if len(owner) > 1<<16-1 {
		return fmt.Errorf("store: owner name of %d bytes exceeds record limit", len(owner))
	}
	if _, live := cs.subs[sid]; live {
		return fmt.Errorf("store: add of already-routed sid %d", sid)
	}
	return cs.commit(coordRec{op: opCoordAdd, sid: sid, owner: owner, expr: expr})
}

// AppendRemove durably removes a routed sid.
func (cs *CoordStore) AppendRemove(sid uint32) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, live := cs.subs[sid]; !live {
		return fmt.Errorf("store: remove of unrouted sid %d", sid)
	}
	return cs.commit(coordRec{op: opCoordRemove, sid: sid})
}

// AppendBurn durably records sid as burned: the shard may hold an
// unrecorded copy, and the SID sequence advances past it.
func (cs *CoordStore) AppendBurn(sid uint32, shard string) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if shard == "" {
		return fmt.Errorf("store: burn sid %d with empty shard", sid)
	}
	return cs.commit(coordRec{op: opCoordBurn, sid: sid, owner: shard})
}

// AppendReap durably clears a burned sid once its shard-side copy is
// confirmed gone (or gone with its shard).
func (cs *CoordStore) AppendReap(sid uint32) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, ok := cs.orphans[sid]; !ok {
		return fmt.Errorf("store: reap of unknown orphan sid %d", sid)
	}
	return cs.commit(coordRec{op: opCoordReap, sid: sid})
}

// AppendOwner durably re-routes a live sid to a new owner (migration).
func (cs *CoordStore) AppendOwner(sid uint32, owner string) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if owner == "" {
		return fmt.Errorf("store: re-route sid %d to empty owner", sid)
	}
	if _, live := cs.subs[sid]; !live {
		return fmt.Errorf("store: re-route of unrouted sid %d", sid)
	}
	return cs.commit(coordRec{op: opCoordOwner, sid: sid, owner: owner})
}

// State returns a copy of the recovered routing state.
func (cs *CoordStore) State() CoordState {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	st := CoordState{
		Subs:    make(map[uint32]CoordSub, len(cs.subs)),
		Orphans: make(map[uint32]string, len(cs.orphans)),
		NextSID: cs.next,
	}
	for sid, sub := range cs.subs {
		st.Subs[sid] = sub
	}
	for sid, shard := range cs.orphans {
		st.Orphans[sid] = shard
	}
	return st
}
