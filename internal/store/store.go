package store

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The subscription schema. WAL record payloads:
//
//	'A' [4]sid [n]expression   — add sid with canonical expression
//	'R' [4]sid                 — remove sid
//
// The snapshot has one section, one entry per live subscription, payload
// [4]sid [n]expression. Replay adds only an absent sid and removes only
// a present one: after a crash between snapshot and WAL truncation the
// WAL still holds records the snapshot already holds, and since sids are
// unique and never reassigned, "already live" can only mean "already
// applied".

// ErrStaleCursor reports a WAL-shipping cursor that no longer identifies
// a position in the live log: the epoch moved on (a snapshot compacted
// the log), the offset is past the tail, or the offset does not fall on a
// record boundary. The reader must resync from a full snapshot
// (ShipSnapshot) instead of tailing.
var ErrStaleCursor = errors.New("store: wal cursor is stale; resync from snapshot")

// The subscription files in a state directory, their magics, and the
// record ops.
const (
	walFile   = "wal.log"
	snapFile  = "snapshot.snap"
	walMagic  = "XFWAL001"
	snapMagic = "XFSNAP01"

	opAdd    = 'A'
	opRemove = 'R'
)

var subFormat = format{wal: walFile, walMagic: walMagic, snap: snapFile, snapMagic: snapMagic, sections: 1}

// Entry is one live subscription in the store.
type Entry struct {
	SID  uint32
	Expr string
}

// Rec is one WAL operation, as replayed and as surfaced to WAL-shipping
// readers: either the addition of SID under Expr, or (Remove set) the
// removal of SID.
type Rec struct {
	Remove bool
	SID    uint32
	Expr   string
}

// Store is a durable subscription store rooted at one state directory.
// It is safe for concurrent use.
type Store struct {
	log[Rec]
	live map[uint32]string
}

// Open opens (creating if necessary) the store in dir and recovers its
// state: the latest snapshot is loaded, the WAL is replayed over it, and
// any torn WAL tail is truncated at the first corrupt record.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{live: make(map[uint32]string)}
	if err := s.open(dir, opts, subFormat, s); err != nil {
		return nil, err
	}
	return s, nil
}

func (*Store) decode(p []byte) (Rec, bool) {
	if len(p) < 5 {
		return Rec{}, false
	}
	r := Rec{SID: binary.LittleEndian.Uint32(p[1:5])}
	switch p[0] {
	case opAdd:
		r.Expr = string(p[5:])
	case opRemove:
		r.Remove = true
		if len(p) != 5 {
			return Rec{}, false
		}
	default:
		return Rec{}, false
	}
	return r, true
}

func (*Store) encode(buf []byte, r Rec) []byte {
	op := byte(opAdd)
	if r.Remove {
		op = opRemove
	}
	buf = binary.LittleEndian.AppendUint32(append(buf, op), r.SID)
	return append(buf, r.Expr...)
}

func (s *Store) apply(r Rec) {
	if r.Remove {
		delete(s.live, r.SID)
		return
	}
	if _, ok := s.live[r.SID]; !ok {
		s.live[r.SID] = r.Expr
	}
	s.advance(r.SID)
}

func (s *Store) save(put func(sec int, p []byte)) {
	var p []byte
	for _, sid := range sortedKeys(s.live) {
		p = binary.LittleEndian.AppendUint32(p[:0], sid)
		put(0, append(p, s.live[sid]...))
	}
}

func (s *Store) load(_ int, p []byte) bool {
	if len(p) < 4 {
		return false
	}
	sid := binary.LittleEndian.Uint32(p)
	s.live[sid] = string(p[4:])
	s.advance(sid)
	return true
}

func (s *Store) count() (live, orphans int) { return len(s.live), 0 }

// NextSID returns the id the next AppendAdd will assign.
func (s *Store) NextSID() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// AppendAdd durably records the addition of a subscription and returns
// once it is on disk. sid must be the store's NextSID: ids are assigned by
// the store, in order, exactly once.
func (s *Store) AppendAdd(sid uint32, expr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sid != s.next {
		return fmt.Errorf("store: add sid %d out of order (next is %d)", sid, s.next)
	}
	return s.commit(Rec{SID: sid, Expr: expr})
}

// AppendRemove durably records the removal of a live subscription.
func (s *Store) AppendRemove(sid uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.live[sid]; !ok {
		return fmt.Errorf("store: remove of unknown sid %d", sid)
	}
	return s.commit(Rec{Remove: true, SID: sid})
}

// AppendAddAt durably records the addition of a subscription under a
// caller-assigned sid. It exists for cluster deployments, where sids are
// assigned globally by a coordinator and each shard's store holds a
// sparse subset of them (and for WAL-shipped standbys replaying a
// primary's log). The sid must not be live; NextSID advances past it, so
// locally assigned ids (AppendAdd) never collide with shipped ones.
func (s *Store) AppendAddAt(sid uint32, expr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.live[sid]; ok {
		return fmt.Errorf("store: add of already-live sid %d", sid)
	}
	return s.commit(Rec{SID: sid, Expr: expr})
}

// WALEpoch returns the current shipping epoch. The epoch increments on
// every snapshot compaction; a (epoch, offset) cursor from ReadFrom is
// valid exactly as long as the epoch stands.
func (s *Store) WALEpoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// ReadFrom reads the WAL records at body offset off of the given epoch
// and returns them with the cursor for the next call. It reads only the
// tail [off, size) — not the whole log — so a shipping poll is
// proportional to what changed since the last one. An empty tail returns
// (nil, off, nil).
//
// ErrStaleCursor means the cursor no longer identifies a position in the
// live log (the epoch moved on, or off is past the tail or inside a
// record); the reader must resync from ShipSnapshot. Torn-tail handling
// is unaffected: recovery truncated any tear at Open, appends under the
// store lock are atomic with respect to readers, and every record
// returned here passed the same length/CRC/payload checks replay uses.
func (s *Store) ReadFrom(epoch, off int64) ([]Rec, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, errClosed
	}
	size := s.bodySize()
	if epoch != s.epoch || off < 0 || off > size {
		return nil, 0, ErrStaleCursor
	}
	if off == size {
		return nil, off, nil
	}
	data := make([]byte, size-off)
	if _, err := s.f.ReadAt(data, int64(len(walMagic))+off); err != nil {
		return nil, 0, err
	}
	var out []Rec
	valid := scan(data, func(p []byte) bool {
		r, ok := s.decode(p)
		if ok {
			out = append(out, r)
		}
		return ok
	})
	if valid != len(data) {
		// The acknowledged body is intact by construction, so a scan that
		// stops early can only mean off was not a record boundary.
		return nil, 0, ErrStaleCursor
	}
	return out, off + int64(valid), nil
}

// ShipSnapshot returns the full live set plus the WAL cursor that
// immediately follows it, atomically: applying the entries and then
// tailing ReadFrom from (epoch, offset) reproduces every subsequent
// operation exactly once. This is the catch-up half of the WAL-shipping
// protocol.
func (s *Store) ShipSnapshot() (entries []Entry, nextSID uint32, epoch, offset int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entriesLocked(), s.next, s.epoch, s.bodySize()
}

// Entries returns the live subscriptions, ascending by sid. Ascending sid
// order is chronological registration order, so replaying Entries into a
// fresh engine reproduces the surviving registration sequence.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entriesLocked()
}

func (s *Store) entriesLocked() []Entry {
	out := make([]Entry, 0, len(s.live))
	for _, sid := range sortedKeys(s.live) {
		out = append(out, Entry{SID: sid, Expr: s.live[sid]})
	}
	return out
}

// Expr returns the expression registered under a live sid.
func (s *Store) Expr(sid uint32) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	expr, ok := s.live[sid]
	return expr, ok
}

// Dir returns the store's state directory.
func (s *Store) Dir() string { return s.dir }
