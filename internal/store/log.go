// Package store keeps the engine's durable state: the subscription set a
// filtering engine serves (Store) and a cluster coordinator's routing
// table (CoordStore). Both are one log — an append-only,
// CRC32-C-checksummed write-ahead log plus an atomically replaced
// snapshot that compacts it — over two record schemas.
//
// The store exists to split the engine's lifecycle into a slow build phase
// and a fast, restartable serving phase: subscriptions survive process
// restarts, and recovery is a snapshot load plus a WAL replay instead of a
// full re-registration of the workload.
//
// Durability contract, for both kinds:
//
//   - Every acknowledged append is on disk (fsynced unless
//     Options.NoSync) before the call returns. An append that reaches the
//     compaction threshold (below) also compacts the log, but a failed
//     compaction never fails the append: the record is already durable,
//     the failure is counted in Stats.CompactFailures, and the next
//     append retries it.
//   - A crash at any point leaves at most a torn WAL tail; recovery
//     truncates the tail at the first corrupt record and keeps every
//     acknowledged operation before it.
//   - Snapshot replaces the snapshot file atomically (temp file + rename)
//     and only then truncates the WAL. A crash between the two leaves old
//     WAL records that replay idempotently over the new snapshot (each
//     schema's apply makes sure of that), and sids are never reissued,
//     so replay converges to the same state.
//   - A snapshot that fails validation is a hard error, never a partial
//     load.
//
// The log alone decides when to compact: after each append, once the WAL
// body is at least max(compactFloor, the size of the last snapshot written
// or loaded). Each compaction then writes at most about twice the WAL
// bytes appended since the previous one, so the snapshot work for n
// operations is O(n), and a reopen replays at most about one snapshot's
// worth of WAL. Snapshot compacts on demand as well.
//
// SID assignment is owned by the store: the next sid is strictly monotone,
// persisted in the snapshot, and advanced by replay, so a subscription id
// handed to a client remains valid — and is never reassigned to someone
// else — across any number of restarts.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"predfilter/internal/metrics"
)

// File layouts, shared by both kinds (the magics differ per kind):
//
//	WAL       [8] magic, then one frame per record
//	snapshot  [8] magic, [4] uint32 LE entry count per section,
//	          [4] uint32 LE next sid, then one frame per entry,
//	          section by section, ascending by sid within a section
//	frame     [4] uint32 LE payload length, [4] uint32 LE CRC32-C of the
//	          payload, [n] payload
//
// The next sid in the snapshot header preserves sid monotonicity across
// compaction: the highest assigned sid may belong to a removed,
// compacted-away subscription, and must never be reissued.
const (
	// maxRecord bounds a record payload; a larger length prefix cannot be a
	// real record and is treated as corruption.
	maxRecord = 1 << 20
	frameSize = 8 // length + checksum

	// compactFloor is the WAL body size below which the log never
	// compacts on its own, however small its snapshot: it keeps a small
	// store from rewriting its snapshot on every few appends.
	compactFloor = 1 << 20
	// compactRatio is the WAL body size, in units of the last snapshot's
	// size, at which an append compacts a log past compactFloor.
	compactRatio = 1
)

// castagnoli is the CRC32-C table (hardware-accelerated on most targets).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errClosed = errors.New("store: closed")

// Options configures a Store or a CoordStore.
type Options struct {
	// NoSync disables fsync on WAL appends and snapshot writes. The store
	// then survives process crashes (the page cache keeps the writes) but
	// not OS crashes or power loss. Intended for tests and benchmarks.
	NoSync bool
	// Metrics, when non-nil, receives WAL-append and snapshot latency
	// observations (the store histograms of internal/metrics).
	Metrics *metrics.Set
}

// Stats counts store activity. Recovery fields describe the last open;
// the remaining counters accumulate over the handle's lifetime. The JSON
// names are the keys of the coordinator's /stats "store" object; the
// shard server names its own keys per field.
type Stats struct {
	// Live is the number of live (routed) subscriptions.
	Live int `json:"live"`
	// Orphans is the number of burned sids awaiting reap (CoordStore only).
	Orphans int `json:"orphans"`
	// NextSID is the next subscription id to be assigned.
	NextSID uint32 `json:"next_sid"`
	// SnapshotEntries is the number of entries loaded from the snapshot at
	// open.
	SnapshotEntries int `json:"snapshot_entries"`
	// ReplayedRecords is the number of intact WAL records replayed at open.
	ReplayedRecords int `json:"replayed_records"`
	// TornBytes is the number of torn-tail bytes truncated at open.
	TornBytes int64 `json:"torn_bytes"`
	// WALRecords is the number of records currently in the WAL (since the
	// last snapshot), including replayed ones.
	WALRecords int64 `json:"wal_records"`
	// WALBytes is the WAL body size in bytes (header excluded).
	WALBytes int64 `json:"-"`
	// Appends is the number of records appended through this handle.
	Appends int64 `json:"appends"`
	// Snapshots is the number of snapshots written through this handle.
	Snapshots int64 `json:"snapshots"`
	// CompactFailures is the number of compactions an append started that
	// failed; the append itself succeeded, and the next one retried.
	CompactFailures int64 `json:"compact_failures"`
	// LastSnapshot is the wall-clock time of the last snapshot written
	// through this handle (zero if none).
	LastSnapshot time.Time `json:"-"`
}

// format names a kind's two files and their magics, and counts the
// sections of its snapshot.
type format struct {
	wal, walMagic   string
	snap, snapMagic string
	sections        int
}

// schema is what one kind of state supplies to its log: the meaning of
// its WAL records (of type R) and of its snapshot entries. The log calls
// it with its lock held.
type schema[R any] interface {
	// decode parses one WAL payload; false marks the frame as torn.
	decode(p []byte) (R, bool)
	// encode appends r's WAL payload to buf.
	encode(buf []byte, r R) []byte
	// apply folds one record into the state, on replay and after every
	// acknowledged append. Replay may repeat records a snapshot already
	// holds, so replaying them over it must converge to the same state.
	apply(r R)
	// save hands each snapshot entry payload to put, section by section.
	save(put func(sec int, p []byte))
	// load folds an entry of snapshot section sec into the state; false
	// marks it as damaged.
	load(sec int, p []byte) bool
	// count reports the live subscriptions and orphans, for Stats.
	count() (live, orphans int)
}

// log is the durable-state machinery both kinds share: it owns the WAL
// file and the snapshot file, and leaves what a record means to its
// schema. Store and CoordStore embed it; its exported methods are theirs.
type log[R any] struct {
	dir    string
	opts   Options
	format format
	schema schema[R]

	mu      sync.Mutex
	f       *os.File
	end     int64  // WAL file size; appends go here
	payload []byte // reused by every append
	frame   []byte // reused by every append
	next    uint32 // next subscription id; see advance
	closed  bool

	// snapSize is the size of the last snapshot written or loaded (0 if
	// none): the input to the compaction threshold.
	snapSize int64

	// epoch counts WAL resets (snapshot compactions) since open. Within
	// one epoch the WAL body is append-only, so (epoch, byte offset) is a
	// stable shipping cursor; a reset invalidates every outstanding cursor.
	epoch int64

	walRecords int64
	stats      Stats
}

// open opens (creating if necessary) the log in dir and recovers its
// state: the snapshot is loaded, the WAL replayed over it, and any torn
// WAL tail truncated at the first corrupt record.
func (l *log[R]) open(dir string, opts Options, fm format, s schema[R]) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.dir, l.opts, l.format, l.schema = dir, opts, fm, s
	if err := l.loadSnapshot(); err != nil {
		return err
	}
	path := filepath.Join(dir, fm.wal)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	data, err := os.ReadFile(path)
	if err == nil {
		err = l.replay(path, data)
	}
	if err != nil {
		f.Close()
	}
	return err
}

// replay folds the WAL contents data into the state and truncates the
// file after the last intact record. Appends are sequential, so the only
// damage a crash can leave is a torn tail: a record whose frame, checksum
// or payload was not written completely. A file whose magic is wrong is
// rejected, never reset.
func (l *log[R]) replay(path string, data []byte) error {
	magic := l.format.walMagic
	switch {
	case len(data) < len(magic):
		// A fresh log, or a tear inside the header itself (a crash during
		// the very first write): no record can have been acknowledged.
		l.stats.TornBytes = int64(len(data))
		return l.reset()
	case string(data[:len(magic)]) != magic:
		return fmt.Errorf("store: %s: not a %s WAL (bad magic)", path, magic)
	}
	body := data[len(magic):]
	valid := scan(body, func(p []byte) bool {
		r, ok := l.schema.decode(p)
		if ok {
			l.schema.apply(r)
			l.walRecords++
		}
		return ok
	})
	l.end = int64(len(magic) + valid)
	l.stats.ReplayedRecords = int(l.walRecords)
	if valid == len(body) {
		return nil
	}
	l.stats.TornBytes = int64(len(body) - valid)
	if err := l.f.Truncate(l.end); err != nil {
		return err
	}
	return l.fsync()
}

// scan walks the frames in data, handing each intact payload to each. It
// stops at the first frame that is short, claims an implausible length,
// fails its checksum, or that each rejects, and returns that frame's
// offset: len(data) when every frame passed.
func scan(data []byte, each func(p []byte) bool) int {
	off := 0
	for len(data)-off >= frameSize {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > maxRecord || len(data)-off-frameSize < n {
			break
		}
		p := data[off+frameSize : off+frameSize+n]
		if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) || !each(p) {
			break
		}
		off += frameSize + n
	}
	return off
}

// appendFrame frames payload into buf: length, CRC32-C, payload.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// commit durably appends r and folds it into the state. Callers hold
// l.mu and have checked r against the state.
func (l *log[R]) commit(r R) error {
	if l.closed {
		return errClosed
	}
	l.payload = l.schema.encode(l.payload[:0], r)
	if len(l.payload) > maxRecord {
		return fmt.Errorf("store: record of %d bytes exceeds the %d-byte limit", len(l.payload), maxRecord)
	}
	l.frame = appendFrame(l.frame[:0], l.payload)
	t0 := time.Now()
	if _, err := l.f.WriteAt(l.frame, l.end); err != nil {
		return err
	}
	l.end += int64(len(l.frame))
	if err := l.fsync(); err != nil {
		return err
	}
	l.opts.Metrics.ObserveWALAppend(time.Since(t0))
	l.schema.apply(r)
	l.walRecords++
	l.stats.Appends++
	// The record is acknowledged whatever the compaction does: a failure
	// leaves the WAL whole and over the threshold, so the next append
	// tries again.
	if l.bodySize() >= max(compactFloor, compactRatio*l.snapSize) {
		if err := l.compact(); err != nil {
			l.stats.CompactFailures++
		}
	}
	return nil
}

// advance moves the next sid past sid; schemas call it from apply and
// load for every record that assigns one.
func (l *log[R]) advance(sid uint32) {
	if sid >= l.next {
		l.next = sid + 1
	}
}

// reset empties the WAL back to a bare header. The header is written
// before the body goes, so a failure at either step leaves a WAL that
// still opens, and l.end still matches it until the truncate succeeds.
func (l *log[R]) reset() error {
	if _, err := l.f.WriteAt([]byte(l.format.walMagic), 0); err != nil {
		return err
	}
	if err := l.f.Truncate(int64(len(l.format.walMagic))); err != nil {
		return err
	}
	l.end = int64(len(l.format.walMagic))
	return l.fsync()
}

func (l *log[R]) fsync() error {
	if l.opts.NoSync {
		return nil
	}
	return l.f.Sync()
}

// bodySize returns the WAL body size in bytes (header excluded).
func (l *log[R]) bodySize() int64 { return l.end - int64(len(l.format.walMagic)) }

// Snapshot compacts the store now, whatever the size of its WAL: it
// atomically replaces the snapshot file with the current state and then
// truncates the WAL. Restart cost after a snapshot is proportional to the
// live state, not to operation history.
func (l *log[R]) Snapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	return l.compact()
}

// compact writes a snapshot and resets the WAL. Callers hold l.mu.
func (l *log[R]) compact() error {
	t0 := time.Now()
	if err := l.writeSnapshot(); err != nil {
		return err
	}
	l.opts.Metrics.ObserveSnapshot(time.Since(t0))
	// The snapshot is durable; the WAL records it subsumes can go. A crash
	// before this truncate only means those records replay (idempotently)
	// on the next open.
	if err := l.reset(); err != nil {
		return err
	}
	l.epoch++
	l.walRecords = 0
	l.stats.Snapshots++
	l.stats.LastSnapshot = time.Now()
	return nil
}

// writeSnapshot writes the snapshot to a temporary file in the same
// directory, fsyncs it, renames it over the previous one and fsyncs the
// directory, so a crash at any point leaves one whole snapshot in place.
func (l *log[R]) writeSnapshot() error {
	fm := l.format
	hdr := len(fm.snapMagic) + 4*fm.sections + 4
	buf := make([]byte, hdr, 4096)
	counts := make([]uint32, fm.sections)
	l.schema.save(func(sec int, p []byte) {
		counts[sec]++
		buf = appendFrame(buf, p)
	})
	copy(buf, fm.snapMagic)
	for i, c := range counts {
		binary.LittleEndian.PutUint32(buf[len(fm.snapMagic)+4*i:], c)
	}
	binary.LittleEndian.PutUint32(buf[hdr-4:], l.next)

	tmp, err := os.CreateTemp(l.dir, "."+fm.snap+"-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	_, err = tmp.Write(buf)
	if err == nil && !l.opts.NoSync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(l.dir, fm.snap))
	}
	if err != nil {
		return err
	}
	l.snapSize = int64(len(buf))
	if l.opts.NoSync {
		return nil
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// loadSnapshot loads the snapshot file, if there is one. The counted
// entries must consume the file after the header exactly, and the counts
// are summed without wrap-around. Replacement is atomic, so any
// disagreement — bad magic, a failed checksum, an entry the schema
// rejects, a count that does not match the body — means outside damage:
// it is a hard error, because a partial load would silently drop
// compacted subscriptions.
func (l *log[R]) loadSnapshot() error {
	path := filepath.Join(l.dir, l.format.snap)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	magic := l.format.snapMagic
	hdr := len(magic) + 4*l.format.sections + 4
	if len(data) < hdr || string(data[:len(magic)]) != magic {
		return fmt.Errorf("store: %s: not a %s snapshot (bad magic)", path, magic)
	}
	ends := make([]int64, l.format.sections) // cumulative, so no wrap
	var total int64
	for i := range ends {
		total += int64(binary.LittleEndian.Uint32(data[len(magic)+4*i:]))
		ends[i] = total
	}
	l.next = binary.LittleEndian.Uint32(data[hdr-4:])
	var n int64
	sec := 0
	valid := scan(data[hdr:], func(p []byte) bool {
		for sec < len(ends) && n == ends[sec] {
			sec++
		}
		if sec == len(ends) || !l.schema.load(sec, p) {
			return false
		}
		n++
		return true
	})
	if n != total || valid != len(data)-hdr {
		return fmt.Errorf("store: %s: damaged snapshot: %d of %d entries intact, %d bytes after them",
			path, n, total, len(data)-hdr-valid)
	}
	l.stats.SnapshotEntries = int(n)
	l.snapSize = int64(len(data))
	return nil
}

// WALRecords returns the number of records accumulated in the WAL since
// the last snapshot.
func (l *log[R]) WALRecords() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.walRecords
}

// Stats returns a snapshot of the store counters.
func (l *log[R]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Live, st.Orphans = l.schema.count()
	st.NextSID = l.next
	st.WALRecords = l.walRecords
	st.WALBytes = l.bodySize()
	return st
}

// Close closes the store's files. It does not snapshot; callers that want
// a compacted shutdown call Snapshot first.
func (l *log[R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// sortedKeys returns m's sids in ascending order.
func sortedKeys[V any](m map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(m))
	for sid := range m {
		out = append(out, sid)
	}
	slices.Sort(out)
	return out
}
