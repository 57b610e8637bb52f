package predfilter

import (
	"fmt"
	"sync"

	"predfilter/internal/store"
	"predfilter/internal/xpath"
)

// PersistentConfig configures a persistent engine. The zero value is
// ready to use: fsynced writes. When to compact the log into a snapshot
// is not configurable: the store compacts once the log is at least as
// large as the last snapshot (and at least 1 MiB), which keeps the total
// snapshot work linear in the number of operations.
type PersistentConfig struct {
	// Engine configures the wrapped filtering engine.
	Engine Config
	// NoSync disables fsync on log appends and snapshot writes: the state
	// then survives process crashes but not OS crashes or power loss.
	NoSync bool
}

// StoreStats are the persistence counters of a persistent engine.
type StoreStats = store.Stats

// Subscription is one live persisted subscription.
type Subscription struct {
	ID SID
	// Expression is the canonical form of the registered expression (the
	// form persisted and replayed; Parse(canonical) ≡ the original).
	Expression string
}

// PersistentEngine is an Engine whose subscription set survives restarts.
// Every Add and Remove is appended to a checksummed write-ahead log before
// it is acknowledged, and a snapshot file compacts the log (when the log
// outgrows the last snapshot, on Snapshot, and on Close). Open recovers
// the live set and re-registers it under the original identifiers, so
// SIDs held by clients remain valid across restarts.
//
// Matching methods are inherited from Engine and stay safe for concurrent
// use. Registration must go through the PersistentEngine's Add/AddAll/
// Remove — mutating the embedded Engine directly would bypass the log and
// diverge from the durable state.
type PersistentEngine struct {
	*Engine
	st *store.Store

	// mu serializes mutations so the matcher and the store apply them in
	// the same order; matching does not take it.
	mu     sync.Mutex
	closed bool
}

// Open opens (creating if necessary) the persistent engine state in dir
// and recovers it: the latest snapshot is loaded, the log is replayed over
// it — truncating a torn tail at the first corrupt record — and every
// surviving subscription is re-registered under its original SID.
func Open(dir string, cfg PersistentConfig) (*PersistentEngine, error) {
	eng := New(cfg.Engine)
	st, err := store.Open(dir, store.Options{NoSync: cfg.NoSync, Metrics: eng.mx})
	if err != nil {
		return nil, err
	}
	for _, e := range st.Entries() {
		if err := eng.m.AddWithSID(e.Expr, SID(e.SID)); err != nil {
			st.Close()
			return nil, fmt.Errorf("predfilter: replay sid %d (%q): %w", e.SID, e.Expr, err)
		}
	}
	return &PersistentEngine{Engine: eng, st: st}, nil
}

// Add registers an expression, durably logs it, and returns its SID. The
// SID is acknowledged only after the operation is on disk.
func (pe *PersistentEngine) Add(xpe string) (SID, error) {
	p, err := xpath.Parse(xpe)
	if err != nil {
		return 0, err
	}
	canon := p.String()

	pe.mu.Lock()
	defer pe.mu.Unlock()
	if pe.closed {
		return 0, fmt.Errorf("predfilter: engine is closed")
	}
	sid := SID(pe.st.NextSID())
	// Apply to the matcher first: it is the component that can still
	// reject the expression (unsupported fragment), and its effects are
	// in-memory, hence cheap to roll back if the log append fails.
	if err := pe.Engine.m.AddPathWithSID(p, sid); err != nil {
		return 0, err
	}
	if err := pe.st.AppendAdd(uint32(sid), canon); err != nil {
		_ = pe.Engine.m.Remove(sid)
		return 0, err
	}
	return sid, nil
}

// AddWithSID registers an expression under a caller-assigned SID and
// durably logs it. It exists for cluster deployments: a shard's store
// holds a sparse subset of coordinator-assigned global identifiers, and a
// WAL-shipped standby replays its primary's identifiers verbatim. The SID
// must not be live; locally assigned identifiers (Add) never collide with
// it afterwards.
func (pe *PersistentEngine) AddWithSID(xpe string, sid SID) error {
	p, err := xpath.Parse(xpe)
	if err != nil {
		return err
	}
	canon := p.String()

	pe.mu.Lock()
	defer pe.mu.Unlock()
	if pe.closed {
		return fmt.Errorf("predfilter: engine is closed")
	}
	if err := pe.Engine.m.AddPathWithSID(p, sid); err != nil {
		return err
	}
	if err := pe.st.AppendAddAt(uint32(sid), canon); err != nil {
		_ = pe.Engine.m.Remove(sid)
		return err
	}
	return nil
}

// AddAll registers a batch of expressions, returning their identifiers in
// order. On error, the expressions before the failing one remain
// registered (and logged).
func (pe *PersistentEngine) AddAll(xpes []string) ([]SID, error) {
	sids := make([]SID, 0, len(xpes))
	for _, s := range xpes {
		sid, err := pe.Add(s)
		if err != nil {
			return sids, err
		}
		sids = append(sids, sid)
	}
	return sids, nil
}

// Remove unregisters a SID and durably logs the removal.
func (pe *PersistentEngine) Remove(sid SID) error {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if pe.closed {
		return fmt.Errorf("predfilter: engine is closed")
	}
	expr, ok := pe.st.Expr(uint32(sid))
	if !ok {
		return fmt.Errorf("predfilter: unknown sid %d", sid)
	}
	if err := pe.Engine.m.Remove(sid); err != nil {
		return err
	}
	if err := pe.st.AppendRemove(uint32(sid)); err != nil {
		_ = pe.Engine.m.AddWithSID(expr, sid)
		return err
	}
	return nil
}

// Subscriptions returns the live persisted subscriptions, ascending by
// SID (chronological registration order of the survivors).
func (pe *PersistentEngine) Subscriptions() []Subscription {
	entries := pe.st.Entries()
	out := make([]Subscription, len(entries))
	for i, e := range entries {
		out[i] = Subscription{ID: SID(e.SID), Expression: e.Expr}
	}
	return out
}

// Snapshot compacts the log into a fresh snapshot now, whatever its size.
func (pe *PersistentEngine) Snapshot() error {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if pe.closed {
		return fmt.Errorf("predfilter: engine is closed")
	}
	return pe.st.Snapshot()
}

// StoreStats returns the persistence counters (log size, snapshot and
// recovery activity).
func (pe *PersistentEngine) StoreStats() StoreStats { return pe.st.Stats() }

// ErrStaleCursor reports a WAL-shipping cursor invalidated by a snapshot
// compaction (or otherwise off a record boundary); the reader must resync
// from ShipSnapshot.
var ErrStaleCursor = store.ErrStaleCursor

// WALOp is one shipped write-ahead-log operation: the addition of ID
// under Expression, or (Remove set) the removal of ID.
type WALOp struct {
	Remove     bool
	ID         SID
	Expression string
}

// ShipSnapshot returns the full live subscription set plus the WAL cursor
// (epoch, offset) that immediately follows it, atomically: a follower
// that applies the entries and then tails ShipRead from the cursor sees
// every subsequent operation exactly once. This is the catch-up half of
// the WAL-shipping protocol behind hot standbys.
func (pe *PersistentEngine) ShipSnapshot() (subs []Subscription, nextSID uint32, epoch, offset int64) {
	entries, next, ep, off := pe.st.ShipSnapshot()
	subs = make([]Subscription, len(entries))
	for i, e := range entries {
		subs[i] = Subscription{ID: SID(e.SID), Expression: e.Expr}
	}
	return subs, next, ep, off
}

// ShipRead returns the WAL operations at (epoch, offset) and the cursor
// for the next poll — only the tail since the last poll is read, not the
// whole log. ErrStaleCursor means the log was compacted under the cursor;
// resync from ShipSnapshot.
func (pe *PersistentEngine) ShipRead(epoch, offset int64) ([]WALOp, int64, error) {
	recs, next, err := pe.st.ReadFrom(epoch, offset)
	if err != nil {
		return nil, 0, err
	}
	ops := make([]WALOp, len(recs))
	for i, r := range recs {
		ops[i] = WALOp{Remove: r.Remove, ID: SID(r.SID), Expression: r.Expr}
	}
	return ops, next, nil
}

// WALEpoch returns the current WAL-shipping epoch (increments on every
// snapshot compaction).
func (pe *PersistentEngine) WALEpoch() int64 { return pe.st.WALEpoch() }

// Close takes a final snapshot (when the log holds operations not yet
// compacted) and closes the store. A PersistentEngine that was Closed
// rejects further mutations; matching remains available on the in-memory
// engine.
func (pe *PersistentEngine) Close() error {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if pe.closed {
		return nil
	}
	pe.closed = true
	var err error
	if pe.st.WALRecords() > 0 {
		err = pe.st.Snapshot()
	}
	if cerr := pe.st.Close(); err == nil {
		err = cerr
	}
	return err
}
