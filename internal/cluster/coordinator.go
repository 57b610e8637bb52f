package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predfilter"
	"predfilter/internal/metrics"
	"predfilter/internal/store"
	"predfilter/internal/trace"
	"predfilter/internal/xpath"
)

// ShardSpec names one shard of the cluster: its routed address and,
// optionally, the address of a WAL-shipped standby to promote when the
// primary stays down.
type ShardSpec struct {
	// Name identifies the shard on the ring. Ring placement hashes the
	// name, so keep names stable across restarts and address changes
	// (defaults to Addr when empty — fine as long as addresses are
	// stable).
	Name string
	// Addr is the shard's base URL ("http://host:port").
	Addr string
	// Standby, when non-empty, is the base URL of the shard's hot standby
	// (a server kept in sync by a Follower shipping the primary's WAL).
	Standby string
}

// Config configures a Coordinator. The zero value of every field has a
// usable default except Shards, which must name at least one shard.
type Config struct {
	Shards []ShardSpec
	// VirtualNodes is the number of ring points per shard (default 128).
	VirtualNodes int
	// PublishTimeout bounds each shard's share of one scatter/gather
	// publish, per attempt (default 5s).
	PublishTimeout time.Duration
	// AdminTimeout bounds subscribe/unsubscribe/migration calls
	// (default 10s).
	AdminTimeout time.Duration
	// Retries is how many times a transient shard failure is retried
	// before the call is given up. Zero means the default of 2; -1 (any
	// negative value) disables retries entirely. Note that shard publish
	// is not idempotent: a retry after a lost response re-enqueues the
	// document in that shard's delivery queues, so retried publishes are
	// at-least-once per shard. Operators who need at-most-once delivery
	// must set Retries to -1 and accept more degraded results instead.
	Retries int
	// RetryBackoff is the base backoff between retries; attempt k waits a
	// full-jitter draw from (0, min(RetryBackoff×2^(k-1), RetryBackoffMax)]
	// (default 25ms). A 429's Retry-After is honored as the floor.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential backoff growth (default 1s, and
	// never below RetryBackoff).
	RetryBackoffMax time.Duration
	// BreakerThreshold is how many consecutive transient failures open a
	// shard's circuit breaker. Zero means the default of 5; negative
	// disables breakers entirely (every call goes to the network).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses calls before
	// letting a single half-open probe through (default 2s).
	BreakerCooldown time.Duration
	// HealthInterval is the shard health-check period. 0 disables the
	// monitor (tests drive Promote explicitly); production coordinators
	// should run it.
	HealthInterval time.Duration
	// FailThreshold is how many consecutive failed health checks trigger
	// standby promotion (default 3).
	FailThreshold int
	// MaxDocumentBytes bounds documents accepted by the coordinator's own
	// /publish endpoint (default 1 MiB).
	MaxDocumentBytes int64
	// StateDir, when non-empty, makes the coordinator's routing state
	// durable: the SID counter, the sid→shard routing table, and the
	// orphan-SID set are write-ahead logged (and periodically compacted
	// into a snapshot) under this directory, so a kill -9'd coordinator
	// restarts into a fully routed cluster from local state alone — zero
	// shard round-trips, even with every shard unreachable. Without it the
	// routing state is in-memory only and a restart needs Recover.
	StateDir string
	// NoSync disables the per-append fsync on the coordinator state log.
	// Throughput over durability: a host crash (not a process crash) can
	// lose the last appended records.
	NoSync bool
	// Recover reconciles the coordinator's records against every shard's
	// live set (GET /subscriptions) at startup. Without StateDir it is the
	// only recovery path: ownership is recorded from where each id
	// actually lives, the SID sequence resumes past the highest live id,
	// and every shard must be reachable — recovering around an unreachable
	// shard would re-issue its live ids. With StateDir the durable state
	// is authoritative and Recover becomes an optional verify/repair pass:
	// subscriptions the shards hold but the records lack are adopted,
	// recorded subscriptions missing from their owner are re-subscribed,
	// duplicate copies are resolved, and unreachable shards are skipped
	// (verified on their next restart) instead of failing startup.
	Recover bool
	// Client is the HTTP client for shard calls (default: a dedicated
	// client with sensible pooling).
	Client *http.Client

	// SlowPublishThreshold flags a scatter/gather publish as anomalous
	// (retained in the flight recorder) when its total wall time reaches
	// this bound. 0 disables the slow criterion; degraded, failed,
	// retried and explicitly traced publishes are retained regardless.
	SlowPublishThreshold time.Duration
	// FlightRecords sizes the flight recorder ring (0 uses
	// trace.DefaultFlightRecords; negative disables it).
	FlightRecords int
	// TraceAll records a full span tree for every publish, not only those
	// carrying a trace header or ?trace=1. Meant for debugging sessions —
	// it puts an allocation on every publish.
	TraceAll bool
	// Logger receives the coordinator's structured events (retries,
	// failovers, migrations, orphan reaping); nil selects slog.Default().
	Logger *slog.Logger
}

// snapshotEvery is the number of coordinator state records after which
// the log is compacted into a snapshot (Close snapshots as well).
const snapshotEvery = 4096

// RPC stages instrumented per shard: each gets its own latency
// histogram, exposed as predfilter_cluster_rpc_duration_seconds with
// shard and stage labels.
const (
	rpcSubscribe = iota
	rpcUnsubscribe
	rpcPublish
	rpcProbe
	rpcPromote
	numRPCStages
)

var rpcStageNames = [numRPCStages]string{"subscribe", "unsubscribe", "publish", "probe", "promote"}

// shard is one shard's routing state and counters.
type shard struct {
	name    string
	standby string

	mu       sync.Mutex
	addr     string // current routed address (standby after promotion)
	promoted bool

	healthy     atomic.Bool
	consecFails int // monitor-goroutine only

	// brk is the shard's circuit breaker (nil when disabled): transient
	// failures on any RPC stage and failed health probes feed it, open
	// state short-circuits calls before they touch the network.
	brk *breaker

	published    atomic.Int64 // successful publish calls
	errs         atomic.Int64 // failed publish attempts (before retry)
	retries      atomic.Int64 // publish attempts retried
	skipped      atomic.Int64 // documents skipped after retries (degraded)
	publishNanos atomic.Int64

	// rpc holds one latency histogram per instrumented RPC stage; every
	// attempt against this shard is observed, so retries widen the tail
	// visibly instead of hiding inside one long aggregate.
	rpc [numRPCStages]metrics.Histogram
}

func (sh *shard) currentAddr() string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.addr
}

// subRecord is the coordinator's authoritative record of one
// subscription: the expression as submitted and the shard it lives on.
// Owner tracks migrations and stays valid across failover (promotion
// keeps the shard name).
type subRecord struct {
	expr  string
	owner string
}

// Coordinator owns the cluster: the ring, the global SID space, and the
// scatter/gather publish path. It is safe for concurrent use and
// implements http.Handler with the same API surface as one shard (plus
// per-shard stats), so clients talk to a cluster exactly as they would to
// a single server.
//
// Locking: adminMu serializes the admin operations — subscribe,
// unsubscribe, shard add/remove migration, orphan reaping — and is the
// only lock held across shard HTTP calls; the ring is touched exclusively
// by adminMu holders. mu guards the routing state (shards, order, subs,
// orphans, nextSID) and is never held across network I/O, so the publish
// path (shardList, Stats, proxyToOwner) cannot be stalled by a slow
// subscribe or a migration in progress.
type Coordinator struct {
	cfg    Config
	api    *shardAPI
	mux    *http.ServeMux
	log    *slog.Logger
	flight *trace.FlightRecorder

	adminMu sync.Mutex
	ring    *ring // adminMu holders only
	// st is the durable routing state (nil without Config.StateDir).
	// Appends happen under adminMu, before the corresponding in-memory
	// commit, so the log never lags what publishes can observe.
	st *store.CoordStore

	mu      sync.Mutex
	shards  map[string]*shard
	order   []string // shard names in Config order (stable scatter/stats order)
	subs    map[predfilter.SID]*subRecord
	orphans map[predfilter.SID]string // burned sid → shard possibly still holding it
	nextSID predfilter.SID

	docsPublished atomic.Int64
	docsDegraded  atomic.Int64
	docsFailed    atomic.Int64
	failovers     atomic.Int64
	scrapeErrs    atomic.Int64 // shard /metrics scrapes that failed during rollup
	draining      atomic.Bool

	gatherMerge metrics.Histogram // gather-merge stage of scatter/gather publish

	closeOnce sync.Once
	storeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// New returns a ready Coordinator over the configured shards. Without
// Config.Recover it does not probe them: a shard that is down simply
// degrades publishes (and fails subscribes that route to it) until it
// returns or its standby is promoted.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if cfg.PublishTimeout <= 0 {
		cfg.PublishTimeout = 5 * time.Second
	}
	if cfg.AdminTimeout <= 0 {
		cfg.AdminTimeout = 10 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	} else if cfg.Retries < 0 {
		cfg.Retries = 0 // explicit opt-out: one attempt, at-most-once
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = time.Second
	}
	if cfg.RetryBackoffMax < cfg.RetryBackoff {
		cfg.RetryBackoffMax = cfg.RetryBackoff
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.MaxDocumentBytes <= 0 {
		cfg.MaxDocumentBytes = 1 << 20
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	c := &Coordinator{
		cfg:     cfg,
		api:     &shardAPI{hc: cfg.Client},
		log:     cfg.Logger,
		ring:    newRing(nil, cfg.VirtualNodes),
		shards:  make(map[string]*shard),
		subs:    make(map[predfilter.SID]*subRecord),
		orphans: make(map[predfilter.SID]string),
		done:    make(chan struct{}),
	}
	if cfg.FlightRecords >= 0 {
		c.flight = trace.NewFlightRecorder(cfg.FlightRecords)
	}
	for _, spec := range cfg.Shards {
		name := spec.Name
		if name == "" {
			name = spec.Addr
		}
		if name == "" {
			return nil, fmt.Errorf("cluster: shard with neither name nor address")
		}
		if _, dup := c.shards[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", name)
		}
		sh := &shard{name: name, addr: spec.Addr, standby: spec.Standby}
		if cfg.BreakerThreshold > 0 {
			sh.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		}
		sh.healthy.Store(true)
		c.shards[name] = sh
		c.order = append(c.order, name)
		c.ring.add(name)
	}
	c.initMux()
	if cfg.StateDir != "" {
		if err := c.openState(); err != nil {
			return nil, err
		}
	}
	if cfg.Recover {
		var err error
		if c.st != nil {
			err = c.reconcileState(context.Background())
		} else {
			err = c.recoverState(context.Background())
		}
		if err != nil {
			c.closeState()
			return nil, err
		}
	}
	if cfg.HealthInterval > 0 {
		c.wg.Add(1)
		go c.monitor()
	}
	return c, nil
}

// recoverState rebuilds the coordinator's records from the shards' live
// subscription sets: a restarted coordinator in front of populated
// shards resumes with every ownership record intact and the SID sequence
// past the highest live id. A subscription found on two shards (a
// migration crashed between its add and its remove) keeps the
// ring-preferred copy; the stray is deleted, and a stray that cannot be
// deleted fails recovery — leaving it would re-match documents after the
// subscription is removed. Runs from New, before any goroutines start.
func (c *Coordinator) recoverState(ctx context.Context) error {
	recovered := make(map[predfilter.SID]*subRecord)
	var nextSID predfilter.SID
	for _, name := range c.order {
		sh := c.shards[name]
		cctx, cancel := context.WithTimeout(ctx, c.cfg.AdminTimeout)
		entries, err := c.api.listSubscriptions(cctx, sh.currentAddr())
		cancel()
		if err != nil {
			return fmt.Errorf("cluster: recover: list subscriptions on shard %s: %w", name, err)
		}
		for _, e := range entries {
			if e.ID >= nextSID {
				nextSID = e.ID + 1
			}
			prev := recovered[e.ID]
			if prev == nil {
				recovered[e.ID] = &subRecord{expr: e.Expression, owner: name}
				continue
			}
			if prev.expr != e.Expression {
				return fmt.Errorf("cluster: recover: sid %d live on shards %s and %s with different expressions",
					e.ID, prev.owner, name)
			}
			// Same (id, expression) on two shards: keep the copy the ring
			// would route to and delete the stray — both shards answered
			// the listing, so the delete is expected to work.
			stray := name
			if want, werr := c.ring.ownerSID(e.ID); werr == nil && want == name {
				stray = prev.owner
				prev.owner = name
			}
			cctx, cancel := context.WithTimeout(ctx, c.cfg.AdminTimeout)
			derr := c.api.unsubscribe(cctx, c.shards[stray].currentAddr(), e.ID)
			cancel()
			if derr != nil {
				return fmt.Errorf("cluster: recover: sid %d duplicated on %s and %s; removing the %s copy: %w",
					e.ID, prev.owner, stray, stray, derr)
			}
		}
	}
	c.mu.Lock()
	c.subs = recovered
	c.nextSID = nextSID
	c.mu.Unlock()
	return nil
}

// openState opens the durable routing state under Config.StateDir and
// loads it, so the restart resumes fully routed without asking any
// shard. Every recorded owner must still be a configured shard: the
// shard *set* lives in Config, and dropping a shard from the flags
// without RemoveShard would leave its subscriptions unroutable — that
// is a hard error here, not a silent one later. Orphans burned on
// shards no longer configured are reaped (their copies died with the
// shard). Runs from New, before the coordinator serves.
func (c *Coordinator) openState() error {
	cs, err := store.OpenCoord(c.cfg.StateDir, store.Options{NoSync: c.cfg.NoSync})
	if err != nil {
		return fmt.Errorf("cluster: open coordinator state: %w", err)
	}
	st := cs.State()
	subs := make(map[predfilter.SID]*subRecord, len(st.Subs))
	for sid, sub := range st.Subs {
		if c.shards[sub.Owner] == nil {
			cs.Close()
			return fmt.Errorf("cluster: recovered sid %d routed to unconfigured shard %q (shard removed from config without RemoveShard?)", sid, sub.Owner)
		}
		subs[predfilter.SID(sid)] = &subRecord{expr: sub.Expr, owner: sub.Owner}
	}
	orphans := make(map[predfilter.SID]string, len(st.Orphans))
	for sid, name := range st.Orphans {
		if c.shards[name] == nil {
			_ = cs.AppendReap(sid)
			continue
		}
		orphans[predfilter.SID(sid)] = name
	}
	c.mu.Lock()
	c.subs = subs
	c.orphans = orphans
	c.nextSID = predfilter.SID(st.NextSID)
	c.mu.Unlock()
	c.st = cs
	c.log.Info("cluster: coordinator state recovered",
		slog.Int("subscriptions", len(subs)),
		slog.Int("orphans", len(orphans)),
		slog.Int64("next_sid", int64(st.NextSID)))
	return nil
}

// closeState snapshots and closes the durable state (idempotent; no-op
// without one). The snapshot on the way out makes the next open replay
// nothing, but is an optimization only — a kill -9 skips it and replays
// the WAL instead.
func (c *Coordinator) closeState() {
	if c.st == nil {
		return
	}
	c.storeOnce.Do(func() {
		if err := c.st.Snapshot(); err != nil {
			c.log.Warn("cluster: coordinator state snapshot on close", slog.String("error", err.Error()))
		}
		if err := c.st.Close(); err != nil {
			c.log.Warn("cluster: coordinator state close", slog.String("error", err.Error()))
		}
	})
}

// persistReap clears a burned sid from the durable state. Failure is
// log-only: a restart resurrects the orphan and the next reap pass
// deletes it again (shard-side delete of a missing sid answers 404,
// which counts as success).
func (c *Coordinator) persistReap(sid predfilter.SID) {
	if c.st == nil {
		return
	}
	if err := c.st.AppendReap(uint32(sid)); err != nil {
		c.log.Debug("cluster: persist orphan reap",
			slog.Int64("sid", int64(sid)),
			slog.String("error", err.Error()))
	}
}

// maybeSnapshot compacts the coordinator state log once it accumulates
// snapshotEvery records. Callers hold adminMu.
func (c *Coordinator) maybeSnapshot() {
	if c.st == nil || c.st.WALRecords() < snapshotEvery {
		return
	}
	if err := c.st.Snapshot(); err != nil {
		c.log.Error("cluster: coordinator state snapshot", slog.String("error", err.Error()))
	}
}

// canonicalExpr renders an expression the way shards store it (parse +
// print). The coordinator's records keep the as-submitted form, so any
// comparison against a shard listing goes through this first.
func canonicalExpr(expr string) (string, error) {
	p, err := xpath.Parse(expr)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// reconcileState is the verify/repair pass over the durable records:
// with StateDir the records are authoritative, and Recover compares
// them against what each shard actually holds, repairing divergence
// from the crash windows the log cannot cover (a shard ack whose
// durable record was never written, a migration torn between its add
// and its remove, a shard restarted from a wiped disk). Unreachable
// shards are skipped — their subscriptions are verified when they
// return — instead of failing startup the way record-less recovery
// must. Runs from New, before the coordinator serves, so the maps are
// accessed without locks.
func (c *Coordinator) reconcileState(ctx context.Context) error {
	type copyOn struct{ shard, expr string }
	listed := make(map[predfilter.SID][]copyOn)
	reachable := make(map[string]bool, len(c.order))
	for _, name := range c.order {
		sh := c.shards[name]
		cctx, cancel := context.WithTimeout(ctx, c.cfg.AdminTimeout)
		entries, err := c.api.listSubscriptions(cctx, sh.currentAddr())
		cancel()
		if err != nil {
			c.log.Warn("cluster: verify: shard unreachable, skipped",
				slog.String("shard", name),
				slog.String("error", err.Error()))
			continue
		}
		reachable[name] = true
		for _, e := range entries {
			listed[e.ID] = append(listed[e.ID], copyOn{shard: name, expr: e.Expression})
		}
	}

	del := func(sid predfilter.SID, name string) error {
		cctx, cancel := context.WithTimeout(ctx, c.cfg.AdminTimeout)
		defer cancel()
		return c.api.unsubscribe(cctx, c.shards[name].currentAddr(), sid)
	}

	for sid, copies := range listed {
		rec := c.subs[sid]
		_, orphaned := c.orphans[sid]
		switch {
		case rec == nil && orphaned:
			// A burned sid whose shard-side copy survives: the shards that
			// hold it answered the listing, so delete it here and now.
			for _, cp := range copies {
				if err := del(sid, cp.shard); err != nil {
					return fmt.Errorf("cluster: verify: delete orphaned sid %d on shard %s: %w", sid, cp.shard, err)
				}
			}
			delete(c.orphans, sid)
			c.persistReap(sid)
			c.log.Info("cluster: verify: reaped orphaned sid", slog.Int64("sid", int64(sid)))
		case rec == nil:
			// The shards hold a subscription the records lack — a shard ack
			// whose durable record was lost to a crash, or a registration
			// this coordinator never placed. Adopt the ring-preferred copy
			// (the canonical expression the shard stores becomes the
			// record) and delete the rest.
			keep := copies[0]
			if want, werr := c.ring.ownerSID(sid); werr == nil {
				for _, cp := range copies {
					if cp.shard == want {
						keep = cp
					}
				}
			}
			if err := c.st.AppendAdd(uint32(sid), keep.shard, keep.expr); err != nil {
				return fmt.Errorf("cluster: verify: persist adopted sid %d: %w", sid, err)
			}
			c.subs[sid] = &subRecord{expr: keep.expr, owner: keep.shard}
			if sid >= c.nextSID {
				c.nextSID = sid + 1
			}
			for _, cp := range copies {
				if cp.shard == keep.shard {
					continue
				}
				if err := del(sid, cp.shard); err != nil {
					return fmt.Errorf("cluster: verify: delete duplicate sid %d on shard %s: %w", sid, cp.shard, err)
				}
			}
			c.log.Warn("cluster: verify: adopted unrecorded subscription",
				slog.Int64("sid", int64(sid)),
				slog.String("shard", keep.shard))
		default:
			canon, cerr := canonicalExpr(rec.expr)
			if cerr != nil {
				canon = rec.expr
			}
			ownerHolds := false
			for _, cp := range copies {
				if cp.expr != canon && cp.expr != rec.expr {
					return fmt.Errorf("cluster: verify: sid %d on shard %s has expression %q, record says %q",
						sid, cp.shard, cp.expr, rec.expr)
				}
				if cp.shard == rec.owner {
					ownerHolds = true
				}
			}
			if !ownerHolds {
				if !reachable[rec.owner] {
					// The recorded owner did not answer; nothing can be
					// verified for this sid, so nothing is touched.
					continue
				}
				// The owner answered but lost the copy while another shard
				// holds one (a migration torn between add and remove):
				// re-route the record to a holder rather than re-adding.
				newOwner := copies[0].shard
				if err := c.st.AppendOwner(uint32(sid), newOwner); err != nil {
					return fmt.Errorf("cluster: verify: persist re-route of sid %d: %w", sid, err)
				}
				rec.owner = newOwner
				c.log.Warn("cluster: verify: re-routed sid to surviving copy",
					slog.Int64("sid", int64(sid)),
					slog.String("shard", newOwner))
			}
			for _, cp := range copies {
				if cp.shard == rec.owner {
					continue
				}
				if err := del(sid, cp.shard); err != nil {
					return fmt.Errorf("cluster: verify: delete stray sid %d on shard %s: %w", sid, cp.shard, err)
				}
			}
		}
	}

	// Records whose owner answered the listing but does not hold the sid
	// (a shard restarted from wiped state): put the subscription back.
	for sid, rec := range c.subs {
		if !reachable[rec.owner] {
			continue
		}
		held := false
		for _, cp := range listed[sid] {
			if cp.shard == rec.owner {
				held = true
			}
		}
		if held {
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, c.cfg.AdminTimeout)
		err := c.api.subscribe(cctx, c.shards[rec.owner].currentAddr(), sid, rec.expr)
		cancel()
		if err != nil {
			return fmt.Errorf("cluster: verify: re-subscribe sid %d on shard %s: %w", sid, rec.owner, err)
		}
		c.log.Warn("cluster: verify: re-subscribed lost sid",
			slog.Int64("sid", int64(sid)),
			slog.String("shard", rec.owner))
	}

	// Orphans whose shard answered the listing without them: the
	// half-committed copy is confirmed gone.
	for sid, name := range c.orphans {
		if !reachable[name] {
			continue
		}
		held := false
		for _, cp := range listed[sid] {
			if cp.shard == name {
				held = true
			}
		}
		if held {
			continue // deleted and reaped in the walk above
		}
		delete(c.orphans, sid)
		c.persistReap(sid)
	}
	return nil
}

// Close stops the health monitor, marks the coordinator draining (its
// HTTP publish surface answers 503), and snapshots and closes the
// durable state when one is configured. Shards are independent processes
// and are not touched. Safe to call concurrently and more than once.
func (c *Coordinator) Close() {
	c.draining.Store(true)
	c.closeOnce.Do(func() { close(c.done) })
	c.wg.Wait()
	c.closeState()
}

// shardList snapshots the shards in configuration order.
func (c *Coordinator) shardList() []*shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*shard, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.shards[name])
	}
	return out
}

// Subscribe registers an expression cluster-wide: it validates the
// expression locally, assigns the next global SID, places it on its
// owning shard through the ring, and commits only after the shard
// acknowledged. Subscribes are serialized (registration is the cold
// path); the shard call runs outside the state lock, so publishes never
// wait on a slow registration. A failed shard call is cleaned up so it
// cannot wedge the sequence: see abandonSID — the sid is either verified
// free (and reused) or burned and reaped later, leaving a hole in the
// global sequence that nothing depends on.
func (c *Coordinator) Subscribe(ctx context.Context, expr string) (predfilter.SID, error) {
	if _, err := xpath.Parse(expr); err != nil {
		return 0, err
	}
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	c.reapOrphans(ctx)
	c.mu.Lock()
	sid := c.nextSID
	c.mu.Unlock()
	owner, err := c.ring.ownerSID(sid)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	sh := c.shards[owner]
	c.mu.Unlock()
	cctx, cancel := context.WithTimeout(ctx, c.cfg.AdminTimeout)
	defer cancel()
	if attempts, err := c.callWithRetry(cctx, sh, rpcSubscribe, func(addr string) error {
		return c.api.subscribe(cctx, addr, sid, expr)
	}); err != nil {
		if attempts > 0 {
			// At least one RPC went out, so the shard may hold an
			// unacknowledged copy. With zero attempts (breaker open) the
			// sid is verifiably free — no cleanup, no burn.
			c.abandonSID(sh, sid, err)
		}
		return 0, fmt.Errorf("cluster: subscribe on shard %s: %w", owner, err)
	}
	if c.st != nil {
		if perr := c.st.AppendAdd(uint32(sid), owner, expr); perr != nil {
			// The shard acknowledged but the durable record cannot be
			// written. Undo on the shard so the sid stays verifiably free;
			// if even that fails, burn it so it is never reissued.
			dctx, dcancel := context.WithTimeout(context.Background(), c.cfg.AdminTimeout)
			derr := c.api.unsubscribe(dctx, sh.currentAddr(), sid)
			dcancel()
			if derr != nil {
				c.burnSID(sid, sh.name)
			}
			return 0, fmt.Errorf("cluster: persist subscription %d: %w", sid, perr)
		}
	}
	c.mu.Lock()
	c.subs[sid] = &subRecord{expr: expr, owner: owner}
	c.nextSID++
	c.mu.Unlock()
	c.maybeSnapshot()
	return sid, nil
}

// abandonSID cleans up after a failed subscribe call. An ambiguous
// failure (network error, timeout, 5xx — callErr transient) may have
// committed the registration on the shard with only the ack lost in
// transit; leaving that copy while reusing the sid would wedge the
// cluster — the next Subscribe would offer the same sid with a
// different expression, the shard would answer 409 (non-transient), and
// every registration from then on would fail. A best-effort delete
// (fresh context — the caller's may already be done) clears the
// maybe-committed copy, making the sid verifiably free to reuse. If
// even the delete fails, the sid is burned: nextSID advances past it
// and the sid is recorded as an orphan — filtered out of publish
// results (it may still match on the shard) and deleted for real by
// reapOrphans once the shard answers again.
//
// A *permanent* refusal is the opposite case and must not be cleaned
// up: the shard deliberately answered that nothing of ours was
// committed, and if the answer was 409 the sid is live with someone
// else's expression — a subscription this coordinator never placed
// (a restart without Config.Recover in front of populated shards).
// Deleting it would destroy live data the coordinator merely cannot
// see. Callers hold adminMu.
func (c *Coordinator) abandonSID(sh *shard, sid predfilter.SID, callErr error) {
	var se *shardError
	if errors.As(callErr, &se) && !se.transient {
		return
	}
	cctx, cancel := context.WithTimeout(context.Background(), c.cfg.AdminTimeout)
	defer cancel()
	if err := c.api.unsubscribe(cctx, sh.currentAddr(), sid); err == nil {
		return
	}
	c.burnSID(sid, sh.name)
}

// burnSID records sid as burned — the SID sequence advances past it and
// the sid joins the orphan set, durably when a state store is
// configured, so a restart cannot reissue it while the shard may still
// hold a half-committed copy. Callers hold adminMu.
func (c *Coordinator) burnSID(sid predfilter.SID, shardName string) {
	c.mu.Lock()
	if c.nextSID == sid {
		c.nextSID = sid + 1
	}
	c.orphans[sid] = shardName
	c.mu.Unlock()
	if c.st != nil {
		if err := c.st.AppendBurn(uint32(sid), shardName); err != nil {
			c.log.Error("cluster: persist burned sid",
				slog.Int64("sid", int64(sid)),
				slog.String("error", err.Error()))
		}
	}
	c.log.Warn("cluster: sid burned as orphan after failed subscribe",
		slog.Int64("sid", int64(sid)),
		slog.String("shard", shardName))
}

// reapOrphans retries the delete of every burned sid (abandonSID) whose
// shard may still hold an unrecorded registration. It runs on the admin
// path and on monitor ticks; shards currently failing health checks are
// skipped (the delete would only eat the admin budget). Success clears
// the orphan; failure leaves it for the next pass — publishes filter it
// out meanwhile. Callers hold adminMu.
func (c *Coordinator) reapOrphans(ctx context.Context) {
	c.mu.Lock()
	pending := make(map[predfilter.SID]*shard, len(c.orphans))
	var gone []predfilter.SID
	for sid, name := range c.orphans {
		sh := c.shards[name]
		if sh == nil {
			delete(c.orphans, sid) // shard left the cluster; its copy died with it
			gone = append(gone, sid)
			continue
		}
		if sh.healthy.Load() {
			pending[sid] = sh
		}
	}
	c.mu.Unlock()
	for _, sid := range gone {
		c.persistReap(sid)
	}
	for sid, sh := range pending {
		cctx, cancel := context.WithTimeout(ctx, c.cfg.AdminTimeout)
		err := c.api.unsubscribe(cctx, sh.currentAddr(), sid)
		cancel()
		if err == nil {
			c.mu.Lock()
			delete(c.orphans, sid)
			c.mu.Unlock()
			c.persistReap(sid)
			c.log.Info("cluster: reaped orphaned sid",
				slog.Int64("sid", int64(sid)),
				slog.String("shard", sh.name))
		}
	}
}

// Unsubscribe removes a subscription from its owning shard.
func (c *Coordinator) Unsubscribe(ctx context.Context, sid predfilter.SID) error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	c.mu.Lock()
	rec := c.subs[sid]
	var sh *shard
	if rec != nil {
		sh = c.shards[rec.owner]
	}
	c.mu.Unlock()
	if rec == nil {
		return fmt.Errorf("cluster: unknown sid %d", sid)
	}
	cctx, cancel := context.WithTimeout(ctx, c.cfg.AdminTimeout)
	defer cancel()
	if _, err := c.callWithRetry(cctx, sh, rpcUnsubscribe, func(addr string) error {
		return c.api.unsubscribe(cctx, addr, sid)
	}); err != nil {
		return fmt.Errorf("cluster: unsubscribe on shard %s: %w", rec.owner, err)
	}
	c.mu.Lock()
	delete(c.subs, sid)
	c.mu.Unlock()
	if c.st != nil {
		if perr := c.st.AppendRemove(uint32(sid)); perr != nil {
			// The shard deleted its copy but the record removal could not
			// be logged: a restart resurrects a record the shard no longer
			// backs, repaired by the Recover verify pass. Disk trouble —
			// surface it loudly, the unsubscribe itself succeeded.
			c.log.Error("cluster: persist unsubscribe",
				slog.Int64("sid", int64(sid)),
				slog.String("error", perr.Error()))
		}
	}
	c.maybeSnapshot()
	return nil
}

// OwnerOf reports which shard holds a live subscription.
func (c *Coordinator) OwnerOf(sid predfilter.SID) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.subs[sid]
	if rec == nil {
		return "", false
	}
	return rec.owner, true
}

// ctxTraceID renders the trace ID carried by ctx for log correlation
// ("" when the operation is untraced).
func ctxTraceID(ctx context.Context) string {
	if tr := trace.FromContext(ctx); tr.Enabled() {
		return tr.ID().String()
	}
	return ""
}

// callWithRetry runs one shard call against the shard's current address,
// retrying transient failures with capped exponential backoff and full
// jitter (backoffFor). The shard's circuit breaker gates every attempt:
// an open breaker short-circuits before touching the network — the
// caller gets errShardBreakerOpen (attempts == 0) or the last real
// error, immediately, instead of burning the stage's timeout — and each
// attempted call's outcome feeds the breaker back. The address is
// re-resolved per attempt so a promotion between attempts is picked up.
// Every attempt's latency lands in the shard's per-stage RPC histogram,
// and each retry is logged with the shard, stage and trace ID. attempts
// reports how many were made.
func (c *Coordinator) callWithRetry(ctx context.Context, sh *shard, stage int, call func(addr string) error) (attempts int, err error) {
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			sh.retries.Add(1)
			c.log.Warn("cluster: retrying shard call",
				slog.String("shard", sh.name),
				slog.String("stage", rpcStageNames[stage]),
				slog.Int("attempt", attempt+1),
				slog.String("error", err.Error()),
				slog.String("trace_id", ctxTraceID(ctx)))
			select {
			case <-time.After(c.backoffFor(attempt, err)):
			case <-ctx.Done():
				return attempts, err
			}
		}
		if !sh.brk.allow(time.Now()) {
			if err == nil {
				err = errShardBreakerOpen
			}
			return attempts, err
		}
		attempts++
		t0 := time.Now()
		err = call(sh.currentAddr())
		sh.rpc[stage].Observe(time.Since(t0))
		reclosed, opened := sh.brk.recordOutcome(err, time.Now())
		if reclosed {
			c.log.Info("cluster: shard breaker closed", slog.String("shard", sh.name))
		}
		if opened {
			c.log.Warn("cluster: shard breaker opened",
				slog.String("shard", sh.name),
				slog.String("stage", rpcStageNames[stage]),
				slog.String("error", err.Error()))
		}
		if err == nil {
			return attempts, nil
		}
		var se *shardError
		if !errors.As(err, &se) || !se.transient {
			return attempts, err
		}
	}
	return attempts, err
}

// PublishResult is the outcome of one scatter/gather publish. When every
// shard answered, SIDs is exactly the match set a single engine holding
// all subscriptions would report (ascending id order — the gather merge's
// canonical delivery order). When a shard stayed down through the retry
// budget, Degraded is set and Skipped names it: the match set is the
// union of the answering shards, a flagged partial result rather than a
// failed publish. TraceID names the distributed trace when the publish
// was traced (an X-Predfilter-Trace header, ?trace=1, or
// Config.TraceAll), "" otherwise.
type PublishResult struct {
	SIDs     []predfilter.SID
	Degraded bool
	Skipped  []string
	TraceID  string
}

// allShardsError is the all-shards-skipped publish failure. When every
// skipped shard answered 429 the cluster as a whole is shedding load, so
// the coordinator relays 429 with the largest shard Retry-After instead
// of masking backpressure as a 502.
type allShardsError struct {
	shards      int
	rateLimited bool
	retryAfter  int // max shard Retry-After in seconds (0 when none given)
}

func (e *allShardsError) Error() string {
	if e.rateLimited {
		return fmt.Sprintf("cluster: all %d shards rate-limited", e.shards)
	}
	return fmt.Sprintf("cluster: all %d shards unreachable", e.shards)
}

// shardResult is one shard's gathered outcome within a scatter/gather
// publish — the gather input, and the raw material for flight-recorder
// span synthesis when an untraced publish turns out anomalous.
type shardResult struct {
	name       string
	sids       []predfilter.SID
	err        error
	attempts   int
	start      time.Time
	dur        time.Duration
	retryAfter int
}

// Publish scatters one document to every shard and gathers the merged
// match set. Per-shard deadlines (Config.PublishTimeout per attempt) keep
// one slow shard from pinning the whole publish; transient failures are
// retried with backoff (at-least-once per shard — see Config.Retries);
// a shard that stays down is skipped and flagged rather than failing the
// document. A permanent per-document refusal (parse failure,
// resource-limit trip — the governance statuses a single server would
// answer) fails the publish with that shard's error, because the
// document, not the cluster, is the problem.
//
// When ctx carries a *trace.Trace (trace.NewContext) — or Config.TraceAll
// is set — each per-shard call runs under its own span, propagated to the
// shard via X-Predfilter-Trace so the shard's spans join the same tree.
// Untraced publishes pay no allocations for tracing; if one turns out
// anomalous (degraded, failed, retried, or slower than
// Config.SlowPublishThreshold), a span tree is synthesized after the fact
// from the gathered timings and retained in the flight recorder.
func (c *Coordinator) Publish(ctx context.Context, doc []byte) (*PublishResult, error) {
	tr := trace.FromContext(ctx)
	if tr == nil && c.cfg.TraceAll {
		tr = trace.New()
		ctx = trace.NewContext(ctx, tr)
	}
	start := time.Now()
	shards := c.shardList()
	out := make([]shardResult, len(shards))
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for i, sh := range shards {
		go func(i int, sh *shard) {
			defer wg.Done()
			t0 := time.Now()
			span := tr.StartSpan("shard.publish", 0)
			span.SetShard(sh.name)
			header := span.Header()
			var sids []predfilter.SID
			attempts, err := c.callWithRetry(ctx, sh, rpcPublish, func(addr string) error {
				cctx, cancel := context.WithTimeout(ctx, c.cfg.PublishTimeout)
				defer cancel()
				var cerr error
				sids, cerr = c.api.publish(cctx, addr, doc, header)
				return cerr
			})
			dur := time.Since(t0)
			sh.publishNanos.Add(dur.Nanoseconds())
			span.SetRetries(attempts - 1)
			span.SetError(err)
			span.End()
			g := shardResult{name: sh.name, attempts: attempts, start: t0, dur: dur}
			if err != nil {
				sh.errs.Add(1)
				var se *shardError
				if errors.As(err, &se) {
					g.retryAfter = se.retryAfter
				}
				g.err = err
				out[i] = g
				return
			}
			sh.published.Add(1)
			// The gather merge needs each partial set ascending; a shard's
			// own order (expression registration order) is not guaranteed
			// to be.
			sort.Slice(sids, func(a, b int) bool { return sids[a] < sids[b] })
			g.sids = sids
			out[i] = g
		}(i, sh)
	}
	wg.Wait()

	retried := 0
	for _, g := range out {
		retried += g.attempts - 1
	}
	res := &PublishResult{}
	if tr.Enabled() {
		res.TraceID = tr.ID().String()
	}
	sets := make([][]predfilter.SID, 0, len(shards))
	maxRetryAfter := 0
	allRateLimited := true
	for i, g := range out {
		if g.err == nil {
			sets = append(sets, g.sids)
			continue
		}
		var se *shardError
		if errors.As(g.err, &se) && !se.transient {
			// The document itself was refused; every shard would refuse it
			// the same way. Surface the governance answer, don't degrade.
			c.docsFailed.Add(1)
			err := fmt.Errorf("cluster: shard %s refused document: %w", g.name, g.err)
			c.recordPublishFlight(tr, start, time.Since(start), len(doc), 0, out, nil, retried, err.Error())
			return nil, err
		}
		if se == nil || se.status != http.StatusTooManyRequests {
			allRateLimited = false
		}
		if g.retryAfter > maxRetryAfter {
			maxRetryAfter = g.retryAfter
		}
		shards[i].skipped.Add(1)
		res.Skipped = append(res.Skipped, g.name)
	}
	if len(res.Skipped) == len(shards) {
		c.docsFailed.Add(1)
		err := &allShardsError{shards: len(shards), rateLimited: allRateLimited, retryAfter: maxRetryAfter}
		c.log.Warn("cluster: publish failed on every shard",
			slog.Int("shards", len(shards)),
			slog.Bool("rate_limited", allRateLimited),
			slog.String("trace_id", res.TraceID))
		c.recordPublishFlight(tr, start, time.Since(start), len(doc), 0, out, res.Skipped, retried, err.Error())
		return nil, err
	}
	m0 := time.Now()
	res.SIDs = c.filterOrphans(predfilter.MergeSIDSets(sets))
	md := time.Since(m0)
	c.gatherMerge.Observe(md)
	tr.AddCompleted("gather.merge", "", 0, m0, md, 0, "")
	res.Degraded = len(res.Skipped) > 0
	if res.Degraded {
		c.docsDegraded.Add(1)
		c.log.Warn("cluster: publish degraded",
			slog.Any("skipped", res.Skipped),
			slog.String("trace_id", res.TraceID))
	}
	c.docsPublished.Add(1)
	c.recordPublishFlight(tr, start, time.Since(start), len(doc), len(res.SIDs), out, res.Skipped, retried, "")
	return res, nil
}

// recordPublishFlight retains one scatter/gather publish in the flight
// recorder when it was anomalous: failed, degraded, retried, slower than
// Config.SlowPublishThreshold, or explicitly traced. A traced publish
// contributes its real span tree; an untraced one gets a tree
// synthesized from the per-shard gathered timings, so the record still
// attributes the latency shard by shard. Normal untraced publishes
// return before any allocation.
func (c *Coordinator) recordPublishFlight(tr *trace.Trace, start time.Time, elapsed time.Duration, docBytes, matches int, out []shardResult, skipped []string, retried int, errMsg string) {
	if c.flight == nil {
		return
	}
	var reasons []string
	if errMsg != "" {
		reasons = append(reasons, "failed")
	}
	if len(skipped) > 0 {
		reasons = append(reasons, "degraded")
	}
	if retried > 0 {
		reasons = append(reasons, "retried")
	}
	if c.cfg.SlowPublishThreshold > 0 && elapsed >= c.cfg.SlowPublishThreshold {
		reasons = append(reasons, "slow")
	}
	if tr.Enabled() {
		reasons = append(reasons, "traced")
	}
	if len(reasons) == 0 {
		return
	}
	rec := &trace.Record{
		Time:          start,
		Op:            "cluster.publish",
		Reasons:       reasons,
		DurationNanos: elapsed.Nanoseconds(),
		DocBytes:      docBytes,
		Matches:       matches,
		Skipped:       skipped,
		Error:         errMsg,
	}
	if tr.Enabled() {
		rec.TraceID = tr.ID().String()
		rec.Spans = tr.Snapshot()
	} else {
		st := trace.NewAt(start)
		for _, g := range out {
			msg := ""
			if g.err != nil {
				msg = g.err.Error()
			}
			st.AddCompleted("shard.publish", g.name, 0, g.start, g.dur, g.attempts-1, msg)
		}
		rec.Spans = st.Snapshot()
	}
	c.flight.Add(rec)
}

// FlightRecorder returns the coordinator's flight recorder (nil when
// disabled via Config.FlightRecords < 0).
func (c *Coordinator) FlightRecorder() *trace.FlightRecorder { return c.flight }

// filterOrphans drops burned sids from a merged match set: an orphan has
// no coordinator record (OwnerOf and delivery proxying would 404), so
// its matches must not surface while reapOrphans works on deleting the
// shard-side copy.
func (c *Coordinator) filterOrphans(sids []predfilter.SID) []predfilter.SID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.orphans) == 0 {
		return sids
	}
	kept := sids[:0]
	for _, sid := range sids {
		if _, orphaned := c.orphans[sid]; !orphaned {
			kept = append(kept, sid)
		}
	}
	return kept
}

// Promote fails a shard over to its standby: the shard's routed address
// becomes the standby's, under the same name (ring placement and every
// recorded owner stay valid). The standby is expected to be caught up via
// WAL shipping; promotion does not copy state.
func (c *Coordinator) Promote(name string) error {
	t0 := time.Now()
	c.mu.Lock()
	sh := c.shards[name]
	c.mu.Unlock()
	if sh == nil {
		return fmt.Errorf("cluster: unknown shard %q", name)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.promoted {
		return fmt.Errorf("cluster: shard %s already promoted to %s", name, sh.addr)
	}
	if sh.standby == "" {
		return fmt.Errorf("cluster: shard %s has no standby", name)
	}
	sh.addr = sh.standby
	sh.standby = ""
	sh.promoted = true
	sh.healthy.Store(true)
	// The open breaker belonged to the dead primary; the promoted standby
	// starts with a clean slate.
	sh.brk.success()
	c.failovers.Add(1)
	sh.rpc[rpcPromote].Observe(time.Since(t0))
	c.log.Warn("cluster: failover, standby promoted",
		slog.String("shard", name),
		slog.String("addr", sh.addr))
	return nil
}

// monitor is the health-check loop: it probes every shard's /healthz each
// interval, promotes the standby of a shard that failed
// Config.FailThreshold consecutive probes, and opportunistically reaps
// orphaned sids when no admin operation is running.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		for _, sh := range c.shardList() {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthInterval)
			t0 := time.Now()
			ok := c.api.healthy(ctx, sh.currentAddr())
			sh.rpc[rpcProbe].Observe(time.Since(t0))
			cancel()
			// The probe outcome feeds the breaker, bypassing allow: this is
			// how half-open probes ride the health monitor — a healed shard
			// recloses its breaker within one interval even with no publish
			// traffic probing it.
			var probeErr error
			if !ok {
				probeErr = errProbeFailed
			}
			reclosed, opened := sh.brk.recordOutcome(probeErr, time.Now())
			if reclosed {
				c.log.Info("cluster: shard breaker closed", slog.String("shard", sh.name))
			}
			if opened {
				c.log.Warn("cluster: shard breaker opened",
					slog.String("shard", sh.name),
					slog.String("stage", "probe"))
			}
			was := sh.healthy.Swap(ok)
			if ok != was {
				if ok {
					c.log.Info("cluster: shard recovered", slog.String("shard", sh.name))
				} else {
					c.log.Warn("cluster: shard health probe failed", slog.String("shard", sh.name))
				}
			}
			if ok {
				sh.consecFails = 0
				continue
			}
			sh.consecFails++
			if sh.consecFails >= c.cfg.FailThreshold {
				if err := c.Promote(sh.name); err == nil {
					sh.consecFails = 0
				} else {
					c.log.Debug("cluster: cannot promote failed shard",
						slog.String("shard", sh.name),
						slog.String("error", err.Error()))
				}
			}
		}
		if c.adminMu.TryLock() {
			c.reapOrphans(context.Background())
			c.adminMu.Unlock()
		}
	}
}

// AddShard grows the ring by one shard and migrates the subscriptions the
// new placement assigns to it: consistent hashing moves only ~1/(N+1) of
// the keys, and each moved subscription is registered on its new owner
// before it is removed from the old one — at no point does a moved SID
// resolve to a shard that does not hold it. On error the migration stops
// with every already-moved subscription consistent (record and placement
// agree); the caller may retry.
func (c *Coordinator) AddShard(ctx context.Context, spec ShardSpec) error {
	name := spec.Name
	if name == "" {
		name = spec.Addr
	}
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	c.mu.Lock()
	if _, dup := c.shards[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("cluster: shard %q already present", name)
	}
	if spec.Addr == "" {
		c.mu.Unlock()
		return fmt.Errorf("cluster: shard %q has no address", name)
	}
	sh := &shard{name: name, addr: spec.Addr, standby: spec.Standby}
	if c.cfg.BreakerThreshold > 0 {
		sh.brk = newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
	}
	sh.healthy.Store(true)
	c.shards[name] = sh
	c.order = append(c.order, name)
	c.mu.Unlock()
	c.ring.add(name)
	if moved, err := c.migrate(ctx); err == nil {
		c.log.Info("cluster: shard added",
			slog.String("shard", name),
			slog.Int("migrated", moved))
	} else {
		// Undo the ring change and migrate the already-moved keys back
		// through the same protocol, then forget the shard.
		c.ring.remove(name)
		_, uerr := c.migrate(ctx)
		c.mu.Lock()
		delete(c.shards, name)
		c.order = c.order[:len(c.order)-1]
		c.mu.Unlock()
		if uerr != nil {
			return fmt.Errorf("cluster: add shard %s: %v (rollback also failed: %v)", name, err, uerr)
		}
		return fmt.Errorf("cluster: add shard %s: %w", name, err)
	}
	return nil
}

// RemoveShard shrinks the ring by one shard, first migrating every
// subscription it owns to the new owners. Removal of an unreachable shard
// works too: the expressions move from the coordinator's authoritative
// records, and deletes on the leaving shard are best-effort.
func (c *Coordinator) RemoveShard(ctx context.Context, name string) error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	c.mu.Lock()
	if c.shards[name] == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown shard %q", name)
	}
	if len(c.shards) == 1 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: cannot remove the last shard")
	}
	c.mu.Unlock()
	c.ring.remove(name)
	if moved, err := c.migrate(ctx); err != nil {
		c.ring.add(name)
		return fmt.Errorf("cluster: remove shard %s: %w", name, err)
	} else {
		c.log.Info("cluster: shard removed",
			slog.String("shard", name),
			slog.Int("migrated", moved))
	}
	c.mu.Lock()
	delete(c.shards, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	var reaped []predfilter.SID
	for sid, owner := range c.orphans {
		if owner == name {
			delete(c.orphans, sid) // its copy died with the shard
			reaped = append(reaped, sid)
		}
	}
	c.mu.Unlock()
	for _, sid := range reaped {
		c.persistReap(sid)
	}
	return nil
}

// migrate reconciles every subscription's placement with the current
// ring: each one whose owner changed is added to the new owner, then
// removed from the old. Callers hold adminMu (which keeps the ring and
// the record set stable); c.mu is taken only around map access, never
// across the shard calls, so publishes proceed throughout a migration —
// a document that lands during the add-before-remove window can see a
// moved sid on both shards, which the gather merge deduplicates. Shards
// being migrated *to* must be reachable (the data has to land
// somewhere); removal from the old owner is allowed to fail when that
// shard is gone — its copy is unreachable anyway, and re-running the
// migration is harmless because adds are idempotent under the same id.
func (c *Coordinator) migrate(ctx context.Context) (moved int, err error) {
	c.mu.Lock()
	sids := make([]predfilter.SID, 0, len(c.subs))
	for sid := range c.subs {
		sids = append(sids, sid)
	}
	c.mu.Unlock()
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	for _, sid := range sids {
		newOwner, oerr := c.ring.ownerSID(sid)
		if oerr != nil {
			return moved, oerr
		}
		c.mu.Lock()
		rec := c.subs[sid]
		var dst, src *shard
		if rec != nil && rec.owner != newOwner {
			dst = c.shards[newOwner]
			src = c.shards[rec.owner]
		}
		c.mu.Unlock()
		if rec == nil || rec.owner == newOwner {
			continue
		}
		if dst == nil {
			return moved, fmt.Errorf("migrate sid %d: ring names unknown shard %s", sid, newOwner)
		}
		cctx, cancel := context.WithTimeout(ctx, c.cfg.AdminTimeout)
		addErr := c.api.subscribe(cctx, dst.currentAddr(), sid, rec.expr)
		cancel()
		if addErr != nil {
			return moved, fmt.Errorf("migrate sid %d to %s: %w", sid, newOwner, addErr)
		}
		if src != nil {
			cctx, cancel := context.WithTimeout(ctx, c.cfg.AdminTimeout)
			_ = c.api.unsubscribe(cctx, src.currentAddr(), sid) // best-effort
			cancel()
		}
		c.mu.Lock()
		rec.owner = newOwner
		c.mu.Unlock()
		if c.st != nil {
			if perr := c.st.AppendOwner(uint32(sid), newOwner); perr != nil {
				c.log.Error("cluster: persist migration",
					slog.Int64("sid", int64(sid)),
					slog.String("shard", newOwner),
					slog.String("error", perr.Error()))
			}
		}
		moved++
	}
	return moved, nil
}
