// Package matcher implements the paper's filtering engine: XPath
// expressions are encoded as ordered sets of predicates (stored once in a
// shared predicate index), XML documents arrive as sets of encoded paths,
// and matching runs in the two stages of §4 — predicate matching followed
// by expression matching via occurrence determination.
//
// Three expression organizations are provided (§4.2.2):
//
//   - Basic: every expression is evaluated independently per path.
//   - PrefixCover (basic-pc): expressions are organized by shared
//     predicate-chain prefixes; evaluating a long expression marks all of
//     its prefix expressions matched without re-running occurrence
//     determination.
//   - PrefixCoverAP (basic-pc-ap): additionally clusters expressions by
//     their first predicate (the access predicate); a cluster whose access
//     predicate did not match is skipped wholesale.
//
// The organizations shape the scalar per-unit loop, which runs uncached
// only and is the reference the columnar kernel (columnar.go, the one
// every served entry point uses) and its path cache (cache.go) are held
// equal to; the kernel evaluates every unit independently, 64 at a time,
// and reads none of them.
//
// Registration is lazy and a change costs what it changes. Add and Remove
// touch the expression table and the SID lists only; the state derived
// from the set of distinct expressions (iteration units, columnar index,
// value ranks, path cache) is caught up at the next match, once for a whole
// run of Adds and in time proportional to what they added (catchUp). A
// change of SIDs alone — Remove, or Add of an expression already
// registered — changes nothing derived: results are resolved to SIDs when
// collected.
//
// Attribute filters follow §5 in either Inline mode (filters ride on the
// structural predicates) or Postponed mode (structural match first, filter
// verification after). Nested path filters are decomposed per §5 and
// recombined bottom-up over document node identities (see nested.go).
package matcher

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"predfilter/internal/guard"
	"predfilter/internal/metrics"
	"predfilter/internal/occur"
	"predfilter/internal/pathcache"
	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// SID identifies one registered expression (subscription). Duplicate
// expressions receive distinct SIDs but share all storage and evaluation.
type SID int32

// Variant selects the expression organization.
type Variant int

const (
	// Basic is the unoptimized organization.
	Basic Variant = iota
	// PrefixCover adds prefix-covering (basic-pc).
	PrefixCover
	// PrefixCoverAP adds access-predicate clustering on top of prefix
	// covering (basic-pc-ap).
	PrefixCoverAP
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case Basic:
		return "basic"
	case PrefixCover:
		return "basic-pc"
	case PrefixCoverAP:
		return "basic-pc-ap"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Options configures a Matcher.
type Options struct {
	Variant  Variant
	AttrMode predicate.AttrMode
	// DisablePathDedup turns off per-document deduplication of
	// structurally identical publications (kept for ablation benchmarks).
	DisablePathDedup bool
	// PathCacheBytes bounds the structural path-signature cache (see
	// internal/pathcache): 0 selects the default size
	// (pathcache.DefaultMaxBytes), a negative value disables the cache.
	PathCacheBytes int64
	// Metrics, when non-nil, receives per-document stage observations
	// (predicate matching, occurrence determination, cache time, total
	// match time) and the document/path/match counters. Recording follows
	// the zero-allocation contract of internal/metrics.
	Metrics *metrics.Set
}

// Matcher is the filtering engine. It is safe for concurrent MatchDocument
// calls; Add/Remove must not run concurrently with matching.
type Matcher struct {
	opts Options

	mu sync.RWMutex
	ix *predindex.Index
	// exprs holds the matched-flag slots in id order, append-only: every
	// distinct registered expression and, in Postponed mode, the synthetic
	// group representatives (which never carry sids).
	exprs    []*expr
	byKey    map[uint64][]*expr // chainHash → bucket, resolved by full compare
	sidOwner []*expr            // sid → owning expression (nil after Remove)
	nsids    int                // live sid count

	// The live SIDs of each expression in bind order, as flat columns
	// indexed by expression id that bind and Remove keep current (see
	// sids): sidOne[id] is the only SID, noSID for none, or manyRef(k)
	// when there are several, listed in sidMany[k]. Ids past sidOne's end
	// have none. sidFree lists the sidMany slots no expression uses.
	sidOne  []SID
	sidMany [][]SID
	sidFree []int

	// Derived from the distinct expressions, lazily (see catchUp):
	// exprs[:caught] are accounted for in units, nested and col.
	caught  int
	units   []*expr            // iteration units, in creation order
	reps    map[uint64][]*expr // Postponed: bare chainHash → group representatives
	nested  []*expr            // expressions with nested path filters
	needRes bool               // a unit is value-dependent or nested exists: cache entries carry a program, or a plan and a transcript

	// The scalar reference's organizations, built by freeze for
	// exprs[:frozen] when the uncached scalar loop next runs.
	frozen   int
	ordered  []hotExpr                   // units, longest chain first
	clusters map[predindex.PID][]hotExpr // access-predicate clusters, each longest first

	// attrSensitive is set once any registered predicate inspects
	// attribute values; it forces publication dedup keys to include them.
	attrSensitive bool

	// Path-signature cache (see cache.go); nil when disabled.
	cache *pathcache.Cache

	// mx receives stage observations when configured (Options.Metrics).
	mx *metrics.Set

	pool sync.Pool // *scratch

	// Columnar matching (see columnar.go): the column index, created by the
	// first columnar match — any scan, on every configuration — and
	// extended by every catch-up after it. The uncached scalar reference
	// loop never reads it.
	col     *colIndex
	colPool sync.Pool // *colScratch
}

// hotExpr packs the fields the per-path rejection loop touches into a
// flat slice entry: most expressions are rejected by their first or second
// predicate, and chasing an *expr pointer for that wastes the cache.
type hotExpr struct {
	id     int32
	first  predindex.PID
	second predindex.PID // NoPID when the chain has one predicate
	e      *expr
}

func hot(e *expr) hotExpr {
	h := hotExpr{id: int32(e.id), first: e.pids[0], second: predindex.NoPID, e: e}
	if len(e.pids) > 1 {
		h.second = e.pids[1]
	}
	return h
}

// expr is one distinct registered expression; its SIDs are in the
// matcher's SID columns under its id.
type expr struct {
	id int

	// Single-path expressions:
	pids []predindex.PID
	post []predicate.SideAttrs // postponed attribute filters; nil if none
	// postTests are post compiled against the engine's dictionary, what
	// filterChain evaluates; post stays the identity.
	postTests [][2][]predicate.Test
	// covers are the registered strict-prefix expressions of this one
	// (same pid chain and, in Postponed mode, same filter annotations).
	covers []*expr
	// members is set on group representatives only (Postponed mode): the
	// attribute-annotation variants sharing this bare structural chain.
	// The representative itself is synthetic (no sids); its matched flag
	// means "every member matched".
	members []*expr
	// Iteration units only (see addUnit): live marks a unit that does
	// attribute-value work, whose outcome the path cache cannot hold.
	live bool

	// Nested-path expressions:
	root *nestedNode // non-nil iff the expression has nested path filters
	nsrc string      // canonical source text, the dedup identity of a nested expression
}

// New returns an empty matcher with the given options.
func New(opts Options) *Matcher {
	m := &Matcher{
		opts:  opts,
		ix:    predindex.New(),
		byKey: make(map[uint64][]*expr),
		mx:    opts.Metrics,
	}
	if opts.PathCacheBytes >= 0 {
		m.cache = pathcache.New(opts.PathCacheBytes)
	}
	m.pool.New = func() any { return &scratch{} }
	m.colPool.New = func() any { return &colScratch{} }
	return m
}

// Add parses and registers an expression, returning its SID.
func (m *Matcher) Add(s string) (SID, error) {
	p, err := xpath.Parse(s)
	if err != nil {
		return 0, err
	}
	return m.AddPath(p)
}

// AddPath registers a parsed expression, returning its SID. Registration
// is constant-time in the number of stored expressions: predicates are
// deduplicated in the predicate index and identical expressions share one
// entry.
func (m *Matcher) AddPath(p *xpath.Path) (SID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, err := m.register(p)
	if err != nil {
		return 0, err
	}
	sid := SID(len(m.sidOwner))
	m.bind(e, sid)
	return sid, nil
}

// AddWithSID parses and registers an expression under a caller-chosen SID.
// It exists for durable stores replaying persisted subscriptions after a
// restart: a subscription keeps the id it was acknowledged with, so ids
// held by clients stay valid across recovery. The SID must not be live;
// plain Add continues from past the highest SID ever bound, so reclaimed
// and freshly assigned ids never collide.
func (m *Matcher) AddWithSID(s string, sid SID) error {
	p, err := xpath.Parse(s)
	if err != nil {
		return err
	}
	return m.AddPathWithSID(p, sid)
}

// AddPathWithSID is AddWithSID for a parsed expression.
func (m *Matcher) AddPathWithSID(p *xpath.Path, sid SID) error {
	if sid < 0 {
		return fmt.Errorf("matcher: negative sid %d", sid)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(sid) < len(m.sidOwner) && m.sidOwner[sid] != nil {
		return fmt.Errorf("matcher: sid %d is already registered", sid)
	}
	e, err := m.register(p)
	if err != nil {
		return err
	}
	for len(m.sidOwner) <= int(sid) {
		m.sidOwner = append(m.sidOwner, nil)
	}
	m.bind(e, sid)
	return nil
}

// register stores the expression (or finds its existing shared entry)
// without binding a SID. Callers hold the write lock.
func (m *Matcher) register(p *xpath.Path) (*expr, error) {
	if p.IsSinglePath() {
		return m.registerSingle(p)
	}
	return m.registerNested(p)
}

// bind attaches sid to e. Callers hold the write lock and guarantee the
// slot at sid is allocated and free (or exactly one past the end).
func (m *Matcher) bind(e *expr, sid SID) {
	if int(sid) == len(m.sidOwner) {
		m.sidOwner = append(m.sidOwner, nil)
	}
	m.sidOwner[sid] = e
	m.nsids++
	for len(m.sidOne) <= e.id {
		m.sidOne = append(m.sidOne, noSID)
	}
	switch v := m.sidOne[e.id]; {
	case v == noSID:
		m.sidOne[e.id] = sid
	case v >= 0:
		k := len(m.sidMany)
		if n := len(m.sidFree); n > 0 {
			k, m.sidFree = m.sidFree[n-1], m.sidFree[:n-1]
		} else {
			m.sidMany = append(m.sidMany, nil)
		}
		m.sidMany[k] = append(m.sidMany[k][:0], v, sid)
		m.sidOne[e.id] = manyRef(k)
	default:
		k := manyIndex(v)
		m.sidMany[k] = append(m.sidMany[k], sid)
	}
}

// noSID marks an expression without live SIDs in sidOne; manyRef and
// manyIndex map a sidMany slot to the negative sidOne value below it and
// back.
const noSID SID = -1

func manyRef(k int) SID   { return SID(-2 - k) }
func manyIndex(v SID) int { return int(-2 - v) }

// sids returns the live SIDs bound to expression id, in bind order, as a
// view of the SID columns that is good until the next bind or Remove.
func (m *Matcher) sids(id int) []SID {
	if id < len(m.sidOne) {
		switch v := m.sidOne[id]; {
		case v >= 0:
			return m.sidOne[id : id+1]
		case v != noSID:
			return m.sidMany[manyIndex(v)]
		}
	}
	return nil
}

// Remove unregisters a SID. The expression and its predicates remain in
// the index (the paper does not evaluate deletion; garbage collection is
// out of scope), but the SID stops being reported. Nothing derived from
// the expression set changes, the path cache included.
func (m *Matcher) Remove(sid SID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(sid) >= len(m.sidOwner) || m.sidOwner[sid] == nil {
		return fmt.Errorf("matcher: unknown sid %d", sid)
	}
	id := m.sidOwner[sid].id
	m.sidOwner[sid] = nil
	m.nsids--
	v := m.sidOne[id]
	if v >= 0 {
		m.sidOne[id] = noSID
		return nil
	}
	k := manyIndex(v)
	i := slices.Index(m.sidMany[k], sid)
	rest := slices.Delete(m.sidMany[k], i, i+1)
	if len(rest) > 1 {
		m.sidMany[k] = rest
		return nil
	}
	m.sidOne[id] = rest[0]
	m.sidMany[k] = rest[:0]
	m.sidFree = append(m.sidFree, k)
	return nil
}

// registerSingle encodes a single-path expression and either returns the
// existing identical expression or creates a new entry.
func (m *Matcher) registerSingle(p *xpath.Path) (*expr, error) {
	enc, err := predicate.Encode(p, m.opts.AttrMode)
	if err != nil {
		return nil, err
	}
	pids := make([]predindex.PID, len(enc.Preds))
	for i, pr := range enc.Preds {
		pids[i] = m.ix.Insert(pr)
	}
	key := chainHashFn(pids, enc.PostAttrs)
	for _, e := range m.byKey[key] {
		// Bucket hit: the hash narrows the candidates, the full encoded
		// chain (pids plus postponed annotations) decides identity, so a
		// 64-bit collision can never alias two distinct expressions.
		if e.root == nil && pidsEqual(e.pids, pids) && postEqual(e.post, enc.PostAttrs) {
			return e, nil
		}
	}
	e := &expr{id: len(m.exprs), pids: pids}
	if enc.HasPostAttrs() {
		e.post, e.postTests = enc.PostAttrs, m.compilePost(enc)
		m.attrSensitive = true
	}
	for _, pr := range enc.Preds {
		if pr.HasAttrs() {
			m.attrSensitive = true
		}
	}
	m.exprs = append(m.exprs, e)
	m.byKey[key] = append(m.byKey[key], e)
	return e, nil
}

// pidsEqual reports whether two predicate chains are identical.
func pidsEqual(a, b []predindex.PID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// attrFiltersEqual compares two filter lists element-wise (AttrFilter is
// a comparable struct).
func attrFiltersEqual(a, b []xpath.AttrFilter) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sideAttrsEqual compares the postponed annotations of one chain level.
func sideAttrsEqual(a, b predicate.SideAttrs) bool {
	return attrFiltersEqual(a.Left, b.Left) && attrFiltersEqual(a.Right, b.Right)
}

// postEqual compares postponed annotation vectors; nil is equivalent to
// all-empty (matching the chainHash convention, so bucket compares agree
// with the hash's notion of bare structural identity).
func postEqual(a, b []predicate.SideAttrs) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var x, y predicate.SideAttrs
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if !sideAttrsEqual(x, y) {
			return false
		}
	}
	return true
}

// catchUp accounts for the distinct expressions registered since the last
// catch-up, in time proportional to their number: each becomes (Inline
// mode) or joins (Postponed mode: the attribute-annotation variants of one
// bare structural chain share a synthetic group representative, so the
// structural occurrence determination runs once per chain per path and
// only the attribute verification repeats per variant, §5) an iteration
// unit, the columnar index places the new units, and the path cache drops
// what they can affect. It must run under the write lock and is an
// idempotent no-op when nothing was registered.
func (m *Matcher) catchUp() {
	added := m.exprs[m.caught:]
	for _, e := range added {
		if e.root != nil {
			m.nested = append(m.nested, e)
			m.needRes = true
			continue
		}
		u := e
		if m.opts.AttrMode == predicate.Postponed {
			u = m.groupOf(e) // may append a representative to m.exprs, past added
			u.members = append(u.members, e)
			u.live = u.live || e.post != nil
		} else {
			m.addUnit(e)
		}
		m.needRes = m.needRes || u.live
	}
	m.caught = len(m.exprs)
	m.ix.Vals.Rerank()
	m.cacheEffect(added)
	if m.col != nil {
		m.col.extend(m.units)
	}
}

// stale reports whether something was registered that catchUp has not
// accounted for: a distinct expression, or a dictionary constant with no
// expression to show for it (a registration that failed after interning).
// Constants are ranked under the write lock only; matching reads the ranks.
func (m *Matcher) stale() bool { return m.caught != len(m.exprs) || m.ix.Vals.Dirty() }

// addUnit makes u an iteration unit: a column of the columnar index, an
// entry of the scalar loop.
func (m *Matcher) addUnit(u *expr) {
	for _, pid := range u.pids {
		if ts := m.ix.Tests(pid); ts[0] != nil || ts[1] != nil {
			u.live = true
			break
		}
	}
	m.units = append(m.units, u)
}

// groupOf returns the group representative of e's bare structural chain,
// allocating it — one matched-flag slot and one unit, for good — when e is
// the chain's first variant.
func (m *Matcher) groupOf(e *expr) *expr {
	key := chainHashFn(e.pids, nil) // bare structural identity
	for _, r := range m.reps[key] {
		if pidsEqual(r.pids, e.pids) {
			return r
		}
	}
	rep := &expr{id: len(m.exprs), pids: e.pids}
	m.exprs = append(m.exprs, rep)
	if m.reps == nil {
		m.reps = make(map[uint64][]*expr)
	}
	m.reps[key] = append(m.reps[key], rep)
	m.addUnit(rep)
	return rep
}

// byChainLen places expressions by chain length, keeping their order
// within a length: the stable sort by length both of freeze's orders need,
// without comparing.
func byChainLen(es []*expr) [][]*expr {
	var byLen [][]*expr
	for _, e := range es {
		for len(byLen) <= len(e.pids) {
			byLen = append(byLen, nil)
		}
		byLen[len(e.pids)] = append(byLen[len(e.pids)], e)
	}
	return byLen
}

// freeze catches up and rebuilds the organizations of the scalar
// reference — prefix covers, the longest-first unit order,
// the access-predicate clusters — which the served kernel never reads. It
// must run under the write lock; it is an idempotent no-op when nothing
// changed.
func (m *Matcher) freeze() {
	m.catchUp()
	if m.frozen == m.caught {
		return
	}
	var singles []*expr
	for _, e := range m.exprs {
		if e.root == nil && e.members == nil {
			singles = append(singles, e)
		}
	}

	// Prefix-cover bookkeeping: group by chain to find registered strict
	// prefixes. A trie over (pid, annotation) levels; each node remembers
	// the expression ending there. Children are hash buckets resolved by
	// comparing the level's full identity, so colliding level hashes can
	// never merge two distinct prefixes.
	type tnode struct {
		pid      predindex.PID
		pa       predicate.SideAttrs
		children map[uint64][]*tnode
		e        *expr
	}
	root := &tnode{children: make(map[uint64][]*tnode)}
	insert := func(e *expr) {
		n := root
		var covers []*expr
		for i, pid := range e.pids {
			k := levelHashFn(pid, e.post, i)
			var pa predicate.SideAttrs
			if e.post != nil {
				pa = e.post[i]
			}
			var c *tnode
			for _, cand := range n.children[k] {
				if cand.pid == pid && sideAttrsEqual(cand.pa, pa) {
					c = cand
					break
				}
			}
			if c == nil {
				c = &tnode{pid: pid, pa: pa, children: make(map[uint64][]*tnode)}
				n.children[k] = append(n.children[k], c)
			}
			n = c
			if n.e != nil && i < len(e.pids)-1 {
				covers = append(covers, n.e)
			}
		}
		n.e = e
		e.covers = covers
	}
	// Insert shortest first so that when a long chain is inserted all of
	// its prefix expressions are already present.
	for _, sameLen := range byChainLen(singles) {
		for _, e := range sameLen {
			insert(e)
		}
	}

	// Longest chains first: evaluating the most-covering expressions first
	// is the paper's approximation of best covering order (§4.2.2).
	m.ordered = m.ordered[:0]
	byLen := byChainLen(m.units)
	for n := len(byLen) - 1; n >= 0; n-- {
		for _, u := range byLen[n] {
			m.ordered = append(m.ordered, hot(u))
		}
	}

	// Access-predicate clusters, keyed by the first pid.
	m.clusters = make(map[predindex.PID][]hotExpr)
	for _, h := range m.ordered { // already longest-first
		m.clusters[h.first] = append(m.clusters[h.first], h)
	}
	m.frozen = m.caught
}

// Stats summarizes engine state.
type Stats struct {
	SIDs                int // live registered expressions (with duplicates)
	DistinctExpressions int // distinct expressions with a live SID
	DistinctPredicates  int // never falls: predicates are not collected
	NestedExpressions   int // those of DistinctExpressions with nested path filters
	// PathCache reports the structural path-signature cache counters;
	// zero-valued when the cache is disabled (PathCacheEnabled false).
	PathCacheEnabled bool
	PathCache        pathcache.Stats
}

// Stats returns engine statistics; the distinct-predicate count is the
// quantity the paper tracks in Figure 10.
func (m *Matcher) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := Stats{SIDs: m.nsids, DistinctPredicates: m.ix.Len()}
	for _, e := range m.exprs {
		if len(m.sids(e.id)) == 0 {
			continue // unsubscribed, or a group representative
		}
		st.DistinctExpressions++
		if e.root != nil {
			st.NestedExpressions++
		}
	}
	if m.cache != nil {
		st.PathCacheEnabled = true
		st.PathCache = m.cache.Stats()
	}
	return st
}

// Breakdown is the per-call cost split of Figure 10, extended with the
// path-signature cache stage.
type Breakdown struct {
	PredMatch time.Duration // predicate matching stage
	ExprMatch time.Duration // expression matching (occurrence determination)
	Other     time.Duration // result collection and bookkeeping
	Cache     time.Duration // path-signature cache probes (signature build + lookup)
	Sweep     time.Duration // columnar bitset sweep, a sub-stage of ExprMatch (zero on scalar paths)
	Total     time.Duration // the whole match as observed in the match-stage histogram
}

// scratch is the pooled working state of one document, and the state of
// the per-document protocol: the kernel (cs; nil selects the scalar
// reference), budget and stage clocks the document runs under. It is the
// xmldoc.Visitor a scanned document's paths are matched by (Path).
type scratch struct {
	m     *Matcher
	cs    *colScratch
	bud   *guard.Budget
	dedup bool
	bd    Breakdown
	stats colStats // cs.stats as the document began: what discarding its work restores

	res     *predindex.Results
	matched []bool
	chain   [][]occur.Pair
	filt    [][]occur.Pair
	pairBuf []occur.Pair
	byTag   map[string][]*xmldoc.Tuple
	byTagOK bool
	out     []SID
	pub     *xmldoc.Publication
	ncands  map[*nestedNode][]nestedCand
	seen    map[uint64]struct{} // per-document distinct publication hashes

	// Path-cache working state (see cache.go). matched2 is kept all-false
	// between uses: cache misses evaluate structural units against it with
	// logging on, then undo exactly the logged marks. pass holds a hit
	// program's test results.
	sig      []byte
	rec      predindex.Recording
	matched2 []bool
	log      []int32
	logging  bool
	pass     []uint64
}

// mark sets an expression (or group-representative) matched flag, logging
// the transition when a cache miss is recording the structural outcome.
// All stage-2 mark sites go through here so the log captures every id the
// structural units touch.
func (sc *scratch) mark(id int) {
	if sc.matched[id] {
		return
	}
	sc.matched[id] = true
	if sc.logging {
		sc.log = append(sc.log, int32(id))
	}
}

// getScratch takes a scratch for one document matched on cs under bud.
func (m *Matcher) getScratch(cs *colScratch, bud *guard.Budget) *scratch {
	sc := m.pool.Get().(*scratch)
	sc.m, sc.cs, sc.bud, sc.dedup = m, cs, bud, m.pathDedup()
	if cs != nil {
		sc.stats = cs.stats
	}
	if sc.res == nil {
		sc.res = predindex.NewResults(m.ix.Len())
	}
	// Both flag arrays grow with headroom: under distinct churn every
	// registration adds a slot, and every pooled scratch would reallocate.
	slots := len(m.exprs)
	if cap(sc.matched) < slots {
		sc.matched = make([]bool, slots, slots+slots/8)
	} else {
		sc.matched = sc.matched[:slots]
	}
	if m.cache != nil {
		// matched2 is all-false by invariant (misses undo their marks), so
		// growth allocates fresh zeroes and reslicing needs no clearing.
		if cap(sc.matched2) < slots {
			sc.matched2 = make([]bool, slots, slots+slots/8)
		} else {
			sc.matched2 = sc.matched2[:slots]
		}
	}
	if sc.byTag == nil {
		sc.byTag = make(map[string][]*xmldoc.Tuple)
	}
	if sc.ncands == nil {
		sc.ncands = make(map[*nestedNode][]nestedCand)
	}
	if sc.seen == nil {
		sc.seen = make(map[uint64]struct{})
	}
	sc.reset()
	return sc
}

// reset starts the document afresh: no marks, paths seen, nested-path
// candidates or resolved values (the ranks may be new), no stage time.
func (sc *scratch) reset() {
	clear(sc.matched)
	clear(sc.seen)
	clear(sc.ncands)
	sc.res.Vals.Reset()
	sc.out = sc.out[:0]
	sc.bd = Breakdown{}
}

// Path matches one root-to-leaf path of the document. Once the budget
// trips the remaining paths are skipped: the budget's error is the
// document's verdict, unless a scan's own verdict beats it.
func (sc *scratch) Path(pub *xmldoc.Publication) {
	if sc.bud.CheckPoint() {
		sc.m.matchPath(sc, pub)
	}
}

// Restart discards the document's work when its scan falls back to
// encoding/xml, which emits every path again: marks, resolved values,
// stage clocks, kernel counters and spent budget.
func (sc *scratch) Restart() {
	sc.reset()
	sc.bud.Restart()
	if sc.cs != nil {
		sc.cs.stats = sc.stats
	}
}

// MatchDocument returns the SIDs of all expressions matched by the
// document (paper semantics: an expression matches the document iff it
// matches at least one of its root-to-leaf paths; nested-path expressions
// recombine per-path results over the document tree).
func (m *Matcher) MatchDocument(doc *xmldoc.Document) []SID {
	sids, _ := m.MatchDocumentBreakdown(doc)
	return sids
}

// ensureFrozen returns with the read lock held and the scalar
// organizations up to date. The read lock cannot be upgraded atomically,
// so after concurrent Adds several matchers may race through the
// RUnlock→Lock window; freeze is an idempotent no-op once the first one
// rebuilt, and the condition is re-checked after every downgrade so a
// registration that slipped into the window is accounted for too rather
// than matched against a stale organization.
func (m *Matcher) ensureFrozen() {
	m.mu.RLock()
	for m.stale() || m.frozen != m.caught {
		m.mu.RUnlock()
		m.mu.Lock()
		m.freeze()
		m.mu.Unlock()
		m.mu.RLock()
	}
}

// matchPath runs the two matching stages for one publication, folding
// results into sc and the Figure-10 stage timings into sc.bd. sc.cs
// carries the columnar kernel's state; nil selects the scalar reference
// loop, which exists only uncached. Effort is charged to sc.bud (nil is
// unlimited); once it trips the path is abandoned and the caller must
// surface its error instead of a result. Callers must hold the read lock
// with the derived state of their kernel (ensureColumnar, ensureFrozen)
// current.
func (m *Matcher) matchPath(sc *scratch, pub *xmldoc.Publication) {
	sc.pub = pub
	sc.byTagOK = false
	cs, bd, bud := sc.cs, &sc.bd, sc.bud

	t0 := time.Now()
	if sc.dedup {
		key := pubHash(pub, m.attrSensitive)
		if _, ok := sc.seen[key]; ok {
			bd.PredMatch += time.Since(t0)
			return
		}
		sc.seen[key] = struct{}{}
	}
	if m.cache != nil {
		m.matchPathCached(sc, cs, pub, bd, t0, bud)
		return
	}
	sc.res.Reset(m.ix.Len())
	var ambiguous bool
	if cs != nil {
		ambiguous = cs.resolveTids(pub)
		cs.ci.lay.MatchPathTids(pub, cs.tids, sc.res, nil)
	} else {
		m.ix.MatchPath(pub, sc.res)
	}
	t1 := time.Now()
	bd.PredMatch += t1.Sub(t0)

	if cs != nil {
		acc := m.colSweep(sc.res.Touched(), cs, ambiguous, bd, bud)
		if bud.Exceeded() {
			return
		}
		m.markCandidates(sc, cs, acc, false, ambiguous, bud)
	} else {
		m.runUnits(sc, bud)
	}
	for _, e := range m.nested {
		e.root.collect(m, sc, bud)
	}
	bd.ExprMatch += time.Since(t1)
}

// runUnits is the scalar reference's expression-matching stage: the
// paper's per-unit loop over the frozen organization against sc.res.
func (m *Matcher) runUnits(sc *scratch, bud *guard.Budget) {
	switch m.opts.Variant {
	case Basic, PrefixCover:
		cover := m.opts.Variant == PrefixCover
		for _, h := range m.ordered {
			if bud.Exceeded() {
				return
			}
			if sc.matched[h.id] || !sc.res.Matched(h.first) {
				continue
			}
			if h.second != predindex.NoPID && !sc.res.Matched(h.second) {
				continue
			}
			m.evalExpr(sc, h.e, cover, bud)
		}
	case PrefixCoverAP:
		// Access-predicate clustering: only clusters whose first
		// predicate matched this path are visited at all; the matched
		// predicates come straight from the predicate matching stage.
		for _, pid := range sc.res.Touched() {
			for _, h := range m.clusters[pid] {
				if bud.Exceeded() {
					return
				}
				if sc.matched[h.id] {
					continue
				}
				if h.second != predindex.NoPID && !sc.res.Matched(h.second) {
					continue
				}
				m.evalExpr(sc, h.e, true, bud)
			}
		}
	}
}

// pathDedup reports whether per-document path deduplication is active.
// Structurally identical publications produce identical matching results
// (the predicate rules see only tags, positions and, for attribute-
// carrying predicates, attribute values), but node identity matters to
// nested-path recombination, so dedup is disabled when nested expressions
// are registered.
func (m *Matcher) pathDedup() bool {
	return len(m.nested) == 0 && !m.opts.DisablePathDedup
}

// MatchDocumentBreakdown is MatchDocument with the Figure-10 cost split.
func (m *Matcher) MatchDocumentBreakdown(doc *xmldoc.Document) ([]SID, Breakdown) {
	sids, bd, _ := m.MatchDocumentBudget(doc, nil)
	return sids, bd
}

// MatchDocumentBudget is MatchDocumentBreakdown charging the match to a
// per-document budget. A nil budget is unlimited and never errors. Once
// the budget trips — step bound, deadline, or cancellation — matching
// stops and the budget's *guard.LimitError is returned; the partial marks
// are discarded, never reported as "no match". With the path cache off
// this is the scalar reference loop, honoring Options.Variant; with it on
// there is one cached kernel and this is MatchDocumentColumnar.
func (m *Matcher) MatchDocumentBudget(doc *xmldoc.Document, bud *guard.Budget) ([]SID, Breakdown, error) {
	if m.cache != nil {
		return m.MatchDocumentColumnar(doc, bud)
	}
	t0 := time.Now()
	m.ensureFrozen()
	defer m.mu.RUnlock()
	return m.matchDoc(nil, doc, bud, t0)
}

// matchDoc is the per-document protocol over a materialized Document:
// getScratch, Path per path (matchPath behind the budget checkpoint), end,
// observe. MatchScanned runs the same protocol with the scan feeding Path.
// t0 is when the caller's clock for this document started. Callers hold
// the read lock as for matchPath.
func (m *Matcher) matchDoc(cs *colScratch, doc *xmldoc.Document, bud *guard.Budget, t0 time.Time) ([]SID, Breakdown, error) {
	sc := m.getScratch(cs, bud)
	defer m.pool.Put(sc)
	for i := range doc.Paths {
		if bud.Exceeded() {
			break
		}
		sc.Path(&doc.Paths[i])
	}
	out, err := m.end(sc)
	bd := sc.bd
	if err == nil {
		bd.Total = time.Since(t0)
		m.observe(&bd, len(doc.Paths), len(out))
	}
	return out, bd, err
}

// end closes the document's match: the budget's error, or nested-path
// recombination and the matched SIDs, collect's time in sc.bd.Other.
func (m *Matcher) end(sc *scratch) ([]SID, error) {
	if err := sc.bud.Err(); err != nil {
		return nil, err
	}
	t := time.Now()
	out := m.collect(sc)
	sc.bd.Other = time.Since(t)
	return out, nil
}

// collect resolves nested-path candidates and returns the SIDs of the
// matched flags: expression order, then bind order. A flag's index is its
// expression's id, so the walk reads the SID columns at the matched ids
// only, and an expression with one SID — most of them — costs one load
// from sidOne.
func (m *Matcher) collect(sc *scratch) []SID {
	for _, e := range m.nested {
		if e.root.resolveRoot(sc) {
			sc.matched[e.id] = true
		}
	}
	clear(sc.ncands)
	one, out := m.sidOne, sc.out
	for id, ok := range sc.matched[:min(len(sc.matched), len(one))] {
		if !ok {
			continue
		}
		if v := one[id]; v >= 0 {
			out = append(out, v)
		} else if v != noSID {
			out = append(out, m.sidMany[manyIndex(v)]...)
		}
	}
	sc.out = out
	return append([]SID(nil), out...)
}

// observe folds one document's stage breakdown and whole-match duration
// into the metric set. The recording contract is zero allocations, so this
// is safe on every match path.
func (m *Matcher) observe(bd *Breakdown, paths, matches int) {
	if m.mx == nil {
		return
	}
	m.mx.PredMatch.Observe(bd.PredMatch)
	m.mx.Occur.Observe(bd.ExprMatch + bd.Other)
	if m.cache != nil {
		m.mx.Cache.Observe(bd.Cache)
	}
	if bd.Sweep > 0 {
		m.mx.ColSweep.Observe(bd.Sweep)
	}
	m.mx.Match.Observe(bd.Total)
	m.mx.DocsTotal.Inc()
	m.mx.PathsTotal.Add(int64(paths))
	m.mx.MatchesTotal.Add(int64(matches))
}

// evalExpr evaluates one single-path expression against the current
// publication's predicate results. With cover set (the scalar pc
// variants), a successful — or exhausted — occurrence determination marks
// the expression's registered prefix expressions up to the reached depth.
func (m *Matcher) evalExpr(sc *scratch, e *expr, cover bool, bud *guard.Budget) {
	chain := sc.chain[:0]
	for _, pid := range e.pids {
		r := sc.res.Get(pid)
		if len(r) == 0 {
			sc.chain = chain
			return
		}
		chain = append(chain, r)
	}
	sc.chain = chain

	if e.members != nil {
		m.evalGroup(sc, e, chain, cover, bud)
		return
	}

	ok, depth := occur.DetermineBudget(chain, bud)
	if bud.Exceeded() {
		return
	}
	if ok {
		sc.mark(e.id)
	}
	if cover {
		m.markCovers(sc, e, depth)
	}
}

// evalGroup evaluates one structural-chain group (Postponed mode): the
// shared structural occurrence determination runs once; each member's
// attribute filters are then verified over the filtered results (the
// repeated determination §5 describes). The representative's matched flag
// is set once every member matched, so later paths skip the group.
func (m *Matcher) evalGroup(sc *scratch, rep *expr, chain [][]occur.Pair, cover bool, bud *guard.Budget) {
	ok, depth := occur.DetermineBudget(chain, bud)
	if bud.Exceeded() {
		return
	}
	done := true
	for _, mem := range rep.members {
		if sc.matched[mem.id] {
			continue
		}
		if mem.post == nil {
			if ok {
				sc.mark(mem.id)
			} else {
				done = false
			}
			if cover {
				m.markCovers(sc, mem, depth)
			}
			continue
		}
		if !ok {
			// Structural depth must not mark covers for filter-carrying
			// members: their annotations were not applied.
			done = false
			continue
		}
		filtered, nonempty := m.filterChain(sc, mem.pids, mem.postTests, chain)
		if !nonempty {
			done = false
			continue
		}
		fok, fdepth := occur.DetermineBudget(filtered, bud)
		if bud.Exceeded() {
			return
		}
		if fok {
			sc.mark(mem.id)
		} else {
			done = false
		}
		if cover {
			m.markCovers(sc, mem, fdepth)
		}
	}
	if done {
		sc.mark(rep.id)
	}
}

// markCovers marks what the scalar organizations know e to cover: every
// registered prefix expression whose chain length is within the consistent
// depth reached by occurrence determination — a consistent partial
// assignment of length k is a match of the length-k prefix (§4.2.2).
func (m *Matcher) markCovers(sc *scratch, e *expr, depth int) {
	for _, c := range e.covers {
		if len(c.pids) <= depth {
			sc.mark(c.id)
		}
	}
}
