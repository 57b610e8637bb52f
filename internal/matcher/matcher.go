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
// The organizations shape the scalar per-unit loop, the reference the
// columnar kernel (columnar.go) and its path cache (cache.go) are held
// equal to; the kernel evaluates every unit independently, 64 at a time,
// and reads none of them. One setting picks the kernel, on every entry
// point: Options.PathCacheBytes < 0 runs the scalar loop under
// Options.Variant, any other value the cached columnar kernel.
//
// Registration is lazy and a change costs what it changes. Add and Remove
// touch the expression table and the SID lists only; the state derived
// from the set of distinct expressions (iteration units, columnar index,
// value ranks, path cache) is caught up at the next match, once for a whole
// run of Adds and in time proportional to what they added (catchUp). A
// change of SIDs alone — Remove, or Add of an expression already
// registered — changes only the output column of the expression's block
// of 64 ids (emit.go), which the catch-up re-renders.
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

	"predfilter/internal/bitset"
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
	// PathCacheBytes picks the kernel and bounds its structural
	// path-signature cache (see internal/pathcache): a negative value
	// selects the scalar reference loop, which has no cache; any other the
	// cached columnar kernel, 0 with the default bound
	// (pathcache.DefaultMaxBytes). A bound below an entry's size keeps no
	// entry, so every path is a miss that builds and runs its own.
	PathCacheBytes int64
	// Metrics, when non-nil, receives each document's match-stage
	// observation and its document, path, work and match counters.
	// Recording follows the zero-allocation contract of internal/metrics.
	Metrics *metrics.Set
}

// Matcher is the filtering engine. Every method is safe for concurrent
// use. Matching holds the read lock for a whole document or batch and
// registration (Add, AddWithSID, Remove) the write lock, so a
// registration waits for the matches in flight and a document is matched
// against the registrations that preceded its lock: an expression added
// meanwhile misses it, a SID removed meanwhile is still in its result. The
// state derived from the registrations, the SID blocks included, is
// brought up to date only under the write lock, by the first match after
// a change.
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

	// The SID columns again, as output columns per block of 64 expression
	// ids (see emit.go); redo lists the blocks bind and Remove marked dirty.
	blocks []sidBlock
	redo   []int32

	// Derived from the distinct expressions, lazily (see catchUp):
	// exprs[:caught] are accounted for in units, nested and col.
	caught int
	units  []*expr            // iteration units, in creation order
	reps   map[uint64][]*expr // Postponed: bare chainHash → group representatives
	nested []*expr            // expressions with nested path filters
	nodes  []*nestedNode      // their sub-expressions, by nestedNode.id

	// The scalar reference's organizations, built by freeze for
	// exprs[:frozen] when the scalar loop next runs.
	frozen   int
	ordered  []hotExpr                   // units, longest chain first
	clusters map[predindex.PID][]hotExpr // access-predicate clusters, each longest first

	// attrSensitive is set once any registered predicate inspects
	// attribute values; it forces publication dedup keys to include them.
	attrSensitive bool

	// Path-signature cache (see cache.go); nil on the scalar reference.
	cache *pathcache.Cache

	// mx receives stage observations when configured (Options.Metrics).
	mx *metrics.Set

	pool sync.Pool // *scratch

	// Columnar matching (see columnar.go): the column index, extended by
	// every catch-up; nil on the scalar reference, which never reads it.
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
	root *nestedNode   // non-nil iff the expression has nested path filters
	subs []*nestedNode // the nodes of root's tree
	nsrc string        // canonical source text, the dedup identity of a nested expression
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
		m.col = &colIndex{wordOff: []int32{0}}
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
	m.touch(e.id)
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
	m.touch(id)
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

// catchUp re-renders the SID blocks bind and Remove dirtied and accounts
// for the distinct expressions registered since the last catch-up, in time
// proportional to their number: each becomes (Inline
// mode) or joins (Postponed mode: the attribute-annotation variants of one
// bare structural chain share a synthetic group representative, so the
// structural occurrence determination runs once per chain per path and
// only the attribute verification repeats per variant, §5) an iteration
// unit, the columnar index places the new units, and the path cache drops
// what they can affect. It must run under the write lock and is an
// idempotent no-op when nothing was registered.
func (m *Matcher) catchUp() {
	m.render()
	added := m.exprs[m.caught:]
	for _, e := range added {
		if e.root != nil {
			m.nested = append(m.nested, e)
			for _, n := range e.subs {
				n.id = len(m.nodes)
				m.nodes = append(m.nodes, n)
			}
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
	}
	m.caught = len(m.exprs)
	m.ix.Vals.Rerank()
	m.cacheEffect(added)
	if m.col != nil {
		m.col.extend(m.units, m.ix.Len())
	}
}

// stale reports whether something was registered that catchUp has not
// accounted for: a distinct expression, a dirty SID block, or an unranked
// dictionary constant. A rejected registration inserts and interns
// nothing (registerNested), so the last is a guard. Constants are ranked
// under the write lock only; matching reads the ranks.
func (m *Matcher) stale() bool {
	return m.caught != len(m.exprs) || len(m.redo) > 0 || m.ix.Vals.Dirty()
}

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

// Breakdown is the per-call cost of a materialized document's match.
// PredMatch, ExprMatch and Other are Figure 10's split, filled only by the
// scalar reference loop that the figure measures (MatchDocument with
// PathCacheBytes < 0); the cached kernel fills Total alone, and its work
// counters say where the match went.
type Breakdown struct {
	PredMatch time.Duration // predicate matching stage
	ExprMatch time.Duration // expression matching (occurrence determination)
	Other     time.Duration // result collection and bookkeeping
	Total     time.Duration // the whole match as observed in the match-stage histogram
}

// docWork counts what the kernel did for one document; observe flushes it.
type docWork struct {
	paths int // paths that survived dedup
	tests int // attribute tests hit programs evaluated
	evals int // units the columnar kernel sent through occurrence determination
	pairs int // occurrence pairs Determine and Support visited
}

// scratch is the pooled working state of one document, and the state of
// the per-document protocol: the kernel (cs; nil on the scalar reference),
// budget and match clock the document runs under. It is the
// xmldoc.Visitor a scanned document's paths are matched by (Path).
type scratch struct {
	m     *Matcher
	cs    *colScratch
	bud   *guard.Budget
	dedup bool
	count *counter      // set on a counted document: its paths count instead
	match time.Duration // one clock pair per distinct path, plus collection
	bd    Breakdown     // the scalar loop's split
	work  docWork
	stats colStats // cs.stats as the document began: what discarding its work restores

	res     *predindex.Results
	matched []bool
	chain   [][]occur.Pair
	filt    [][]occur.Pair
	pairBuf []occur.Pair
	occBuf  []uint64 // occur.Determine's bitsets, occur.Support's counts
	on      []uint64 // occur.Support's per-pair counts
	out     []SID
	sidBits []uint64 // collect's SID bitset, all-zero between uses
	pub     *xmldoc.Publication
	// seen maps the document's distinct path keys (key) to the nested
	// record their first path made (rec: an index of npaths, -1 for none).
	seen map[uint64]int32
	rec  int32

	// The document's nested-path records (nested.go) over the slabs npass
	// and nids; resolve's branch tables (tabs), and its witness sets as runs
	// of wits, the children's on spans.
	npaths []nestPath
	npass  []uint64
	nids   []int32
	tabs   [][]int32
	wits   []int32
	spans  [][2]int32

	// Path-cache working state (see cache.go). matched2 is kept all-false
	// between uses: cache misses evaluate structural units against it with
	// logging on, then undo exactly the logged marks. shapes indexes the
	// document's shape records by Shape.
	sig       []byte
	matched2  []bool
	log       []int32
	logging   bool
	shapes    map[uint64]int32
	recs      []shapeRec
	recTuples []xmldoc.Tuple
	recPass   []uint64
	fresh     []bool // progTests: per tuple of the path, whether its tests are decided again
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
	sc.m, sc.cs, sc.bud, sc.dedup, sc.count = m, cs, bud, m.pathDedup(), nil
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
	if w := bitset.Words(len(m.sidOwner)); len(sc.sidBits) < w {
		sc.sidBits = make([]uint64, w+w/8)
	}
	if sc.seen == nil {
		// The shape slabs start at a large document's size: a fresh scratch
		// (the pool drops them at GC) does not grow them step by step.
		sc.seen, sc.shapes = make(map[uint64]int32), make(map[uint64]int32, 32)
		sc.recs, sc.recTuples, sc.recPass = make([]shapeRec, 0, 32), make([]xmldoc.Tuple, 0, 256), make([]uint64, 0, 128)
	}
	sc.reset()
	return sc
}

// reset starts the document afresh: no marks, paths seen, shape records
// or nested records (pointers cleared), or resolved values (the ranks may
// be new), no match time or work.
func (sc *scratch) reset() {
	clear(sc.matched)
	clear(sc.seen)
	clear(sc.npaths)
	sc.npaths, sc.npass, sc.nids = sc.npaths[:0], sc.npass[:0], sc.nids[:0]
	clear(sc.shapes)
	clear(sc.recs)
	clear(sc.recTuples)
	sc.recs, sc.recTuples, sc.recPass = sc.recs[:0], sc.recTuples[:0], sc.recPass[:0]
	sc.res.Vals.Reset()
	sc.out = sc.out[:0]
	sc.match, sc.bd, sc.work = 0, Breakdown{}, docWork{}
}

// discard restores the columnar counters to what they were as the document
// began, dropping its kernel work.
func (sc *scratch) discard() {
	if sc.cs != nil {
		sc.cs.stats = sc.stats
	}
}

// Path matches one root-to-leaf path of the document, unless the document
// had it already: a repeated path costs one probe, records its node ids
// against the first one's nested record and replays its counts, and reads
// no clock, not even the budget's, so its time is parse time. A distinct
// path reads the clock twice, around matchPath, into the match time. Once
// the budget trips the remaining paths are skipped: the budget's error is
// the document's verdict, unless a scan's own verdict beats it.
func (sc *scratch) Path(pub *xmldoc.Publication) {
	var key uint64
	if sc.dedup {
		key = sc.key(pub)
		if rec, ok := sc.seen[key]; ok {
			if rec >= 0 {
				sc.addPath(sc.npaths[rec], pub)
			}
			if k := sc.count; k != nil {
				k.add(k.memo[key])
			}
			return
		}
	}
	sc.work.paths++
	sc.rec = -1
	if sc.bud.CheckPoint() {
		t := time.Now()
		sc.m.matchPath(sc, pub)
		sc.match += time.Since(t)
	}
	if sc.dedup {
		sc.seen[key] = sc.rec
		if k := sc.count; k != nil {
			k.memo[key] = slices.Clone(k.path)
		}
	}
}

// Restart discards the document's work when its scan falls back to
// encoding/xml, which emits every path again: marks, resolved values,
// match time, work and kernel counters, counts, and spent budget.
func (sc *scratch) Restart() {
	sc.reset()
	sc.bud.Restart()
	sc.discard()
	if k := sc.count; k != nil {
		clear(k.counts)
		clear(k.memo)
	}
}

// matchPath runs the two matching stages for one publication, folding
// results into sc, on one of three arms: on a counted document (sc.count)
// the counter takes the path; with a path cache (sc.cs set) the columnar
// kernel runs the path's cache entry; without one the scalar reference loop
// runs, and alone splits its time into Figure 10's stages (sc.bd). Effort
// is charged to sc.bud (nil is unlimited); once it trips the path is
// abandoned and the caller must surface its error instead of a result.
// Callers hold the read lock from lockKernel.
func (m *Matcher) matchPath(sc *scratch, pub *xmldoc.Publication) {
	sc.pub = pub
	switch {
	case sc.count != nil:
		sc.count.match(pub)
	case sc.cs != nil:
		m.matchPathCached(sc, sc.cs, pub, sc.bud)
	default:
		sc.res.Reset(m.ix.Len())
		t0 := time.Now()
		m.ix.MatchPath(pub, sc.res, true)
		t1 := time.Now()
		m.runUnits(sc, sc.bud)
		m.recordLive(sc, pub)
		sc.bd.PredMatch += t1.Sub(t0)
		sc.bd.ExprMatch += time.Since(t1)
	}
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

// key is pub's dedup identity: its Key once a registered predicate
// inspects attributes, else its Shape.
func (sc *scratch) key(pub *xmldoc.Publication) uint64 {
	if sc.m.attrSensitive {
		return pub.Key
	}
	return pub.Shape
}

// pathDedup reports whether per-document path deduplication is active.
// Structurally identical publications produce identical matching results
// (the predicate rules see only tags, positions and, for attribute-
// carrying predicates, attribute values); the node identity nested-path
// recombination needs is what a repeated path still records (Path).
func (m *Matcher) pathDedup() bool {
	return !m.opts.DisablePathDedup
}

// end closes the document's match: nested-path recombination, then the
// budget's error or the result — emitted into em when it is set, else
// returned — with their time in the match time (and, for the scalar loop,
// in sc.bd.Other).
func (m *Matcher) end(sc *scratch, em *Emit) ([]SID, error) {
	t := time.Now()
	m.resolveNested(sc)
	if err := sc.bud.Err(); err != nil {
		return nil, err
	}
	out := m.collect(sc, em)
	d := time.Since(t)
	sc.match += d
	if sc.cs == nil {
		sc.bd.Other = d
	}
	return out, nil
}

// observe folds one document's match duration, its work counters, its
// path and match counts and its emitted text bytes (em, when the result
// was emitted) into the metric set. The recording contract is zero
// allocations, so this is safe on every match path.
func (m *Matcher) observe(match time.Duration, w docWork, paths, matches int, em *Emit) {
	if m.mx == nil {
		return
	}
	m.mx.Match.Observe(match)
	m.mx.DocsTotal.Inc()
	m.mx.PathsTotal.Add(int64(paths))
	m.mx.PathsDistinct.Add(int64(w.paths))
	m.mx.AttrTests.Add(int64(w.tests))
	m.mx.OccurEvals.Add(int64(w.evals))
	m.mx.OccurPairs.Add(int64(w.pairs))
	m.mx.MatchesTotal.Add(int64(matches))
	if em != nil {
		m.mx.EmitBytes.Add(int64(len(em.Text)))
	}
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

	ok, depth, visited := occur.Determine(chain, bud, &sc.occBuf)
	sc.work.pairs += visited
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
	ok, depth, visited := occur.Determine(chain, bud, &sc.occBuf)
	sc.work.pairs += visited
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
		fok, fdepth, visited := occur.Determine(filtered, bud, &sc.occBuf)
		sc.work.pairs += visited
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
