package matcher

import (
	"fmt"
	"slices"
	"sort"

	"predfilter/internal/occur"
	"predfilter/internal/pathcache"
	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xpath"
)

// Nested path filters (paper §5): an expression such as
//
//	/a[*/c[d]/e]//c[d]/e
//
// is decomposed into a tree of linear sub-expressions — a main
// sub-expression plus, per nested filter, an extended sub-expression that
// prepends the prefix up to the hosting step. Each extended sub-expression
// records the branch position (the hosting step). After all document paths
// are evaluated, results recombine bottom-up: an extended sub-expression
// supports a main match only if both were matched through the same
// document node at the branch position.
//
// The paper detects "same node" by comparing child-index vectors
// <m1,...,mn> up to the branch position; two paths agreeing on the vector
// prefix share exactly the position-v ancestor, so this implementation
// uses document node identity directly (see DESIGN.md §6).
//
// A sub-expression's chain on a path depends only on the path's signature,
// so it is part of the path-cache entry (compileNested): its levels are
// the guarded pair lists chain units use, and each branch step its chain
// names comes with the tuple index of each occurrence of the step's tag.
// Per document, a path's hit records the pass bits of its tests and the
// node ids of its tuples (a nestPath); a repeated path skips the kernel
// and records its node ids against the first one's bits. At document end
// the records resolve bottom-up (resolve): a pair naming a child's branch
// step is kept only if its node there is in the child's witness set, and
// a backward and a forward pass (occur.Support) find the kept pairs on a
// full chain, whose nodes at the sub-expression's own branch step are its
// witness set. Each pair is read once by the filter and at most once by
// the passes.

// nestedNode is one sub-expression in the decomposition tree. Its chain
// is an expr's (pids, postTests), whose id is the node's index in
// Matcher.nodes; a program's chain of it has the ID ^id.
type nestedNode struct {
	expr
	path       *xpath.Path // linear (nested filters stripped)
	enc        *predicate.Encoding
	branchStep int // 0-based hosting step index in the parent path; -1 at the root
	children   []*nestedNode
	// The levels and sides of the chain that name branch steps: the node's
	// own (none at the root), then each child's.
	refs  []predicate.StepRef
	owner int // the nested-path expression's id
}

// ExplainNested renders the decomposition of a nested-path expression:
// each sub-expression with its branch position and predicate encoding, in
// the paper's notation (§5, Figure 3).
func ExplainNested(p *xpath.Path) (string, error) {
	root, err := buildNested(p, predicate.Inline)
	if err != nil {
		return "", err
	}
	var b []byte
	var walk func(n *nestedNode, indent string)
	walk = func(n *nestedNode, indent string) {
		b = append(b, indent...)
		if n.branchStep < 0 {
			b = append(b, "main "...)
		} else {
			b = append(b, fmt.Sprintf("(pos, =, %d) ", n.branchStep+1)...)
		}
		b = append(b, n.path.String()...)
		b = append(b, ": "...)
		b = append(b, n.enc.String()...)
		b = append(b, '\n')
		for _, c := range n.children {
			walk(c, indent+"  ")
		}
	}
	walk(root, "")
	return string(b), nil
}

// registerNested decomposes, encodes and stores a nested-path expression.
// Nested expressions dedup on their canonical source text; the hash only
// selects the bucket, the stored source string decides identity, so a
// collision (with another nested expression or with a chain hash) can
// never alias two expressions.
func (m *Matcher) registerNested(p *xpath.Path) (*expr, error) {
	src := "nested:" + p.String()
	key := nestedKeyFn(src)
	for _, e := range m.byKey[key] {
		if e.root != nil && e.nsrc == src {
			return e, nil
		}
	}
	root, err := buildNested(p, m.opts.AttrMode)
	if err != nil {
		return nil, err
	}
	e := &expr{id: len(m.exprs), root: root, nsrc: src}
	m.insertNested(e, root)
	m.exprs = append(m.exprs, e)
	m.byKey[key] = append(m.byKey[key], e)
	return e, nil
}

// buildNested recursively decomposes and encodes p, touching no index, so
// a rejection anywhere in the tree leaves the matcher as it was. The node's
// own path is p with all top-level nested filters stripped; each nested
// filter [q] hosted at step k becomes a child built from prefix(p, k+1) ++
// q (which may itself contain nested filters, handled by recursion).
func buildNested(p *xpath.Path, mode predicate.AttrMode) (*nestedNode, error) {
	n := &nestedNode{branchStep: -1}
	main := &xpath.Path{Absolute: p.Absolute, Steps: make([]xpath.Step, len(p.Steps))}
	for i, s := range p.Steps {
		cs := s
		cs.Nested = nil
		main.Steps[i] = cs
	}
	n.path = main
	for k, s := range p.Steps {
		if len(s.Nested) == 0 {
			continue
		}
		if s.Wildcard {
			return nil, fmt.Errorf("matcher: nested path filter on wildcard step %d of %q is not supported", k+1, p)
		}
		for _, q := range s.Nested {
			childPath := &xpath.Path{Absolute: p.Absolute}
			childPath.Steps = append(childPath.Steps, main.Steps[:k+1]...)
			childPath.Steps = append(childPath.Steps, q.Clone().Steps...)
			child, err := buildNested(childPath, mode)
			if err != nil {
				return nil, err
			}
			child.branchStep = k
			n.children = append(n.children, child)
		}
	}
	enc, err := predicate.Encode(n.path, mode)
	if err != nil {
		return nil, err
	}
	n.enc = enc
	return n, nil
}

// insertNested stores the predicates and compiles the postponed filters of
// an accepted decomposition tree, children before their parent, and lists
// its nodes in e.subs.
func (m *Matcher) insertNested(e *expr, n *nestedNode) {
	for _, c := range n.children {
		m.insertNested(e, c)
	}
	n.pids = make([]predindex.PID, len(n.enc.Preds))
	for i, pr := range n.enc.Preds {
		n.pids[i] = m.ix.Insert(pr)
		m.attrSensitive = m.attrSensitive || pr.HasAttrs()
	}
	n.postTests = m.compilePost(n.enc)
	m.attrSensitive = m.attrSensitive || n.postTests != nil
	if n.branchStep >= 0 {
		n.refs = append(n.refs, n.enc.Refs[n.branchStep])
	}
	for _, c := range n.children {
		n.refs = append(n.refs, n.enc.Refs[c.branchStep])
	}
	n.owner = e.id
	e.subs = append(e.subs, n)
}

// compileNested adds to the program being built each sub-expression of
// the registered nested-path expressions, removed ones included, every
// predicate of whose chain has pairs in sc.res (canMatch's condition), in
// the order of m.nodes: a chain after the chain units, with the ID ^n.id
// and a run of Levels holding its levels' pair lists, -1, then per branch
// reference the tuple index of each occurrence of its tag, closed by -1.
func (m *Matcher) compileNested(sc *scratch, b *progBuilder) {
nodes:
	for _, n := range m.nodes {
		for _, pid := range n.pids {
			if len(sc.res.Get(pid)) == 0 {
				continue nodes
			}
		}
		b.p.Chains = append(b.p.Chains, pathcache.ProgChain{ID: ^int32(n.id), Levels: int32(len(b.p.Levels))})
		for l := range n.pids {
			b.p.Levels = append(b.p.Levels, b.list(m, sc, levelKey(&n.expr, l)))
		}
		b.p.Levels = append(b.p.Levels, -1)
		for _, r := range n.refs {
			p := m.ix.Pred(n.pids[r.Pred])
			for i := range sc.pub.Tuples {
				if sc.pub.Tuples[i].Tag == [2]string{p.Tag1, p.Tag2}[r.Side] {
					b.p.Levels = append(b.p.Levels, int32(i))
				}
			}
			b.p.Levels = append(b.p.Levels, -1)
		}
	}
}

// nestPath is one path recorded for the sub-expressions of its entry's
// program: the pass bits of its tests, sc.npass[pass:], and the node ids
// of its tuples, sc.nids[ids:].
type nestPath struct {
	prog      *pathcache.Program
	pass, ids int32
}

// recordNested records the current path for the sub-expressions p holds,
// if one belongs to a nested-path expression with a live SID.
func (m *Matcher) recordNested(sc *scratch, p *pathcache.Program, pass []uint64, pub *xmldoc.Publication) {
	for _, c := range subChains(p) {
		if len(m.sids(m.nodes[^c.ID].owner)) > 0 {
			sc.addPath(nestPath{prog: p, pass: int32(len(sc.npass))}, pub)
			sc.npass = append(sc.npass, pass...)
			return
		}
	}
}

// addPath records pub as np with the node ids of its tuples.
func (sc *scratch) addPath(np nestPath, pub *xmldoc.Publication) {
	sc.rec, np.ids = int32(len(sc.npaths)), int32(len(sc.nids))
	sc.npaths = append(sc.npaths, np)
	for i := range pub.Tuples {
		sc.nids = append(sc.nids, int32(pub.Tuples[i].NodeID))
	}
}

// subChains returns the chains of p that are nested-path sub-expressions.
func subChains(p *pathcache.Program) []pathcache.ProgChain {
	return p.Chains[sort.Search(len(p.Chains), func(i int) bool { return p.Chains[i].ID < 0 }):]
}

// recordLive records the current path for the scalar reference and the
// counter, which run no cache entry: the sub-expressions compiled from
// their live predicate results as a miss compiles them, and their tests
// decided as a hit decides them.
func (m *Matcher) recordLive(sc *scratch, pub *xmldoc.Publication) {
	if len(m.nodes) == 0 {
		return
	}
	b := &progBuilder{tests: make(map[pathcache.ProgTest]int32), lists: make(map[listKey]int32)}
	if m.compileNested(sc, b); len(b.p.Chains) > 0 {
		r := sc.newRecord(pub, &pathcache.Entry{Prog: b.finish()})
		m.progTests(sc, r, true, pub)
		m.recordNested(sc, r.ent.Prog, r.pass, pub)
	}
}

// resolveNested recombines each nested-path expression with a live SID
// from the document's records and marks those that match. A budget trip
// leaves the marks partial; the caller surfaces the budget's error.
func (m *Matcher) resolveNested(sc *scratch) {
	for _, e := range m.nested {
		if len(sc.npaths) > 0 && len(m.sids(e.id)) > 0 {
			sc.wits, sc.spans = sc.wits[:0], sc.spans[:0]
			_, _, sc.matched[e.id] = m.resolve(sc, e.root)
		}
	}
}

// resolve returns n's witness set — the node ids at its branch step of the
// pairs there on a full chain, sorted and distinct — as the run
// sc.wits[lo:hi], and whether any recorded path has a full chain. On each
// path a level keeps the pairs whose guards passed and, where it names a
// child's branch step, whose node there is in the child's witness set (a
// run on sc.spans meanwhile); occur.Support finds which kept pairs of the
// own branch level (the last level at the root) lie on a full chain. The
// budget is charged a step per pair Support visits and, in one go, per
// pair the levels read.
func (m *Matcher) resolve(sc *scratch, n *nestedNode) (lo, hi int32, any bool) {
	base := len(sc.spans)
	for _, c := range n.children {
		clo, chi, _ := m.resolve(sc, c)
		sc.spans = append(sc.spans, [2]int32{clo, chi})
	}
	lo = int32(len(sc.wits))
	own, at, read := 0, len(n.pids)-1, 0
	if n.branchStep >= 0 {
		own, at = 1, n.refs[0].Pred
	}
	for _, np := range sc.npaths {
		p, pass, subs := np.prog, sc.npass[np.pass:], subChains(np.prog)
		i, ok := slices.BinarySearchFunc(subs, n.id, func(c pathcache.ProgChain, id int) int { return int(^c.ID) - id })
		if !ok || sc.bud.Exceeded() {
			continue
		}
		run := p.Levels[subs[i].Levels:]
		tabs, rest := sc.tabs[:0], run[len(n.pids)+1:]
		for range n.refs {
			e := slices.Index(rest, -1)
			tabs, rest = append(tabs, rest[:e]), rest[e+1:]
		}
		chain := sc.chain[:0]
		lists := slices.Grow(sc.filt[:0], len(p.Lists))[:len(p.Lists)-1]
		clear(lists)
		sc.tabs, sc.filt, sc.pairBuf = tabs, lists, sc.pairBuf[:0]
		for l, k := range run[:len(n.pids)] {
			if lists[k] == nil { // a list levels share is cut to its passing pairs once
				start := len(sc.pairBuf)
				for _, pp := range p.Pairs[p.Lists[k]:p.Lists[k+1]] {
					if pp.Guard < 0 || allPass(p.More[pp.Guard:], pass) {
						sc.pairBuf = append(sc.pairBuf, pp.Pair)
					}
				}
				read += int(p.Lists[k+1] - p.Lists[k])
				lists[k] = sc.pairBuf[start:len(sc.pairBuf):len(sc.pairBuf)]
			}
			pairs := lists[k]
			for j, r := range n.refs[own:] {
				if r.Pred != l {
					continue
				}
				w, start := sc.spans[base+j], len(sc.pairBuf)
				for _, pr := range pairs {
					if _, ok := slices.BinarySearch(sc.wits[w[0]:w[1]], sc.nodeAt(r, tabs[own+j], np, pr)); ok {
						sc.pairBuf = append(sc.pairBuf, pr)
					}
				}
				read += len(pairs)
				pairs = sc.pairBuf[start:len(sc.pairBuf):len(sc.pairBuf)]
			}
			if len(pairs) == 0 {
				break
			}
			chain = append(chain, pairs)
		}
		if sc.chain = chain; len(chain) < len(n.pids) {
			continue
		}
		sc.on = slices.Grow(sc.on[:0], len(chain[at]))[:len(chain[at])]
		sc.work.pairs += occur.Support(chain, at, sc.on, sc.bud, &sc.occBuf)
		for k, c := range sc.on {
			if c == 0 {
				continue
			}
			if any = true; own == 1 {
				sc.wits = append(sc.wits, sc.nodeAt(n.refs[0], tabs[0], np, chain[at][k]))
			}
		}
	}
	sc.bud.StepN(int64(read))
	sc.spans = sc.spans[:base]
	w := sc.wits[lo:]
	slices.Sort(w)
	sc.wits = sc.wits[:int(lo)+len(slices.Compact(w))]
	return lo, int32(len(sc.wits)), any && !sc.bud.Exceeded()
}

// nodeAt is the node id, on the recorded path np, of the tuple a pair
// names on r's side: table lists the tuple index of each occurrence of
// the side's tag.
func (sc *scratch) nodeAt(r predicate.StepRef, table []int32, np nestPath, pr occur.Pair) int32 {
	return sc.nids[np.ids+table[[2]int32{pr.A, pr.B}[r.Side]-1]]
}
