package matcher

import (
	"fmt"
	"slices"

	"predfilter/internal/guard"
	"predfilter/internal/occur"
	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
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
// uses document node identity directly (see DESIGN.md §6): every
// sub-expression match contributes the node id at its branch position, and
// witness sets are intersected bottom-up over the decomposition tree.

// nestedNode is one sub-expression in the decomposition tree.
type nestedNode struct {
	path       *xpath.Path // linear (nested filters stripped)
	enc        *predicate.Encoding
	pids       []predindex.PID
	post       [][2][]predicate.Test
	branchStep int // 0-based hosting step index in the parent path; -1 at the root
	children   []*nestedNode
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
	m.insertNested(root)
	e := &expr{id: len(m.exprs), root: root, nsrc: src}
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
// an accepted decomposition tree, children before their parent.
func (m *Matcher) insertNested(n *nestedNode) {
	for _, c := range n.children {
		m.insertNested(c)
	}
	n.pids = make([]predindex.PID, len(n.enc.Preds))
	for i, pr := range n.enc.Preds {
		n.pids[i] = m.ix.Insert(pr)
	}
	n.post = m.compilePost(n.enc)
}

// collectNested gathers every nested-path expression's candidates on the
// current path from the live predicate results in sc.res.
func (m *Matcher) collectNested(sc *scratch, bud *guard.Budget) {
	for _, e := range m.nested {
		e.root.collect(m, sc, bud)
	}
}

// nestedCand is one structural match of a sub-expression on one document
// path: the node id at the node's own branch position (or -1 at the root)
// plus the node ids at each child's branch position, a run of the
// document's slab (scratch.kids).
type nestedCand struct {
	own  int32
	kids []int32
}

// collect enumerates this node's (and recursively its children's)
// structural matches on the current publication and appends candidates to
// the per-call scratch. Each occurrence pair the enumeration visits
// charges one budget step; once the budget trips the enumeration stops and
// the caller surfaces bud.Err instead of a result.
func (n *nestedNode) collect(m *Matcher, sc *scratch, bud *guard.Budget) {
	if bud.Exceeded() {
		return
	}
	for _, c := range n.children {
		c.collect(m, sc, bud)
	}
	if bud.Exceeded() {
		return
	}
	chain := sc.chain[:0]
	for _, pid := range n.pids {
		r := sc.res.Get(pid)
		if len(r) == 0 {
			sc.chain = chain
			return
		}
		chain = append(chain, r)
	}
	sc.chain = chain
	if n.post != nil {
		filtered, ok := m.filterChain(sc, n.pids, n.post, chain)
		if !ok {
			return
		}
		chain = filtered
	}
	sc.work.pairs += occur.Enumerate(chain, bud, &sc.assign, func(assign []occur.Pair) bool {
		cand := nestedCand{own: -1}
		if n.branchStep >= 0 {
			cand.own = n.nodeIDAt(m, sc, assign, n.branchStep)
		}
		if len(n.children) > 0 {
			lo := len(sc.kids)
			for _, c := range n.children {
				sc.kids = append(sc.kids, n.nodeIDAt(m, sc, assign, c.branchStep))
			}
			cand.kids = sc.kids[lo:len(sc.kids):len(sc.kids)]
		}
		sc.ncands[n] = append(sc.ncands[n], cand)
		return true
	})
}

// nodeIDAt recovers the document node id matched by the given location
// step under the occurrence assignment, via the step→predicate reference
// map of the encoding.
func (n *nestedNode) nodeIDAt(m *Matcher, sc *scratch, assign []occur.Pair, step int) int32 {
	ref := n.enc.Refs[step]
	pr := assign[ref.Pred]
	p := m.ix.Pred(n.pids[ref.Pred])
	var tag string
	var o int32
	if ref.Side == predicate.Left {
		tag, o = p.Tag1, pr.A
	} else {
		tag, o = p.Tag2, pr.B
	}
	return int32(sc.tupleAt(tag, o).NodeID)
}

// resolveRoot reports whether the whole nested expression matched the
// document, recombining candidates bottom-up.
func (n *nestedNode) resolveRoot(sc *scratch) bool {
	sc.wits, sc.spans = sc.wits[:0], sc.spans[:0]
	_, _, any := n.resolve(sc)
	return any
}

// resolve returns the witness set (the branch-position node ids of
// supported matches, sorted and distinct) as the run sc.wits[lo:hi], and
// whether any candidate was supported by all children. The children's runs
// sit on sc.spans while the node's candidates are checked against them.
func (n *nestedNode) resolve(sc *scratch) (lo, hi int32, any bool) {
	base := len(sc.spans)
	for _, c := range n.children {
		clo, chi, _ := c.resolve(sc)
		sc.spans = append(sc.spans, [2]int32{clo, chi})
	}
	lo = int32(len(sc.wits))
	for _, cand := range sc.ncands[n] {
		ok := true
		for i, k := range cand.kids {
			run := sc.spans[base+i]
			if _, ok = slices.BinarySearch(sc.wits[run[0]:run[1]], k); !ok {
				break
			}
		}
		if !ok {
			continue
		}
		any = true
		if cand.own >= 0 {
			sc.wits = append(sc.wits, cand.own)
		}
	}
	sc.spans = sc.spans[:base]
	w := sc.wits[lo:]
	slices.Sort(w)
	w = slices.Compact(w)
	sc.wits = sc.wits[:int(lo)+len(w)]
	return lo, int32(len(sc.wits)), any
}
