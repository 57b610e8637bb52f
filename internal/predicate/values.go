package predicate

import (
	"sort"
	"strconv"
	"strings"

	"predfilter/internal/xmldoc"
	"predfilter/internal/xmlscan"
	"predfilter/internal/xpath"
)

// Attribute values at index speed (§5 riding on §4.1's "store and evaluate
// once"). xpath.AttrFilter.Eval defines what a filter means — numeric
// comparison when constant and value both parse as floats, lexicographic
// otherwise, a NaN on either side comparing equal — and is what the oracle
// evaluates. The engine never calls it. Registration interns every filter's
// (name, constant) in a Dict; per attribute name the Dict ranks the
// constants as strings and, where they parse, as numbers. A document value
// is resolved against its name's ranks once per document (one float parse,
// two binary searches) into its codes, kept in DocValues; after that
// Dict.Holds, the one function that decides a filter on the served path,
// compares integers.
//
// Codes: the constant at sorted position r has code 2r+2; a value equal to
// it has the same code, a value strictly between positions r-1 and r has
// 2r+1. Comparing codes is comparing what they stand for.

// Test is one attribute filter compiled against a Dict: the operator and
// the id of the interned (name, constant). Ids are append-only, so a Test
// retained in a path-cache entry keeps its meaning while expressions come
// and go.
type Test struct {
	Const int32
	Op    xpath.AttrOp
}

// codes are a document attribute value resolved against its name's
// constants. s is its string code (0: not resolved yet); n its numeric
// code: 0 when the value does not parse as a float (or the name has no
// numeric constant to compare it with), -1 for NaN.
type codes struct{ s, n int32 }

// constant is one interned (name, constant), coded like a value: n == 0
// says the constant is not numeric, -1 that it is NaN.
type constant struct {
	name  string // interned through xmlscan.Names, like a parsed attribute's
	value string
	num   float64
	set   int32 // the name's nameSet
	s, n  int32
}

// ranked reports whether the constant has a place in its name's numeric
// order.
func (c *constant) ranked() bool { return c.n != 0 && c.num == c.num }

// nameSet is what resolving a value of one attribute name needs: the
// constants in string order and the numeric ones (NaN aside) in numeric
// order.
type nameSet struct {
	ids     []int32 // the name's constants
	strs    []string
	nums    []float64
	numeric bool // some constant parses as a float
	dirty   bool
}

// Dict is an engine's value dictionary. Compile and Rerank need matching
// excluded; everything else only reads.
type Dict struct {
	byKey  map[[2]string]int32 // (name, constant) → id
	byName map[string]int32
	consts []constant
	sets   []nameSet
	dirty  []int32 // sets with constants Rerank has not placed
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byKey: make(map[[2]string]int32), byName: make(map[string]int32)}
}

// Compile interns the filters' constants and returns their tests (nil for
// no filters), in O(1) per filter: new constants are placed by the next
// Rerank. An exists filter interns its name with the empty constant, which
// it never compares.
func (d *Dict) Compile(filters []xpath.AttrFilter) []Test {
	var ts []Test
	for _, f := range filters {
		ts = append(ts, Test{Const: d.intern(f.Name, f.Value), Op: f.Op})
	}
	return ts
}

func (d *Dict) intern(name, value string) int32 {
	key := [2]string{name, value}
	if id, ok := d.byKey[key]; ok {
		return id
	}
	set, ok := d.byName[name]
	if !ok {
		set = int32(len(d.sets))
		d.byName[name] = set
		d.sets = append(d.sets, nameSet{})
	}
	id := int32(len(d.consts))
	c := constant{name: xmlscan.Names.Intern([]byte(name)), value: value, set: set}
	if f, ok := parseNum(value); ok {
		c.num, c.n = f, -1
	}
	d.consts = append(d.consts, c)
	d.byKey[key] = id
	ns := &d.sets[set]
	ns.ids = append(ns.ids, id)
	if !ns.dirty {
		ns.dirty = true
		d.dirty = append(d.dirty, set)
	}
	return id
}

// Dirty reports whether constants were interned since the last Rerank; no
// value may be resolved while it holds.
func (d *Dict) Dirty() bool { return len(d.dirty) != 0 }

// Rerank places every constant interned since the last call among its
// name's constants, re-coding that name's others; ids do not change.
func (d *Dict) Rerank() {
	for _, set := range d.dirty {
		ns := &d.sets[set]
		ns.strs, ns.nums, ns.numeric, ns.dirty = ns.strs[:0], ns.nums[:0], false, false
		for _, id := range ns.ids {
			c := &d.consts[id]
			ns.strs = append(ns.strs, c.value)
			ns.numeric = ns.numeric || c.n != 0
			if c.ranked() {
				ns.nums = append(ns.nums, c.num)
			}
		}
		sort.Strings(ns.strs)
		sort.Float64s(ns.nums) // equal numbers written differently repeat; every search takes the first
		for _, id := range ns.ids {
			c := &d.consts[id]
			c.s = ns.code(c.value)
			if c.ranked() {
				c.n = ns.numCode(c.num)
			}
		}
	}
	d.dirty = d.dirty[:0]
}

func code(r int, eq bool) int32 {
	if eq {
		return int32(2*r + 2)
	}
	return int32(2*r + 1)
}

func (ns *nameSet) code(v string) int32 {
	return code(sort.Find(len(ns.strs), func(i int) int { return strings.Compare(v, ns.strs[i]) }))
}

func (ns *nameSet) numCode(f float64) int32 {
	r := sort.SearchFloat64s(ns.nums, f)
	return code(r, r < len(ns.nums) && ns.nums[r] == f)
}

// resolve ranks a document value among the name's constants. The float
// parse is skipped when no constant of the name could use it.
func (ns *nameSet) resolve(v string) codes {
	val := codes{s: ns.code(v)}
	if ns.numeric {
		if f, ok := parseNum(v); ok {
			if val.n = -1; f == f {
				val.n = ns.numCode(f)
			}
		}
	}
	return val
}

// parseNum is strconv.ParseFloat's verdict on v, as Eval takes it, without
// the error ParseFloat allocates for what plainly is no number: past an
// optional sign a float starts with a digit or a point, or is one of the
// specials.
func parseNum(v string) (float64, bool) {
	s := v
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" || (s[0] < '0' || s[0] > '9') && s[0] != '.' &&
		!strings.EqualFold(s, "inf") && !strings.EqualFold(s, "infinity") && !strings.EqualFold(s, "nan") {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil
}

// DocValues memoises, for one document, the resolved value of every
// attribute some test has read: a node's attributes are resolved once
// however many paths pass through the node and however many filters read
// them. The zero value is ready; Reset starts the next document. Nodes are
// found by Tuple.NodeID and checked by the identity of their attribute
// storage (every tuple of a node shares it), so publications with made-up
// node ids cost a re-resolution, never a wrong value.
type DocValues struct {
	nodes []nodeValues // by NodeID
	vals  []codes      // each seen node's attributes, consecutively
}

type nodeValues struct {
	attrs *xmldoc.Attr
	base  int32
}

// Reset forgets the document. It must run between documents and after a
// Rerank (ranks changed); the matcher does both by resetting per match
// under its read lock.
func (dv *DocValues) Reset() {
	dv.nodes, dv.vals = dv.nodes[:0], dv.vals[:0]
}

// value returns the i-th attribute of t resolved against its name's set.
func (dv *DocValues) value(ns *nameSet, t *xmldoc.Tuple, i int) codes {
	for len(dv.nodes) <= t.NodeID {
		dv.nodes = append(dv.nodes, nodeValues{})
	}
	nv := &dv.nodes[t.NodeID]
	if nv.attrs != &t.Attrs[0] {
		nv.attrs, nv.base = &t.Attrs[0], int32(len(dv.vals))
		for range t.Attrs {
			dv.vals = append(dv.vals, codes{})
		}
	}
	v := &dv.vals[int(nv.base)+i]
	if v.s == 0 {
		*v = ns.resolve(t.Attrs[i].Value)
	}
	return *v
}

// Holds reports whether tuple t satisfies the test: the attribute is
// present and its value stands to the constant as the operator asks, by
// xpath.AttrFilter.Eval's rules (FuzzValueResolve holds the two equal).
// Every engine stage that needs a filter decided — predicate matching,
// replay, a cached hit program, postponed verification, nested
// recombination — calls this and nothing else.
func (d *Dict) Holds(f Test, t *xmldoc.Tuple, dv *DocValues) bool {
	c := &d.consts[f.Const]
	for i := range t.Attrs {
		if t.Attrs[i].Name != c.name {
			continue
		}
		if f.Op == xpath.AttrExists {
			return true
		}
		v := dv.value(&d.sets[c.set], t, i)
		if c.n != 0 && v.n != 0 {
			return f.Op.Holds(numCmp(v.n, c.n))
		}
		return f.Op.Holds(int(v.s - c.s))
	}
	return false
}

// numCmp compares numeric codes; NaN (-1) on either side compares equal.
func numCmp(v, c int32) int {
	if v < 0 || c < 0 {
		return 0
	}
	return int(v - c)
}

// HoldsAll reports whether t satisfies every test.
func (d *Dict) HoldsAll(tests []Test, t *xmldoc.Tuple, dv *DocValues) bool {
	for _, f := range tests {
		if !d.Holds(f, t, dv) {
			return false
		}
	}
	return true
}
