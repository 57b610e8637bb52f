package xmlscan

import "sync"

// Dict is an interned-name dictionary shared across documents: Intern maps
// equal byte sequences to one canonical string, so a tag or attribute name
// that appears in millions of documents is allocated once and every Tuple
// thereafter shares it. Beyond the memory win, interning makes the hot
// tag-equality comparisons of path extraction and occurrence counting
// pointer-equal in the common case.
//
// The dictionary is one map under one mutex: each pooled xmldoc builder
// keeps its own name table in front of it, so a name reaches the shared
// dictionary once per builder, not once per element. It is capped:
// DTD-driven workloads have small closed vocabularies, so an input that
// keeps minting fresh names (an adversary, or name-like garbage) is served
// plain copies once the cap is reached instead of growing the
// process-lifetime table without bound.
type Dict struct {
	mu    sync.Mutex
	m     map[string]string
	bytes int
}

// maxDictEntries / maxDictBytes bound the process-lifetime table. The
// built-in DTD vocabularies are a few hundred names; real-world
// vocabularies are thousands. Past the cap Intern degrades to a plain
// per-call copy (correct, just unshared).
const (
	maxDictEntries = 1 << 15
	maxDictBytes   = 1 << 21
)

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{m: make(map[string]string)} }

// Names is the package-wide dictionary used by default: tag vocabulary is
// a property of the schema, not of one parser instance, so sharing across
// engines and goroutines is the point.
var Names = NewDict()

// Intern returns the canonical string equal to b, allocating it on first
// sight. The fast path (name already interned) does not allocate: the
// map lookup keyed by string(b) is recognized by the compiler and reads
// the map without materializing a string.
func (d *Dict) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.m[string(b)]; ok {
		return v
	}
	v := string(b)
	if len(d.m) < maxDictEntries && d.bytes < maxDictBytes {
		d.m[v] = v
		d.bytes += len(v)
	}
	return v
}
