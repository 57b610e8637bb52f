package matcher

import (
	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
)

// This file implements the two extensions the paper names as future work:
//
//   - Containment covering (§4.2.2): "the covering relation also holds,
//     if for two expressions, one constitutes a suffix or a contained
//     expression of the other one. We exploit prefix-covering ... and
//     postpone others to future work." A full occurrence-determination
//     match of an expression yields, by restriction, a consistent
//     assignment for every contiguous subchain, so every registered
//     expression whose chain is a contiguous subchain is matched too.
//
//   - Rarest-predicate access clustering (§4.2.2): "better ways of
//     determining candidate access predicates to cluster on come to
//     mind." Any predicate of a chain is a sound access predicate (if it
//     did not match the path, the expression cannot match); clustering on
//     the globally rarest one maximizes the chance an entire cluster is
//     skipped.
//
// Both are off by default so the default configurations measure exactly
// the paper's algorithms; benchmarks ablate them.

// CoverMode selects which covering relations are exploited.
type CoverMode int

const (
	// PrefixOnly is the paper's published technique.
	PrefixOnly CoverMode = iota
	// Containment additionally marks suffix- and infix-contained
	// expressions on a full match.
	Containment
)

// ClusterBy selects the access predicate used for clustering.
type ClusterBy int

const (
	// FirstPredicate is the paper's published choice.
	FirstPredicate ClusterBy = iota
	// RarestPredicate clusters each expression on its least common
	// predicate (by number of referencing expressions).
	RarestPredicate
)

// buildContainmentCovers fills e.fullCovers for every single-path
// expression: registered expressions whose (pid, annotation) chain is a
// strict contiguous subchain of e's. Prefix covers stay in e.covers (they
// also benefit from partial-depth marking); fullCovers holds the rest
// (suffixes and infixes), marked only on a full match.
func (m *Matcher) buildContainmentCovers(singles []*expr) {
	for _, e := range singles {
		e.fullCovers = e.fullCovers[:0]
		n := len(e.pids)
		for i := 1; i < n; i++ { // i = 0 is the prefix family, handled by e.covers
			for j := i + 1; j <= n; j++ {
				sub := subAttrs(e.post, i, j)
				key := chainHashFn(e.pids[i:j], sub)
				for _, c := range m.byKey[key] {
					if c != e && c.root == nil &&
						pidsEqual(c.pids, e.pids[i:j]) && postEqual(c.post, sub) {
						e.fullCovers = append(e.fullCovers, c)
					}
				}
			}
		}
	}
}

// subAttrs slices the postponed annotations; nil (no filters anywhere)
// hashes identically to all-empty annotations, so it passes through.
func subAttrs(post []predicate.SideAttrs, i, j int) []predicate.SideAttrs {
	if post == nil {
		return nil
	}
	return post[i:j]
}

// clusterPid returns the pid to cluster e on under the configured scheme.
// refCount maps pid → number of expressions referencing it.
func (m *Matcher) clusterPid(e *expr, refCount map[predindex.PID]int) predindex.PID {
	if m.opts.ClusterBy != RarestPredicate {
		return e.pids[0]
	}
	best := e.pids[0]
	for _, pid := range e.pids[1:] {
		if refCount[pid] < refCount[best] {
			best = pid
		}
	}
	return best
}
