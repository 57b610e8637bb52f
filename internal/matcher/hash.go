package matcher

import (
	"predfilter/internal/predicate"
	"predfilter/internal/predindex"
	"predfilter/internal/xpath"
)

// Registration used to build string keys (chain serializations) for map
// lookups; the allocation and copying showed up prominently in profiles.
// Those keys are now FNV-1a hashes folded incrementally into a uint64 — no
// intermediate buffer, no string header, and map[uint64] lookups avoid the
// byte-wise comparisons of string keys.
//
// Registration and freeze do not trust the hash as identity: every map
// keyed by one of these hashes holds a bucket ([]…) whose entries are
// resolved by comparing the full encoded chain (pids, annotations, nested
// source text), so a 64-bit collision costs one extra compare, never a
// wrongly merged expression. The hash functions are vars so collision
// tests can force bucket conflicts.
//
// The document side hashes nothing here: the scan hands over each path
// with its identity already built (xmldoc.Publication's Shape and Key,
// one splitmix64 step per element from its parent's). Per-document dedup
// trusts that hash alone — Key once a predicate inspects attributes,
// else Shape — so a collision skips one distinct path of one document,
// an accepted trade (about N²/2⁶⁵ for N distinct paths) for a repeated
// path that costs one map probe; ablate with DisablePathDedup. The path
// cache only shards by Shape and compares the full signature.

const (
	fnvOffset64 uint64 = 0xcbf29ce484222325
	fnvPrime64  uint64 = 0x100000001b3
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint32(h uint64, v uint32) uint64 {
	h = fnvByte(h, byte(v))
	h = fnvByte(h, byte(v>>8))
	h = fnvByte(h, byte(v>>16))
	return fnvByte(h, byte(v>>24))
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvAttrFilter(h uint64, side byte, f xpath.AttrFilter) uint64 {
	h = fnvByte(h, side)
	h = fnvString(h, f.Name)
	h = fnvByte(h, 0)
	h = fnvByte(h, byte(f.Op))
	h = fnvString(h, f.Value)
	h = fnvByte(h, 0)
	return h
}

func fnvSideAttrs(h uint64, pa predicate.SideAttrs) uint64 {
	for _, f := range pa.Left {
		h = fnvAttrFilter(h, 'L', f)
	}
	for _, f := range pa.Right {
		h = fnvAttrFilter(h, 'R', f)
	}
	return h
}

// The indirections below exist so collision-regression tests can replace
// a hash with a degenerate one and prove the bucket compares keep
// distinct expressions apart. Production code always runs the real FNV
// functions.
var (
	chainHashFn = chainHash
	levelHashFn = levelHash
	nestedKeyFn = func(src string) uint64 { return fnvString(fnvOffset64, src) }
)

// chainHash identifies the bucket for a pid chain plus (postponed) filter
// annotations; bucket entries are compared in full (pidsEqual/postEqual)
// before two chains are treated as identical. A nil post hashes
// identically to all-empty annotations, so the bare structural identity of
// a chain is chainHash(pids, nil).
func chainHash(pids []predindex.PID, post []predicate.SideAttrs) uint64 {
	h := fnvOffset64
	for i, pid := range pids {
		h = fnvByte(h, 0x1f) // level separator
		h = fnvUint32(h, uint32(pid))
		if post != nil {
			h = fnvSideAttrs(h, post[i])
		}
	}
	return h
}

// levelHash is the identity of one (pid, annotation) trie level of the
// prefix-cover organization.
func levelHash(pid predindex.PID, post []predicate.SideAttrs, i int) uint64 {
	h := fnvUint32(fnvOffset64, uint32(pid))
	if post != nil {
		h = fnvSideAttrs(h, post[i])
	}
	return h
}
