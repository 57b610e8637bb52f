package predfilter

import (
	"predfilter/internal/matcher"
	"predfilter/internal/predicate"
)

// NewOrganized is New with the matcher's expression organization and path
// dedup chosen directly: ablation knobs Config does not carry, which the
// randomized equivalence test crosses. The organization acts on the scalar
// reference only, dedup on every kernel.
func NewOrganized(cfg Config, v matcher.Variant, noDedup bool) *Engine {
	e := New(cfg)
	mode := predicate.Inline
	if cfg.AttributeMode == PostponedAttributes {
		mode = predicate.Postponed
	}
	e.m = matcher.New(matcher.Options{Variant: v, AttrMode: mode, DisablePathDedup: noDedup, PathCacheBytes: cfg.PathCacheBytes, Metrics: e.mx})
	return e
}
