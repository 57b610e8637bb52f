// Package xpgen generates XPath expression workloads by schema-valid
// random walks over a DTD, standing in for the XPath generator of Diao et
// al. that the paper used. The parameters the paper names are exposed
// directly: D (distinct vs. non-distinct), L (maximum expression length),
// W (wildcard probability per location step), DO (descendant-operator
// probability per location step), and the number of attribute filters per
// path used in the Figure 9 experiments.
package xpgen

import (
	"fmt"
	"math/rand"
	"strings"

	"predfilter/internal/dtd"
)

// Config controls workload generation.
type Config struct {
	// Count is the number of expressions to generate.
	Count int
	// MaxLength is L: the maximum number of location steps.
	MaxLength int
	// Wildcard is W: the probability a step's name test becomes "*".
	Wildcard float64
	// Descendant is DO: the probability a step uses the descendant axis.
	Descendant float64
	// Distinct is D: when set, duplicates are discarded until Count
	// distinct expressions exist.
	Distinct bool
	// Filters is the number of attribute filters attached per expression
	// (0, 1 or 2 in the paper's Figure 9 experiments).
	Filters int
	// Seed makes generation deterministic.
	Seed int64
}

// Generate produces a workload from the DTD. With Distinct set it returns
// an error if the schema cannot yield Count distinct expressions within a
// generous attempt budget (so misconfiguration is loud, mirroring the
// paper's observation that the PSD schema saturates around 10k distinct
// expressions).
func Generate(d *dtd.DTD, cfg Config) ([]string, error) {
	if cfg.MaxLength <= 0 {
		cfg.MaxLength = 6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]string, 0, cfg.Count)
	seen := make(map[string]bool)
	attempts := 0
	maxAttempts := cfg.Count * 400
	if maxAttempts < 100000 {
		maxAttempts = 100000
	}
	for len(out) < cfg.Count {
		attempts++
		if cfg.Distinct && attempts > maxAttempts {
			return out, fmt.Errorf("xpgen: only %d distinct expressions reachable after %d attempts (schema %s saturated; asked for %d)",
				len(out), attempts, d.Name, cfg.Count)
		}
		s := one(d, cfg, rng)
		if cfg.Distinct {
			if seen[s] {
				continue
			}
			seen[s] = true
		}
		out = append(out, s)
	}
	return out, nil
}

// MustGenerate is Generate that panics on error; intended for benchmarks
// and tests with known-feasible configurations.
func MustGenerate(d *dtd.DTD, cfg Config) []string {
	out, err := Generate(d, cfg)
	if err != nil {
		panic(err)
	}
	return out
}

// stepInfo records, per emitted location step, the element the walk
// resolved to and where in the expression string the step's name test
// ends (for filter insertion).
type stepInfo struct {
	elem     *dtd.Element
	wildcard bool
	pos      int
}

// one produces a single expression by walking the DTD from the (virtual)
// document root.
func one(d *dtd.DTD, cfg Config, rng *rand.Rand) string {
	// Lengths concentrate near L (walks can still end early at schema
	// leaves): this matches the regime of the paper's workloads, whose
	// NITF expressions are "extremely selective" (§6.2) — short uniform
	// lengths would make most expressions trivially matchable.
	lo := cfg.MaxLength - 2
	if lo < 2 {
		lo = 2
	}
	if lo > cfg.MaxLength {
		lo = cfg.MaxLength
	}
	length := lo + rng.Intn(cfg.MaxLength-lo+1)
	var b strings.Builder
	steps := make([]stepInfo, 0, length)

	cur := &dtd.Element{Name: "", Children: []dtd.Child{{Name: d.Root}}}
	for i := 0; i < length; i++ {
		if len(cur.Children) == 0 {
			break // reached a leaf element; the expression ends early
		}
		axis := "/"
		if rng.Float64() < cfg.Descendant {
			axis = "//"
			// A descendant step may land several levels down; walk extra
			// levels silently.
			for extra := rng.Intn(2); extra > 0 && len(cur.Children) > 0; extra-- {
				cur = d.Element(cur.Children[rng.Intn(len(cur.Children))].Name)
			}
			if len(cur.Children) == 0 {
				break
			}
		}
		next := d.Element(cur.Children[rng.Intn(len(cur.Children))].Name)
		b.WriteString(axis)
		wild := rng.Float64() < cfg.Wildcard
		if wild {
			b.WriteString("*")
		} else {
			b.WriteString(next.Name)
		}
		steps = append(steps, stepInfo{elem: next, wildcard: wild, pos: b.Len()})
		cur = next
	}
	expr := b.String()
	if expr == "" {
		// Degenerate corner (descendant walk fell off a leaf immediately);
		// fall back to the root element.
		expr = "/" + d.Root
		steps = append(steps, stepInfo{elem: d.Element(d.Root), pos: len(expr)})
	}

	if cfg.Filters > 0 {
		expr = attachFilters(expr, steps, cfg.Filters, rng)
	}
	return expr
}

// attachFilters inserts attribute filters (equality predicates on
// schema-declared attributes, as in the Diao generator) at randomly chosen
// non-wildcard steps.
func attachFilters(expr string, steps []stepInfo, n int, rng *rand.Rand) string {
	// Candidate steps: non-wildcard with at least one declared attribute.
	var cands []int
	for i, s := range steps {
		if !s.wildcard && len(s.elem.Attrs) > 0 {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return expr
	}
	// Build insertions back to front so offsets stay valid.
	type ins struct {
		pos  int
		text string
	}
	var inss []ins
	for k := 0; k < n; k++ {
		si := cands[rng.Intn(len(cands))]
		el := steps[si].elem
		a := el.Attrs[rng.Intn(len(el.Attrs))]
		v := a.Values[rng.Intn(len(a.Values))]
		inss = append(inss, ins{pos: steps[si].pos, text: fmt.Sprintf("[@%s=%s]", a.Name, v)})
	}
	// Apply from the rightmost offset.
	for {
		swapped := false
		for i := 1; i < len(inss); i++ {
			if inss[i-1].pos < inss[i].pos {
				inss[i-1], inss[i] = inss[i], inss[i-1]
				swapped = true
			}
		}
		if !swapped {
			break
		}
	}
	for _, in := range inss {
		expr = expr[:in.pos] + in.text + expr[in.pos:]
	}
	return expr
}

// VaryFilters rewrites the equality filters Generate attaches into the
// whole filter language, for tests that want more than Diao's generator
// draws: each [@a=v] keeps its attribute and gets a random operator (all
// six, or none: the existence test), and one constant in four becomes a
// value no schema-valid document carries ("v5": 3.05 for 3.0, news5 for
// news), so document values fall between, below and above the constants.
func VaryFilters(rng *rand.Rand, expr string) string {
	ops := []string{"", "=", "!=", "<", "<=", ">", ">="}
	var b strings.Builder
	for {
		i := strings.Index(expr, "[@")
		if i < 0 {
			return b.String() + expr
		}
		j := i + strings.IndexByte(expr[i:], ']')
		name, val, _ := strings.Cut(expr[i+2:j], "=")
		b.WriteString(expr[:i+2] + name)
		if op := ops[rng.Intn(len(ops))]; op != "" {
			if rng.Intn(4) == 0 {
				val += "5"
			}
			b.WriteString(op + val)
		}
		b.WriteByte(']')
		expr = expr[j+1:]
	}
}
