package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file implements the coordinator-side metrics rollup: a strict
// parser for the Prometheus 0.0.4 text format (shared with
// ValidateExposition) and a Rollup accumulator that merges many shards'
// expositions into one cluster-wide exposition. Aggregation is plain
// per-series summation, which for histogram families IS the bucket-wise
// merge: every histogram in the system shares the same fixed
// power-of-two bounds (see HistSnapshot.Merge), so summing each
// {...,le="x"} series across shards preserves cumulativity and the
// +Inf==_count invariant.

// LabelPair is one parsed name="value" label with the value unescaped.
type LabelPair struct {
	Name, Value string
}

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels []LabelPair
	Value  float64
}

// Family is one parsed metric family: its HELP/TYPE header (possibly
// empty for untyped expositions) and its samples in input order.
// Histogram families own their _bucket/_sum/_count samples.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Label returns the value of the named label and whether it is present.
func (s *Sample) Label(name string) (string, bool) {
	for _, lp := range s.Labels {
		if lp.Name == name {
			return lp.Value, true
		}
	}
	return "", false
}

// ParseExposition parses a Prometheus 0.0.4 text exposition into
// families, preserving input order. It is strict about the parts the
// cluster relies on: sample lines must be syntactically well formed and
// label values must use only the three legal escapes (\\, \", \n) —
// an unescaped backslash or quote is an error, not a lenient pass.
func ParseExposition(text string) ([]*Family, error) {
	var (
		order []*Family
		byNam = make(map[string]*Family)
	)
	family := func(name string) *Family {
		if f := byNam[name]; f != nil {
			return f
		}
		// A histogram's samples arrive as base_bucket/base_sum/base_count;
		// attach them to the base family when one is declared.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok {
				if f := byNam[base]; f != nil && f.Type == "histogram" {
					return f
				}
			}
		}
		f := &Family{Name: name}
		byNam[name] = f
		order = append(order, f)
		return f
	}
	lineNo := 0
	for len(text) > 0 {
		lineNo++
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, rest, ok := cutComment(line)
			if !ok {
				continue // freeform comment
			}
			name, payload, _ := strings.Cut(rest, " ")
			f := family(name)
			switch kind {
			case "HELP":
				f.Help = payload
			case "TYPE":
				f.Type = payload
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		f := family(s.Name)
		f.Samples = append(f.Samples, s)
	}
	return order, nil
}

// cutComment splits "# HELP name ..." / "# TYPE name ..." comments.
func cutComment(line string) (kind, rest string, ok bool) {
	rest, ok = strings.CutPrefix(line, "# HELP ")
	if ok {
		return "HELP", rest, true
	}
	rest, ok = strings.CutPrefix(line, "# TYPE ")
	if ok {
		return "TYPE", rest, true
	}
	return "", "", false
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameByte(c byte) bool {
	return isNameStart(c) || (c >= '0' && c <= '9')
}

// parseSampleLine parses one sample line:
//
//	name[{label="value",...}] value [timestamp]
//
// enforcing the 0.0.4 escaping rules inside label values.
func parseSampleLine(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && isNameByte(line[i]) {
		i++
	}
	if i == 0 || !isNameStart(line[0]) {
		return s, fmt.Errorf("malformed metric name in %q", line)
	}
	s.Name = line[:i]
	if i < len(line) && line[i] == '{' {
		i++
		for {
			if i >= len(line) {
				return s, fmt.Errorf("unterminated label set in %q", line)
			}
			if line[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(line) && isNameByte(line[j]) && line[j] != ':' {
				j++
			}
			if j == i || line[i] == ':' || !isNameStart(line[i]) {
				return s, fmt.Errorf("malformed label name in %q", line)
			}
			name := line[i:j]
			if j+1 >= len(line) || line[j] != '=' || line[j+1] != '"' {
				return s, fmt.Errorf("label %q missing quoted value in %q", name, line)
			}
			val, rest, err := parseQuotedValue(line[j+2:])
			if err != nil {
				return s, fmt.Errorf("label %q in %q: %w", name, line, err)
			}
			s.Labels = append(s.Labels, LabelPair{Name: name, Value: val})
			i = len(line) - len(rest)
			if i < len(line) && line[i] == ',' {
				i++
				continue
			}
			if i >= len(line) || line[i] != '}' {
				return s, fmt.Errorf("expected ',' or '}' after label %q in %q", name, line)
			}
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return s, fmt.Errorf("missing value in %q", line)
	}
	i++
	valTok := line[i:]
	if sp := strings.IndexByte(valTok, ' '); sp >= 0 {
		// Optional millisecond timestamp; validate and discard.
		ts := valTok[sp+1:]
		valTok = valTok[:sp]
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return s, fmt.Errorf("malformed timestamp %q in %q", ts, line)
		}
	}
	v, err := strconv.ParseFloat(valTok, 64)
	if err != nil {
		return s, fmt.Errorf("malformed value %q in %q", valTok, line)
	}
	s.Value = v
	return s, nil
}

// parseQuotedValue consumes a label value after its opening quote,
// returning the unescaped value and the remainder of the line after the
// closing quote. Only \\, \" and \n are legal escapes; a backslash
// followed by anything else (or a dangling one) is rejected — this is
// what makes ValidateExposition catch unescaped label values.
func parseQuotedValue(rest string) (val, tail string, err error) {
	var b strings.Builder
	for i := 0; i < len(rest); i++ {
		switch c := rest[i]; c {
		case '"':
			return b.String(), rest[i+1:], nil
		case '\\':
			if i+1 >= len(rest) {
				return "", "", fmt.Errorf("dangling backslash in label value")
			}
			i++
			switch rest[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c in label value", rest[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// Rollup accumulates per-shard expositions and writes the cluster-wide
// merge: every series appears once per contributing shard with a
// shard="<name>" label prepended, plus a shard="all" aggregate that is
// the per-series sum (for histograms, the exact bucket-wise merge).
// Family and series order follow first appearance so bucket series keep
// their le-ascending layout.
type Rollup struct {
	shards []string
	order  []*rollupFam
	fams   map[string]*rollupFam
}

type rollupFam struct {
	name, help, typ string
	order           []*rollupSeries
	series          map[string]*rollupSeries
}

type rollupSeries struct {
	name   string
	labels []LabelPair
	shards map[string]float64
	sum    float64
}

// NewRollup returns an empty rollup.
func NewRollup() *Rollup {
	return &Rollup{fams: make(map[string]*rollupFam)}
}

// Add parses one shard's exposition text and folds it in. On a parse
// error nothing from this shard is incorporated — the caller should
// surface the shard as a failed scrape instead of silently dropping it.
func (r *Rollup) Add(shard, text string) error {
	fams, err := ParseExposition(text)
	if err != nil {
		return fmt.Errorf("shard %q: %w", shard, err)
	}
	r.shards = append(r.shards, shard)
	for _, pf := range fams {
		f := r.fams[pf.Name]
		if f == nil {
			f = &rollupFam{name: pf.Name, series: make(map[string]*rollupSeries)}
			r.fams[pf.Name] = f
			r.order = append(r.order, f)
		}
		if f.help == "" {
			f.help = pf.Help
		}
		if f.typ == "" {
			f.typ = pf.Type
		}
		for _, smp := range pf.Samples {
			key := seriesKey(smp.Name, smp.Labels, "")
			sr := f.series[key]
			if sr == nil {
				sr = &rollupSeries{name: smp.Name, labels: smp.Labels, shards: make(map[string]float64)}
				f.series[key] = sr
				f.order = append(f.order, sr)
			}
			sr.shards[shard] += smp.Value
			if !math.IsNaN(smp.Value) {
				sr.sum += smp.Value
			}
		}
	}
	return nil
}

// seriesKey identifies one series: the sample name plus its labels, in
// order, less the one named skip (a histogram's le: its _count sample
// carries the same labels without it).
func seriesKey(name string, labels []LabelPair, skip string) string {
	var b strings.Builder
	b.WriteString(name)
	for _, lp := range labels {
		if lp.Name == skip {
			continue
		}
		b.WriteByte(0)
		b.WriteString(lp.Name)
		b.WriteByte(0)
		b.WriteString(lp.Value)
	}
	return b.String()
}

// AggregateLabel is the shard-label value naming the cluster-wide sum
// in a rolled-up exposition.
const AggregateLabel = "all"

// WriteText writes the merged exposition. The shard label is emitted
// first in every label set (ahead of any le label) so series keyed on
// their pre-le prefix — as ValidateExposition and most scrape pipelines
// do — stay distinct per shard.
func (r *Rollup) WriteText(w io.Writer) error {
	e := NewExposition(w)
	for _, f := range r.order {
		help := f.help
		if help == "" {
			help = f.name
		}
		typ := f.typ
		if typ == "" {
			typ = "untyped"
		}
		e.Family(f.name, help, typ)
		for _, sr := range f.order {
			base := renderLabels(sr.labels)
			for _, shard := range r.shards {
				v, ok := sr.shards[shard]
				if !ok {
					continue
				}
				e.Value(sr.name, joinLabels(Label("shard", shard), base), v)
			}
			e.Value(sr.name, joinLabels(Label("shard", AggregateLabel), base), sr.sum)
		}
	}
	return e.Err()
}

func renderLabels(labels []LabelPair) (out string) {
	for _, lp := range labels {
		out = joinLabels(out, Label(lp.Name, lp.Value))
	}
	return out
}

func joinLabels(a, b string) string {
	if a == "" || b == "" {
		return a + b
	}
	return a + "," + b
}
