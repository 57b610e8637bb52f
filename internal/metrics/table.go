package metrics

import (
	"io"
	"strings"
)

// Surface is a set of the JSON documents a row's key appears on.
type Surface uint8

const (
	OnStats Surface = 1 << iota // GET /stats
	OnVars                      // GET /debug/vars
)

// Emit passes one sample to the renderer, with one value per label key:
// an int, int64, float64 or HistSnapshot (a JSON-only row may pass any
// JSON value).
type Emit func(v any, labelValues ...string)

// Row declares one metric once, for every surface: its exposition family
// (Name, Help, Kind, Labels), its JSON key, and the one reader all
// surfaces render from, over a per-request snapshot S.
type Row[S any] struct {
	Name, Help, Kind string   // Kind: "counter", "gauge" or "histogram"; no Name: a JSON-only row
	Labels           []string // label keys, in the order Read passes their values
	// JSON is the row's dotted key on the surfaces in On; a "{key}" in it
	// stands for that label's value. A histogram renders as its summary.
	JSON string
	On   Surface
	When func(*S) bool      // nil: always; false drops the row from every surface
	Skip func(*S, any) bool // JSON only: drop a sample (an object left empty goes too)
	Read func(*S, Emit)
}

// WriteText writes the families of the rows present in s, in table
// order, in the Prometheus text format (version 0.0.4).
func WriteText[S any](w io.Writer, rows []Row[S], s *S) error {
	x := NewExposition(w)
	for _, r := range rows {
		if r.Name == "" || r.When != nil && !r.When(s) {
			continue
		}
		x.Family(r.Name, r.Help, r.Kind)
		r.Read(s, func(v any, lv ...string) {
			var labels string
			for j, val := range lv {
				labels = joinLabels(labels, Label(r.Labels[j], val))
			}
			switch v := v.(type) {
			case HistSnapshot:
				x.Histogram(r.Name, labels, v)
			case float64:
				x.Value(r.Name, labels, v)
			case int:
				x.Int(r.Name, labels, int64(v))
			case int64:
				x.Int(r.Name, labels, v)
			}
		})
	}
	return x.Err()
}

// JSON renders the keys of the rows present in s on one surface as a
// nested object.
func JSON[S any](rows []Row[S], s *S, on Surface) map[string]any {
	out := map[string]any{}
	for _, r := range rows {
		if r.On&on == 0 || r.When != nil && !r.When(s) {
			continue
		}
		r.Read(s, func(v any, lv ...string) {
			if r.Skip != nil && r.Skip(s, v) {
				return
			}
			if h, ok := v.(HistSnapshot); ok {
				v = map[string]any{"count": h.Count, "total_ns": int64(h.SumNanos),
					"p50_ns": h.Quantile(0.50), "p95_ns": h.Quantile(0.95), "p99_ns": h.Quantile(0.99)}
			}
			key := r.JSON
			for j, val := range lv {
				key = strings.ReplaceAll(key, "{"+r.Labels[j]+"}", val)
			}
			obj, path := out, strings.Split(key, ".")
			for _, k := range path[:len(path)-1] {
				if _, ok := obj[k].(map[string]any); !ok {
					obj[k] = map[string]any{}
				}
				obj = obj[k].(map[string]any)
			}
			obj[path[len(path)-1]] = v
		})
	}
	return out
}
