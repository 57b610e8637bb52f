package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValidateExposition checks text against the Prometheus text-format
// invariants the scrape path relies on: every non-comment line is a
// well-formed sample whose label values use only the three legal
// escapes (\\, \", \n — an unescaped backslash, quote or newline is
// rejected), histogram bucket bounds strictly increase, bucket counts
// are cumulative, and each histogram's +Inf bucket equals its _count.
// It is used by the package tests, the server tests and the CI smoke
// check.
func ValidateExposition(text string) error {
	fams, err := ParseExposition(text)
	if err != nil {
		return fmt.Errorf("malformed exposition %w", err)
	}
	type histState struct {
		last, lastLe, inf float64
		infSeen           bool
	}
	hists := make(map[string]*histState)
	counts := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			le, hasLe := s.Label("le")
			bucket, count := strings.HasSuffix(s.Name, "_bucket") && hasLe, strings.HasSuffix(s.Name, "_count")
			if (bucket || count) && (s.Value < 0 || s.Value != math.Trunc(s.Value)) {
				return fmt.Errorf("%s value %v not a whole number", s.Name, s.Value)
			}
			switch {
			case bucket:
				key := seriesKey(s.Name, s.Labels, "le")
				h := hists[key]
				if h == nil {
					h = &histState{lastLe: math.Inf(-1)}
					hists[key] = h
				}
				b, err := strconv.ParseFloat(le, 64) // "+Inf" parses
				if err != nil {
					return fmt.Errorf("le bound %q: %v", le, err)
				}
				if b <= h.lastLe {
					return fmt.Errorf("le bounds not increasing at %s le=%q", s.Name, le)
				}
				if s.Value < h.last {
					return fmt.Errorf("bucket counts not cumulative at %s le=%q", s.Name, le)
				}
				h.lastLe, h.last = b, s.Value
				if math.IsInf(b, 1) {
					h.inf, h.infSeen = s.Value, true
				}
			case count:
				counts[seriesKey(strings.TrimSuffix(s.Name, "_count")+"_bucket", s.Labels, "le")] = s.Value
			}
		}
	}
	for key, h := range hists {
		if !h.infSeen {
			return fmt.Errorf("histogram series %q has no +Inf bucket", key)
		}
		if n, ok := counts[key]; ok && n != h.inf {
			return fmt.Errorf("histogram series %q: +Inf bucket %v != count %v", key, h.inf, n)
		}
	}
	return nil
}
