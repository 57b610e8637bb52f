package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// sample is one line of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one GET /metrics, parsed.
type scrape []sample

func scrapeMetrics(ctx context.Context, hc *http.Client, url string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var out scrape
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSample(line string) (sample, error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return sample{}, fmt.Errorf("metrics: malformed line %q", line)
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return sample{}, fmt.Errorf("metrics: malformed value in %q", line)
	}
	s := sample{name: line[:sp], value: v}
	open := strings.IndexByte(s.name, '{')
	if open < 0 {
		return s, nil
	}
	body := strings.TrimSuffix(s.name[open+1:], "}")
	s.name = s.name[:open]
	s.labels = map[string]string{}
	// Label values in this exposition are shard URLs, stage names and
	// bucket bounds: none contains a comma or an escaped quote.
	for _, kv := range strings.Split(body, ",") {
		k, val, ok := strings.Cut(kv, "=")
		if !ok {
			return sample{}, fmt.Errorf("metrics: malformed labels in %q", line)
		}
		s.labels[k] = strings.Trim(val, `"`)
	}
	return s, nil
}

// get returns the value of the sample with this name and exactly these
// label pairs ("k", "v", ...), or 0 when the exposition has none. A
// coordinator's exposition carries every engine and server family once per
// shard plus a shard="all" sum; callers name the shard they want.
func (s scrape) get(name string, kv ...string) float64 {
next:
	for _, x := range s {
		if x.name != name || len(x.labels) != len(kv)/2 {
			continue
		}
		for i := 0; i < len(kv); i += 2 {
			if x.labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		return x.value
	}
	return 0
}

// labelValues lists the distinct values of one label of a family.
func (s scrape) labelValues(name, label string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range s {
		if v, ok := x.labels[label]; ok && x.name == name && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// window is the pair of scrapes around a measured interval.
type window struct {
	before, after scrape
	// shard is nil for a single server and {"shard", "all"} for a
	// coordinator, whose rollup labels every shard-side family.
	shard []string
}

func (w window) delta(name string, kv ...string) float64 {
	kv = append(kv[:len(kv):len(kv)], w.shard...)
	return w.after.get(name, kv...) - w.before.get(name, kv...)
}

// ratio is Δnum/Δden, or NaN when the denominator did not move.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// stageUS is the mean of one stage histogram over the window, in µs.
func (w window) stageUS(family, label, value string) float64 {
	return 1e6 * ratio(w.delta(family+"_sum", label, value), w.delta(family+"_count", label, value))
}

// quantileUS estimates a quantile of a histogram's growth over the window
// by linear interpolation inside the bucket that holds it, in µs.
func (w window) quantileUS(family string, q float64, kv ...string) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, bound := range w.after.labelValues(family+"_bucket", "le") {
		le, err := strconv.ParseFloat(bound, 64) // "+Inf" parses
		if err != nil {
			return math.NaN()
		}
		bs = append(bs, bucket{le, w.delta(family+"_bucket", append([]string{"le", bound}, kv...)...)})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return math.NaN()
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return 1e6 * lo
			}
			return 1e6 * (lo + (b.le-lo)*(rank-prev)/(b.n-prev))
		}
		lo, prev = b.le, b.n
	}
	return math.NaN()
}
