package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"predfilter"
	"predfilter/internal/guard"
	"predfilter/internal/server"
	"predfilter/internal/xmldoc"
	"predfilter/internal/xmlscan"
)

// The ladder replays requests, one at a time, through nested public entry
// points, so that each layer's cost is the difference between two rungs:
//
//	rung 0   HTTP POST to the running server
//	rung 1   server.Server.ServeHTTP in this process (no sockets)
//	rung 2   the engine entry point the handler calls
//	rung 3a  xmldoc.ParseLimitsMode, and inside it the xmlscan token loop
//	rung 3b  Engine.MatchParsedContext
//
// A span is recorded around every call; a rung's parent is the rung whose
// work contains it, so self time is a span's duration minus its children's.
const (
	spanHTTP     = "rung0.http"
	spanServer   = "rung1.server"
	spanEngine   = "rung2.engine"
	spanParse    = "rung3a.parse"
	spanTokenize = "rung3a.tokenize"
	spanMatch    = "rung3b.match"
)

// span is one timed call. Times are nanoseconds since the ladder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // spans of one replayed request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// timed runs f inside a new span and returns the span's id.
func (tr *tracer) timed(name string, parent, req int, f func()) int {
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	start := time.Since(tr.t0)
	f()
	end := time.Since(tr.t0)
	tr.spans[id].Start, tr.spans[id].End = int64(start), int64(end)
	return id
}

// us is the duration of span id in µs.
func (tr *tracer) us(id int) float64 {
	return float64(tr.spans[id].End-tr.spans[id].Start) / 1e3
}

// totalUS sums the duration of every span with this name.
func (tr *tracer) totalUS(name string) float64 {
	var ns int64
	for _, s := range tr.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e3
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ladderResult is what the traced pass measured.
type ladderResult struct {
	reqs, docs int
	failed     int
	soloUS     []float64 // rung 0 per request, spans on
	untracedUS float64   // rung 0 total, spans off
	tr         *tracer
	matchCtxUS float64 // Σ Engine.MatchContext per document
	batchUS    float64 // Σ Engine.MatchBatchContext over batchDocs documents
	batchDocs  int
	docBytes   int64
	addUS      float64 // Engine.Add, per expression
	refreezeMS float64
	parseAlloc float64 // mallocs per document in xmldoc.ParseLimitsMode
	matchAlloc float64 // mallocs per document in Engine.MatchParsedContext
}

// tokenize is the scanner's token loop with nothing built from the tokens.
func tokenize(sc *xmlscan.Scanner, doc []byte) error {
	sc.ResetBytes(doc)
	defer sc.Release()
	for {
		k, err := sc.Next()
		if err != nil {
			return err
		}
		if k == xmlscan.EOF {
			return nil
		}
	}
}

// runLadder replays the workload's requests through the rungs for about
// dur. The in-process server and engine are configured as xfserve
// configures its own (default engine, -queue 16).
func runLadder(ctx context.Context, t *target, dur time.Duration) (*ladderResult, error) {
	srv := server.New(server.Config{QueueLimit: 16})
	defer srv.Close()
	sids, err := srv.Preload(t.in.exprs)
	if err != nil {
		return nil, fmt.Errorf("ladder: preload: %w", err)
	}
	ids := make([]int, len(sids))
	for i, s := range sids {
		ids[i] = int(s)
	}
	srvChk := newChecker(t.chk.o, ids, false)

	eng := predfilter.New(predfilter.Config{})
	res := &ladderResult{}
	t0 := time.Now()
	for _, x := range t.in.exprs {
		if _, err := eng.Add(x); err != nil {
			return nil, fmt.Errorf("ladder: add %q: %w", x, err)
		}
	}
	res.addUS = us(time.Since(t0)) / float64(len(t.in.exprs))

	// One untimed request per in-process rung, so that index freezes are
	// not charged to the first replayed request.
	warm := t.in.docs[t.in.bodyDocs[0][0]]
	if _, err := eng.MatchContext(ctx, warm); err != nil {
		return nil, fmt.Errorf("ladder: warm-up match: %w", err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, t.path(), bytes.NewReader(t.in.bodies[0])))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("ladder: warm-up request: status %d", rec.Code)
	}

	var (
		w     worker
		sc    xmlscan.Scanner
		tr    = &tracer{t0: time.Now()}
		since []int // documents replayed since the last MatchBatchContext call
	)
	res.tr = tr
	deadline := tr.t0.Add(dur)
	for seq := int64(0); time.Now().Before(deadline) && ctx.Err() == nil; seq++ {
		b := int(seq % int64(len(t.in.bodies)))
		body, docs := t.in.bodies[b], t.in.bodyDocs[b]
		req := int(seq)
		res.reqs++
		res.docs += len(docs)

		// Rung 0 twice, with and without a span, in alternating order.
		var (
			r0     int
			status int
			herr   error
		)
		for pass := 0; pass < 2; pass++ {
			if withSpan := (pass == 0) == (seq%2 == 0); withSpan {
				r0 = tr.timed(spanHTTP, -1, req, func() { status, herr = t.publish(ctx, &w, seq) })
				res.soloUS = append(res.soloUS, tr.us(r0))
			} else {
				u0 := time.Now()
				status, herr = t.publish(ctx, &w, seq)
				res.untracedUS += us(time.Since(u0))
			}
			if verify(t.chk, docs, t.sp.batch, &w, status, herr).failed {
				res.failed++
			}
		}

		// Rung 1.
		hreq := httptest.NewRequest(http.MethodPost, t.path(), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		r1 := tr.timed(spanServer, r0, req, func() { srv.ServeHTTP(rec, hreq) })
		w.buf.Reset()
		w.buf.Write(rec.Body.Bytes())
		if verify(srvChk, docs, t.sp.batch, &w, rec.Code, nil).failed {
			res.failed++
		}

		// Rung 2: the entry point the handler uses for this kind of request.
		raw := make([][]byte, len(docs))
		for i, d := range docs {
			raw[i] = t.in.docs[d]
		}
		var (
			r2   int
			merr error
		)
		if t.sp.batch {
			r2 = tr.timed(spanEngine, r1, req, func() {
				for _, r := range eng.MatchBatchContext(ctx, raw, 0) {
					if r.Err != nil {
						merr = r.Err
					}
				}
			})
			res.batchUS += tr.us(r2)
			res.batchDocs += len(docs)
		} else {
			r2 = tr.timed(spanEngine, r1, req, func() { _, merr = eng.MatchContext(ctx, raw[0]) })
		}
		if merr != nil {
			return nil, fmt.Errorf("ladder: rung 2: %w", merr)
		}

		// Rung 3, document by document.
		for _, doc := range raw {
			res.docBytes += int64(len(doc))
			var perr error
			r3a := tr.timed(spanParse, r2, req, func() {
				_, perr = xmldoc.ParseLimitsMode(doc, guard.Limits{}, xmldoc.ModeAuto)
			})
			tr.timed(spanTokenize, r3a, req, func() {
				if perr == nil {
					perr = tokenize(&sc, doc)
				}
			})
			if perr != nil {
				return nil, fmt.Errorf("ladder: rung 3a: %w", perr)
			}
			// Parsed outside the span: rung 3b is the match stage alone.
			pd, err := predfilter.ParseDocument(doc)
			if err != nil {
				return nil, fmt.Errorf("ladder: rung 3b: %w", err)
			}
			tr.timed(spanMatch, r2, req, func() { _, perr = eng.MatchParsedContext(ctx, pd) })
			if perr != nil {
				return nil, fmt.Errorf("ladder: rung 3b: %w", perr)
			}
		}

		// The other engine entry point, beside the ladder.
		if t.sp.batch {
			for _, doc := range raw {
				m0 := time.Now()
				if _, err := eng.MatchContext(ctx, doc); err != nil {
					return nil, fmt.Errorf("ladder: MatchContext: %w", err)
				}
				res.matchCtxUS += us(time.Since(m0))
			}
			continue
		}
		res.matchCtxUS += tr.us(r2)
		if since = append(since, docs[0]); len(since) == batchSize {
			group := make([][]byte, batchSize)
			for i, d := range since {
				group[i] = t.in.docs[d]
			}
			b0 := time.Now()
			for _, r := range eng.MatchBatchContext(ctx, group, 0) {
				if r.Err != nil {
					return nil, fmt.Errorf("ladder: MatchBatchContext: %w", r.Err)
				}
			}
			res.batchUS += us(time.Since(b0))
			res.batchDocs += batchSize
			since = since[:0]
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.parseAlloc, res.matchAlloc, err = allocsPerDoc(ctx, eng, t.in.docs[:min(50, len(t.in.docs))])
	if err != nil {
		return nil, err
	}
	res.refreezeMS, err = refreezeMS(ctx, eng, warm, t.in.churn)
	return res, err
}

// allocsPerDoc counts heap allocations of the parse and match stages over
// docs. The benchmark's other goroutines are idle while it runs.
func allocsPerDoc(ctx context.Context, eng *predfilter.Engine, docs [][]byte) (parse, match float64, err error) {
	var m0, m1, m2 runtime.MemStats
	parsed := make([]*predfilter.Document, len(docs))
	runtime.ReadMemStats(&m0)
	for i, d := range docs {
		if parsed[i], err = predfilter.ParseDocument(d); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	for _, d := range parsed {
		if _, err = eng.MatchParsedContext(ctx, d); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m2)
	n := float64(len(docs))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m2.Mallocs-m1.Mallocs) / n, nil
}

// refreezeMS is what the first match after an Add costs beyond a steady
// match of the same document: the index refreeze and the cold path cache.
func refreezeMS(ctx context.Context, eng *predfilter.Engine, doc []byte, pool []string) (float64, error) {
	match := func() (float64, error) {
		t0 := time.Now()
		_, err := eng.MatchContext(ctx, doc)
		return ms(time.Since(t0)), err
	}
	var steady, after []float64
	for i := 0; i < 5; i++ {
		v, err := match()
		if err != nil {
			return 0, err
		}
		steady = append(steady, v)
	}
	for i := 0; i < 5; i++ {
		sid, err := eng.Add(pool[i%len(pool)])
		if err != nil {
			return 0, err
		}
		v, err := match()
		if err != nil {
			return 0, err
		}
		after = append(after, v)
		if err := eng.Remove(sid); err != nil {
			return 0, err
		}
	}
	return median(after) - median(steady), nil
}

// selfTimes is the per-request self-time table of one traced pass: rows
// that sum to the mean solo request time, residual included.
type selfTimes struct {
	rows  []selfRow
	total float64 // client.solo_mean_us
}

type selfRow struct {
	name string
	us   float64
}

func (s selfTimes) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-44s %12s %8s\n", "self time per request", "us", "share")
	for _, r := range s.rows {
		fmt.Fprintf(&b, "  %-44s %12.1f %7.1f%%\n", r.name, r.us, 100*r.us/s.total)
	}
	fmt.Fprintf(&b, "  %-44s %12.1f %7.1f%%\n", "total = client.solo_mean_us", s.total, 100.0)
	return b.String()
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v, NaN when v is empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
