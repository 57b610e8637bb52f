package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// target is a started system plus what is needed to drive and check it.
type target struct {
	sp    spec
	in    *inputs
	sys   *system
	hc    *http.Client
	chk   *checker
	churn *churner // churn workload only
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// worker is one connection's reusable state.
type worker struct {
	buf    bytes.Buffer
	single struct {
		IDs []int `json:"ids"`
	}
	batch struct {
		Results []struct {
			IDs   []int  `json:"ids"`
			Error string `json:"error"`
		} `json:"results"`
	}
	sc scratch
}

// outcome is what one publish request produced.
type outcome struct {
	failed    bool // transport error, non-2xx, or any match set wrong
	respBytes int
	matches   int
}

func (t *target) path() string {
	if t.sp.batch {
		return "/publish/batch"
	}
	return "/publish"
}

// publish sends request body number seq (mod the body cycle) and leaves
// the undecoded response in w.buf.
func (t *target) publish(ctx context.Context, w *worker, seq int64) (status int, err error) {
	body := t.in.bodies[int(seq%int64(len(t.in.bodies)))]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.sys.url+t.path(), bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	w.buf.Reset()
	if _, err := w.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// verify decodes the response in w.buf and checks every match set in it
// against the oracle. It runs outside any timed section of the ladder but
// inside the load loops, where a real client would decode too.
func verify(chk *checker, docs []int, batch bool, w *worker, status int, err error) outcome {
	out := outcome{respBytes: w.buf.Len()}
	if err != nil || status < 200 || status > 299 {
		out.failed = true
		return out
	}
	if !batch {
		if json.Unmarshal(w.buf.Bytes(), &w.single) != nil || !chk.ok(docs[0], w.single.IDs, &w.sc) {
			out.failed = true
		}
		out.matches = len(w.single.IDs)
		return out
	}
	if json.Unmarshal(w.buf.Bytes(), &w.batch) != nil || len(w.batch.Results) != len(docs) {
		out.failed = true
		return out
	}
	for i, r := range w.batch.Results {
		if r.Error != "" || !chk.ok(docs[i], r.IDs, &w.sc) {
			out.failed = true
		}
		out.matches += len(r.IDs)
	}
	return out
}

func (t *target) publishChecked(ctx context.Context, w *worker, seq int64) outcome {
	status, err := t.publish(ctx, w, seq)
	if t.churn != nil && seq%churnEveryDocs == 0 {
		select {
		case t.churn.tick <- struct{}{}:
		default: // the previous pair is still running
		}
	}
	return verify(t.chk, t.in.bodyDocs[int(seq%int64(len(t.in.bodies)))], t.sp.batch, w, status, err)
}

// mark is a point on a phase's own clock: what the phase has accumulated
// over its slices, leaving out whatever ran between them.
type mark struct {
	secs     float64
	docs     int
	cpu      float64 // CPU seconds of all server processes
	entryCPU float64 // of the entry process alone: the coordinator, in a cluster
}

// phase accumulates what one kind of load observed over its slices. A run
// interleaves slices of closed-loop and open-loop load, so that each
// metric samples the whole run and a slow spell of the host lands on a part
// of every metric's samples, not on all samples of one.
type phase struct {
	// next is the closed loop's publish sequence. It runs on from slice to
	// slice, so any sp.docs consecutive publishes cover every document
	// once, also across a slice boundary.
	next      atomic.Int64
	mu        sync.Mutex
	reqs      int
	failed    int
	docs      int
	respBytes int64
	matches   int64
	latMS     []float64 // per request; from the due time in the open loop
	lagMS     []float64 // open loop: how late each send started
	sliceP75  []float64 // open loop: each slice's upper-quartile latency
	parts     []mark    // closed loop: each completion of a cycleParts-th of the document cycle
	done      mark      // what the finished slices add up to
	sliceAt   time.Time // start of the running slice
	sliceCPU  [2]float64
}

// serverCPU reads the CPU seconds of all server processes and of the entry
// process alone. A server that has vanished shows up as failed requests.
func (t *target) serverCPU() (all, entry float64) {
	for i, c := range t.sys.procs {
		v, _ := cpuSeconds(c.Process.Pid)
		all += v
		if i == 0 {
			entry = v
		}
	}
	return all, entry
}

func (p *phase) begin(t *target) {
	p.sliceAt = time.Now()
	p.sliceCPU[0], p.sliceCPU[1] = t.serverCPU()
}

// now is the phase's clock inside a slice.
func (p *phase) now(t *target) mark {
	all, entry := t.serverCPU()
	return mark{
		secs:     p.done.secs + time.Since(p.sliceAt).Seconds(),
		docs:     p.docs,
		cpu:      p.done.cpu + all - p.sliceCPU[0],
		entryCPU: p.done.entryCPU + entry - p.sliceCPU[1],
	}
}

func (p *phase) record(t *target, o outcome, latMS, lagMS float64, open bool) {
	n := t.sp.docsPerReq()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reqs++
	if o.failed {
		p.failed++
	}
	before := p.docs
	p.docs += n
	p.respBytes += int64(o.respBytes)
	p.matches += int64(o.matches)
	p.latMS = append(p.latMS, latMS)
	if open {
		p.lagMS = append(p.lagMS, lagMS)
		return
	}
	if part := t.sp.docs / cycleParts; before/part != p.docs/part {
		p.parts = append(p.parts, p.now(t))
	}
}

// perCycle is documents per second and server CPU milliseconds per
// document over each whole document cycle the phase completed, starting at
// every mark, so that every sample covers the same document mix. A phase
// that completed no cycle yields its totals as the one sample.
func (p *phase) perCycle() (docsPerS, cpuMSPerDoc []float64) {
	marks := append([]mark{{}}, p.parts...)
	span := cycleParts
	if len(marks) <= span {
		marks, span = []mark{{}, p.done}, 1
	}
	for i, m := range marks[span:] {
		docs := float64(m.docs - marks[i].docs)
		docsPerS = append(docsPerS, docs/(m.secs-marks[i].secs))
		cpuMSPerDoc = append(cpuMSPerDoc, 1000*(m.cpu-marks[i].cpu)/docs)
	}
	return docsPerS, cpuMSPerDoc
}

// closedLoop adds a slice of dur to p: sp.conns requests are kept in
// flight, each connection sending its next request when the previous
// response has been verified.
func (t *target) closedLoop(ctx context.Context, p *phase, dur time.Duration) {
	p.begin(t)
	deadline := p.sliceAt.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < t.sp.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				seq := p.next.Add(1) - 1
				t0 := time.Now()
				o := t.publishChecked(ctx, w, seq)
				p.record(t, o, ms(time.Since(t0)), 0, false)
			}
		}()
	}
	wg.Wait()
	p.done = p.now(t)
}

// spinWindow is how long before a due time the pacer stops sleeping and
// spins on the clock instead. A sleeping goroutine on this kind of host
// wakes up to a millisecond late, which is more than a light request takes.
const spinWindow = 2 * time.Millisecond

// waitUntil returns at due, or at once when due has passed, and reports by
// how much it overshot.
func waitUntil(due time.Time) (lag time.Duration) {
	wait := time.Until(due)
	if wait <= 0 {
		return 0
	}
	if wait > spinWindow {
		time.Sleep(wait - spinWindow)
	}
	for time.Now().Before(due) {
	}
	return time.Since(due)
}

// openLoop adds a slice of dur to p: requests are sent on a fixed
// schedule, rate per second, with at most sp.conns in flight. Latency runs
// from the instant a request was due, so a stall is charged to every
// request it delayed; lag records how late the generator itself was. One
// connection at a time waits for the next due time, so at most one core
// spins. Every slice sends the same requests, from the first of the cycle
// on, so that slices differ by what the host did and not by their documents.
func (t *target) openLoop(ctx context.Context, p *phase, dur time.Duration, rate float64) {
	p.begin(t)
	from := len(p.latMS)
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var (
		pace sync.Mutex
		k    int // next request of the schedule; guarded by pace
		wg   sync.WaitGroup
	)
	for c := 0; c < t.sp.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{}
			for ctx.Err() == nil {
				pace.Lock()
				if k >= n {
					pace.Unlock()
					return
				}
				seq := int64(k)
				due := p.sliceAt.Add(time.Duration(k) * interval)
				k++
				// A connection that frees up after the due time sends at
				// once: that delay is the system's backlog and belongs to
				// the latency. Only overshooting is the generator's lag.
				lag := waitUntil(due)
				pace.Unlock()
				o := t.publishChecked(ctx, w, seq)
				p.record(t, o, ms(time.Since(due)), ms(lag), true)
			}
		}()
	}
	wg.Wait()
	p.done = p.now(t)
	if len(p.latMS) > from {
		p.sliceP75 = append(p.sliceP75, quantile(p.latMS[from:], 0.75))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// subscribe registers one expression and returns the id the server chose.
func subscribe(ctx context.Context, hc *http.Client, url, expr string) (int, error) {
	body, err := json.Marshal(map[string]string{"expression": expr})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/subscriptions", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		ID *int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("subscribe %q: status %d: %w", expr, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusCreated || out.ID == nil {
		return 0, fmt.Errorf("subscribe %q: status %d", expr, resp.StatusCode)
	}
	return *out.ID, nil
}

func unsubscribe(ctx context.Context, hc *http.Client, url string, id int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, fmt.Sprintf("%s/subscriptions/%d", url, id), nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("unsubscribe %d: status %d", id, resp.StatusCode)
	}
	return nil
}

// subscribeAll registers every expression over conns connections and
// returns the server's id for each, in expression order.
func subscribeAll(ctx context.Context, hc *http.Client, url string, exprs []string, conns int) ([]int, error) {
	ids := make([]int, len(exprs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(exprs) {
					return
				}
				id, err := subscribe(ctx, hc, url, exprs[i])
				if err != nil {
					errs[c] = err
					return
				}
				ids[i] = id
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ids, ctx.Err()
}

// churner is the write traffic of the churn workload: one connection doing
// a subscribe→unsubscribe pair after every churnEveryDocs published
// documents. Every pair refreezes the index, bumps the path-cache
// generation and appends twice to the WAL. Pairs are tied to the document
// count, not the clock, so that every document cycle sees the same
// invalidations at the same places: on a clock, a slower host publishes
// fewer documents per invalidation, each of them more expensive, and the
// workload amplifies the host's noise.
type churner struct {
	tick      chan struct{} // one token per pair due; capacity 1, a pair takes far less than churnEveryDocs publishes
	measuring atomic.Bool   // operations count only while set
	mu        sync.Mutex
	ops       int
	failed    int
	subMS     []float64
	unsubMS   []float64
	stop      context.CancelFunc
	done      chan struct{}
}

// startChurner starts t's churn connection; it runs until halt.
func startChurner(ctx context.Context, t *target) *churner {
	ctx, cancel := context.WithCancel(ctx)
	c := &churner{tick: make(chan struct{}, 1), stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for k := 0; ; k++ {
			select {
			case <-ctx.Done():
				return
			case <-c.tick:
			}
			t0 := time.Now()
			id, err := subscribe(ctx, t.hc, t.sys.url, t.in.churn[k%len(t.in.churn)])
			subMS := ms(time.Since(t0))
			if ctx.Err() != nil {
				return
			}
			c.note(err != nil, &c.subMS, subMS)
			if err != nil {
				continue
			}
			t1 := time.Now()
			// The removal runs to completion even when the phase ends, so
			// no churn subscription is left behind.
			err = unsubscribe(context.WithoutCancel(ctx), t.hc, t.sys.url, id)
			c.note(err != nil, &c.unsubMS, ms(time.Since(t1)))
		}
	}()
	t.churn = c
	return c
}

func (c *churner) note(failed bool, lat *[]float64, v float64) {
	if !c.measuring.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if failed {
		c.failed++
	}
	*lat = append(*lat, v)
}

func (c *churner) halt() {
	c.stop()
	<-c.done
}
