package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// An untraced pass alternates closed-loop and open-loop slices: one round
// per secondsPerRound of -seconds, at most maxRounds. Rounds shorter than
// that would hold too few document cycles and paced requests each.
const (
	maxRounds       = 6
	secondsPerRound = 4
)

// roundsOf is how many rounds a pass of this many seconds has. The traced
// pass has one slice of each kind, so that the scrapes bracket the
// closed-loop load and nothing else.
func roundsOf(seconds float64, traced bool) int {
	if traced {
		return 1
	}
	return max(1, min(maxRounds, int(seconds/secondsPerRound)))
}

// setupRuns is how many times an untraced run sets the system up; setup_s
// is the median, and the last set-up is the one that is then measured. A
// traced run reports no setup_s and sets up once.
const setupRuns = 3

// Phase lengths as shares of -seconds. The untraced pass keeps the
// 2 : 14 : 12 proportions of warm : sat : paced; the traced pass gives the
// ladder the time it takes from the load phases.
var (
	untracedShares = phaseShares{warm: 2.0 / 28, sat: 14.0 / 28, paced: 12.0 / 28}
	tracedShares   = phaseShares{warm: 0.07, sat: 0.30, paced: 0.25, ladder: 0.38}
)

type phaseShares struct{ warm, sat, paced, ladder float64 }

// phaseLen is a phase's length: its share of the pass's seconds.
func phaseLen(share, seconds float64) time.Duration {
	return time.Duration(share * seconds * float64(time.Second))
}

// env is what every run of one benchmark process shares.
type env struct {
	root string
	bin  string
	j    *janitor
}

// result is what one run of one workload measured. Metrics a run did not
// or cannot measure are absent or NaN; both print as n/a.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	pacedVoid bool       // generator lag p99 exceeded the paced median
	table     *selfTimes // traced runs only
	notes     []string
}

// setUp starts the system, subscribes every expression over HTTP and
// publishes one document; it returns once that response is verified.
func setUp(ctx context.Context, e *env, sp spec, in *inputs, o *oracle) (t *target, setupS, subscribeS float64, err error) {
	t0 := time.Now()
	sys, err := startSystem(ctx, e.j, e.root, e.bin, sp)
	if err != nil {
		return nil, 0, 0, err
	}
	t = &target{sp: sp, in: in, sys: sys, hc: newHTTPClient()}
	s0 := time.Now()
	ids, err := subscribeAll(ctx, t.hc, sys.url, in.exprs, runtime.NumCPU())
	if err != nil {
		t.close()
		return nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	subscribeS = time.Since(s0).Seconds()
	t.chk = newChecker(o, ids, sp.churn)
	if out := t.publishChecked(ctx, &worker{}, 0); out.failed {
		t.close()
		return nil, 0, 0, fmt.Errorf("set-up: first publish on %s failed verification", sp.name)
	}
	return t, time.Since(t0).Seconds(), subscribeS, nil
}

func (t *target) close() {
	t.hc.CloseIdleConnections()
	t.sys.stop()
}

// runWorkload is one run: inputs from the seed, the oracle, setupRuns
// set-ups, then the load phases and, when traced, scrapes and the ladder.
func runWorkload(ctx context.Context, e *env, sp spec, seed int64, seconds float64, traced bool) (*result, error) {
	in, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	o, err := buildOracle(in, seed)
	if err != nil {
		return nil, err
	}
	var (
		t          *target
		setups     []float64
		subscribeS float64
	)
	n := setupRuns
	if traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		if t != nil {
			t.close()
		}
		var s float64
		if t, s, subscribeS, err = setUp(ctx, e, sp, in, o); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer t.close()

	res := &result{metrics: map[string]float64{"setup_s": median(setups)}}
	m := res.metrics
	shares := untracedShares
	if traced {
		shares = tracedShares
	}
	var ch *churner
	if sp.churn {
		ch = startChurner(ctx, t)
		defer ch.halt()
	}
	t.closedLoop(ctx, &phase{}, phaseLen(shares.warm, seconds))
	if ch != nil {
		ch.measuring.Store(true)
	}

	var win window
	if sp.shards > 0 {
		win.shard = []string{"shard", "all"}
	}
	rounds := roundsOf(seconds, traced)
	sat, paced := &phase{}, &phase{}
	for r := 0; r < rounds; r++ {
		if traced {
			if win.before, err = scrapeMetrics(ctx, t.hc, t.sys.url); err != nil {
				return nil, err
			}
		}
		t.closedLoop(ctx, sat, phaseLen(shares.sat, seconds)/time.Duration(rounds))
		if traced {
			if win.after, err = scrapeMetrics(ctx, t.hc, t.sys.url); err != nil {
				return nil, err
			}
		}
		t.openLoop(ctx, paced, phaseLen(shares.paced, seconds)/time.Duration(rounds), sp.pacedRate)
	}
	if ch != nil {
		ch.halt()
		res.attempted += ch.ops
		res.failed += ch.failed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.attempted += sat.reqs + paced.reqs
	res.failed += sat.failed + paced.failed

	// The host is shared: its slow spells last seconds to minutes and only
	// ever take speed away. So each figure is the better quartile of its
	// samples (the rate a quarter of the document cycles reached, the CPU
	// cost a quarter of them stayed under, the latency a quarter of the
	// paced slices stayed under), which holds still until three quarters of
	// a run are disturbed; a median moves with every disturbed sample. The
	// note shows how far apart the two were in this run.
	rates, cpus := sat.perCycle()
	m["docs_per_s"], m["cpu_ms_per_doc"] = quantile(rates, 0.75), quantile(cpus, 0.25)
	m["paced_p75_ms"] = quantile(paced.sliceP75, 0.25)
	res.notes = append(res.notes,
		fmt.Sprintf("set-ups %.3g s; rounds of a sat and a paced slice: %d", setups, rounds),
		fmt.Sprintf("%d samples of a whole document cycle: docs/s p25 %.5g p50 %.5g p75 %.5g; cpu ms/doc p25 %.4g p50 %.4g p75 %.4g",
			len(rates), quantile(rates, 0.25), median(rates), quantile(rates, 0.75), quantile(cpus, 0.25), median(cpus), quantile(cpus, 0.75)),
		fmt.Sprintf("paced p75 per slice %.4g ms", paced.sliceP75))
	m["loadgen.sched_lag_p99_ms"] = quantile(paced.lagMS, 0.99)
	m["client.paced_p50_ms"] = median(paced.latMS)
	m["client.paced_p95_ms"] = quantile(paced.latMS, 0.95)
	m["client.paced_p99_ms"] = math.NaN()
	if len(paced.latMS) >= 1000 {
		m["client.paced_p99_ms"] = quantile(paced.latMS, 0.99)
	}
	m["client.paced_samples"] = float64(len(paced.latMS))
	res.pacedVoid = m["loadgen.sched_lag_p99_ms"] > m["client.paced_p50_ms"]
	if len(sat.parts) < cycleParts {
		res.notes = append(res.notes, fmt.Sprintf("sat completed no whole document cycle (%d documents); rates are over a partial cycle", sat.docs))
	}
	if !traced {
		return res, nil
	}

	satMetrics(m, t, sat, win, ch)
	clusterMetrics(m, t, sat, win, subscribeS)

	lwin := window{shard: win.shard}
	if lwin.before, err = scrapeMetrics(ctx, t.hc, t.sys.url); err != nil {
		return nil, err
	}
	lad, err := runLadder(ctx, t, phaseLen(shares.ladder, seconds))
	if err != nil {
		return nil, err
	}
	if lwin.after, err = scrapeMetrics(ctx, t.hc, t.sys.url); err != nil {
		return nil, err
	}
	res.attempted += 3 * lad.reqs
	res.failed += lad.failed
	res.table = ladderMetrics(m, t, lad, lwin)
	if err := lad.tr.write(filepath.Join(e.root, "benchmark", "out", "trace-"+sp.name+".json")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("ladder replayed %d requests (%d documents), %d spans", lad.reqs, lad.docs, len(lad.tr.spans)))
	return res, nil
}

// satMetrics fills the scrape and client-side per-layer metrics of the sat
// phase. Stage means divide by the stage's own observation count; the
// per-document ratios divide by the documents the engine counted.
func satMetrics(m map[string]float64, t *target, sat *phase, w window, ch *churner) {
	wall := sat.done.secs
	docs := w.delta("predfilter_docs_total")
	m["server.resp_bytes_per_doc"] = ratio(float64(sat.respBytes), float64(sat.docs))
	m["server.deliveries_per_doc"] = ratio(float64(sat.matches), float64(sat.docs))
	m["server.shed_share"] = ratio(w.delta("predfilter_server_shed_total"), float64(sat.reqs))
	m["server.cpu_cores_busy"] = sat.done.cpu / wall
	var rss float64
	for _, c := range t.sys.procs {
		v, _ := peakRSSMB(c.Process.Pid) // a vanished server already failed the run
		rss += v
	}
	m["server.rss_mb"] = rss
	m["server.subscribe_p50_ms"], m["server.unsubscribe_p50_ms"] = math.NaN(), math.NaN()
	if ch != nil {
		ch.mu.Lock()
		m["server.subscribe_p50_ms"], m["server.unsubscribe_p50_ms"] = median(ch.subMS), median(ch.unsubMS)
		ch.mu.Unlock()
	}

	const stage = "predfilter_stage_duration_seconds"
	m["engine.stream_avg_batch"] = ratio(w.delta("predfilter_stream_jobs_total"), w.delta("predfilter_stream_batches_total"))
	m["engine.stream_worker_busy_share"] = math.NaN()
	if t.sp.batch {
		busy := w.delta(stage+"_sum", "stage", "parse") + w.delta(stage+"_sum", "stage", "match")
		m["engine.stream_worker_busy_share"] = busy / (wall * float64(runtime.NumCPU()))
	}
	m["xmldoc.paths_per_doc"] = ratio(w.delta("predfilter_paths_total"), docs)
	fallback := w.delta("predfilter_parse_docs_total", "path", "fallback")
	m["xmldoc.fallback_share"] = ratio(fallback, fallback+w.delta("predfilter_parse_docs_total", "path", "scan"))
	m["xmldoc.stage_parse_us_per_doc"] = w.stageUS(stage, "stage", "parse")
	m["matcher.stage_match_us_per_doc"] = w.stageUS(stage, "stage", "match")
	m["predindex.stage_us_per_doc"] = w.stageUS(stage, "stage", "predicate_match")
	m["occur.stage_us_per_doc"] = w.stageUS(stage, "stage", "occurrence")
	m["pathcache.stage_us_per_doc"] = w.stageUS(stage, "stage", "cache")
	sub := w.delta(stage+"_sum", "stage", "predicate_match") + w.delta(stage+"_sum", "stage", "occurrence") + w.delta(stage+"_sum", "stage", "cache")
	m["matcher.unattributed_us_per_doc"] = 1e6 * ratio(w.delta(stage+"_sum", "stage", "match")-sub, w.delta(stage+"_count", "stage", "match"))
	m["matcher.matches_per_doc"] = ratio(w.delta("predfilter_matches_total"), docs)
	m["matcher.columnar_doc_share"] = ratio(w.delta("predfilter_columnar_docs_total"), docs)
	m["matcher.columnar_sweep_us_per_doc"] = 1e6 * ratio(w.delta("predfilter_columnar_sweep_duration_seconds_sum"), w.delta("predfilter_columnar_sweep_duration_seconds_count"))
	m["matcher.columnar_ambiguous_share"] = ratio(w.delta("predfilter_columnar_ambiguous_paths_total"), w.delta("predfilter_columnar_paths_total"))
	m["matcher.columnar_occupancy"] = ratio(w.delta("predfilter_columnar_words_total", "state", "live"), w.delta("predfilter_columnar_words_total", "state", "swept"))
	m["predindex.distinct_predicates"] = w.after.get("predfilter_distinct_predicates", w.shard...)
	hits, misses := w.delta("predfilter_path_cache_hits_total"), w.delta("predfilter_path_cache_misses_total")
	m["pathcache.hit_share"] = ratio(hits, hits+misses)
	m["pathcache.evictions_per_doc"] = ratio(w.delta("predfilter_path_cache_evictions_total"), docs)
	m["pathcache.invalidations_per_s"] = w.delta("predfilter_path_cache_invalidations_total") / wall
	m["pathcache.bytes_mb"] = w.after.get("predfilter_path_cache_bytes", w.shard...) / (1 << 20)
	m["store.wal_append_p50_us"] = w.quantileUS("predfilter_store_duration_seconds", 0.5, "op", "wal_append")
	m["store.appends_per_s"] = math.NaN()
	if t.sp.churn {
		m["store.appends_per_s"] = w.delta("predfilter_store_appends_total") / wall
	}
}

// clusterMetrics fills the coordinator's side of the sat phase. The
// coordinator labels its own families by shard; they carry no "all" sum.
func clusterMetrics(m map[string]float64, t *target, sat *phase, w window, subscribeS float64) {
	if t.sp.shards == 0 {
		for _, name := range []string{"rpc_publish_mean_us", "rpc_publish_skew", "gather_merge_us_per_doc", "scatter_overhead_us_per_doc",
			"coord_cpu_ms_per_doc", "shard_cpu_ms_per_doc", "retry_share", "degraded_share", "subscribe_per_s", "sub_skew"} {
			m["cluster."+name] = math.NaN()
		}
		return
	}
	cw := window{before: w.before, after: w.after}
	var retries, published float64
	subsMax, subsMin := 0.0, math.Inf(1)
	for _, s := range cw.after.labelValues("predfilter_cluster_shard_subscriptions", "shard") {
		retries += cw.delta("predfilter_cluster_shard_retries_total", "shard", s)
		published += cw.delta("predfilter_cluster_shard_published_total", "shard", s)
		subs := cw.after.get("predfilter_cluster_shard_subscriptions", "shard", s)
		subsMax, subsMin = max(subsMax, subs), min(subsMin, subs)
	}
	rpcMean, slowest, fastest, gather := cw.publishRPC()
	m["cluster.rpc_publish_mean_us"] = rpcMean
	m["cluster.rpc_publish_skew"] = ratio(slowest, fastest)
	m["cluster.gather_merge_us_per_doc"] = gather
	m["cluster.retry_share"] = ratio(retries, published)
	m["cluster.degraded_share"] = ratio(cw.delta("predfilter_cluster_docs_degraded_total"), cw.delta("predfilter_cluster_docs_published_total"))
	m["cluster.subscribe_per_s"] = float64(len(t.in.exprs)) / subscribeS
	m["cluster.sub_skew"] = ratio(subsMax, subsMin)

	coord := sat.done.entryCPU
	m["cluster.coord_cpu_ms_per_doc"] = 1e3 * coord / float64(sat.docs)
	m["cluster.shard_cpu_ms_per_doc"] = 1e3 * (sat.done.cpu - coord) / float64(sat.docs)
}

// publishRPC summarises a coordinator's publish RPCs over the window, in
// µs: the mean over all shards, the slowest and the fastest shard's mean,
// and the mean gather/merge time.
func (w window) publishRPC() (mean, slowest, fastest, gather float64) {
	const rpc = "predfilter_cluster_rpc_duration_seconds"
	var sum, count float64
	fastest = math.Inf(1)
	for _, s := range w.after.labelValues(rpc+"_count", "shard") {
		ds, dc := w.delta(rpc+"_sum", "shard", s, "stage", "publish"), w.delta(rpc+"_count", "shard", s, "stage", "publish")
		sum, count = sum+ds, count+dc
		slowest, fastest = max(slowest, 1e6*ratio(ds, dc)), min(fastest, 1e6*ratio(ds, dc))
	}
	gather = 1e6 * ratio(w.delta("predfilter_cluster_gather_merge_seconds_sum"), w.delta("predfilter_cluster_gather_merge_seconds_count"))
	return 1e6 * ratio(sum, count), slowest, fastest, gather
}

// ladderMetrics fills the ladder's per-layer metrics and builds the
// self-time table. Everything in the table is per request; the *_per_doc
// metrics divide by the documents a request carries.
func ladderMetrics(m map[string]float64, t *target, lad *ladderResult, w window) *selfTimes {
	reqs, docs := float64(lad.reqs), float64(lad.docs)
	r0 := mean(lad.soloUS)
	r1 := lad.tr.totalUS(spanServer) / reqs
	r2 := lad.tr.totalUS(spanEngine) / reqs
	parse := lad.tr.totalUS(spanParse) / reqs
	tok := lad.tr.totalUS(spanTokenize) / reqs
	match := lad.tr.totalUS(spanMatch) / reqs
	perDoc := reqs / docs

	m["client.solo_p50_us"] = median(lad.soloUS)
	m["client.solo_mean_us"] = r0
	m["client.solo_p99_us"] = quantile(lad.soloUS, 0.99)
	m["loadgen.trace_overhead_share"] = r0/(lad.untracedUS/reqs) - 1
	m["http.transport_us_per_req"] = r0 - r1
	m["server.handler_us_per_req"] = r1 - r2
	m["engine.match_us_per_doc"] = lad.matchCtxUS / docs
	m["engine.overhead_us_per_doc"] = (r2 - parse - match) * perDoc
	m["engine.batch_us_per_doc"] = ratio(lad.batchUS, float64(lad.batchDocs))
	m["engine.add_us_per_expr"] = lad.addUS
	m["engine.refreeze_ms"] = lad.refreezeMS
	m["xmlscan.tokenize_us_per_doc"] = tok * perDoc
	m["xmlscan.mb_per_s"] = float64(lad.docBytes) / (tok * reqs) // bytes per µs
	m["xmldoc.parse_us_per_doc"] = parse * perDoc
	m["xmldoc.build_us_per_doc"] = (parse - tok) * perDoc
	m["xmldoc.allocs_per_doc"] = lad.parseAlloc
	m["matcher.match_us_per_doc"] = match * perDoc
	m["matcher.allocs_per_doc"] = lad.matchAlloc

	tab := &selfTimes{total: r0}
	if t.sp.shards > 0 {
		// Behind a coordinator a request is scatter, the slowest shard's
		// RPC, and gather; the in-process rungs (one engine holding every
		// expression) are reported above but are not a decomposition of it.
		_, slowest, _, gather := window{before: w.before, after: w.after}.publishRPC()
		m["cluster.scatter_overhead_us_per_doc"] = r0 - slowest
		m["ladder.residual_us_per_req"] = math.NaN()
		tab.rows = []selfRow{
			{"cluster scatter (total - rpc - gather)", r0 - slowest - gather},
			{"cluster.rpc_publish, slowest shard's mean", slowest},
			{"cluster.gather_merge", gather},
			{"residual", 0},
		}
		return tab
	}
	// What the served engine's own stage clocks reported for these requests
	// against what the replayed stages took: the part of rung 0 - rung 1
	// that is not transport but a difference between the two processes.
	const stage = "predfilter_stage_duration_seconds"
	served := 1e6 * (w.delta(stage+"_sum", "stage", "parse") + w.delta(stage+"_sum", "stage", "match")) / float64(2*lad.reqs)
	residual := served - parse - match
	m["ladder.residual_us_per_req"] = residual
	tab.rows = []selfRow{
		{"http.transport (rung 0 - rung 1 - residual)", r0 - r1 - residual},
		{"server.handler (rung 1 - rung 2)", r1 - r2},
		{"engine.overhead (rung 2 - 3a - 3b)", r2 - parse - match},
		{"xmlscan.tokenize", tok},
		{"xmldoc.build (3a - tokenize)", parse - tok},
		{"matcher.match (3b)", match},
		{"residual (served - replayed parse and match)", residual},
	}
	return tab
}
