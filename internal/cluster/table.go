package cluster

import (
	"slices"

	"predfilter/internal/metrics"
)

// coordScrape is one /metrics request's reading of the coordinator:
// Stats, the shard list the scrape fan-out used with each shard's scrape
// outcome, and the gather-merge histogram.
type coordScrape struct {
	st         Stats
	shards     []*shard
	errs       []error // per shards entry
	gather     metrics.HistSnapshot
	scrapeErrs int64
}

// coordTable declares the coordinator's own families; the shards' rolled
// up families follow them on /metrics. The coordinator's /stats is the
// encoding of Stats, so a JSON key here names the Stats field the family
// mirrors.
var coordTable = []metrics.Row[coordScrape]{
	{Name: "predfilter_cluster_shards", Kind: "gauge", Help: "Shards on the ring.", JSON: "shards", On: metrics.OnStats, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.Shards) }},
	{Name: "predfilter_cluster_subscriptions", Kind: "gauge", Help: "Live subscriptions across all shards.", JSON: "subscriptions", On: metrics.OnStats, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.Subscriptions) }},
	{Name: "predfilter_cluster_docs_published_total", Kind: "counter", Help: "Documents accepted by the scatter/gather publish path.", JSON: "docs_published", On: metrics.OnStats, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.DocsPublished) }},
	{Name: "predfilter_cluster_docs_degraded_total", Kind: "counter", Help: "Published documents answered with a partial match set.", JSON: "docs_degraded", On: metrics.OnStats, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.DocsDegraded) }},
	{Name: "predfilter_cluster_docs_failed_total", Kind: "counter", Help: "Published documents refused outright.", JSON: "docs_failed", On: metrics.OnStats, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.DocsFailed) }},
	{Name: "predfilter_cluster_failovers_total", Kind: "counter", Help: "Standby promotions.", JSON: "failovers", On: metrics.OnStats, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.Failovers) }},
	perShard("predfilter_cluster_shard_subscriptions", "gauge", "Subscriptions owned per shard.", func(p *ShardStats) any { return p.Subscriptions }),
	perShard("predfilter_cluster_shard_healthy", "gauge", "Last health probe outcome per shard (1 healthy).", func(p *ShardStats) any { return b2i(p.Healthy) }),
	perShard("predfilter_cluster_shard_published_total", "counter", "Successful per-shard publish calls.", func(p *ShardStats) any { return p.Published }),
	perShard("predfilter_cluster_shard_errors_total", "counter", "Failed per-shard publish calls (after retries).", func(p *ShardStats) any { return p.Errors }),
	perShard("predfilter_cluster_shard_retries_total", "counter", "Per-shard publish attempts retried.", func(p *ShardStats) any { return p.Retries }),
	perShard("predfilter_cluster_shard_skipped_total", "counter", "Documents that skipped a shard after exhausting retries.", func(p *ShardStats) any { return p.Skipped }),
	perShard("predfilter_cluster_shard_publish_seconds_total", "counter", "Wall time spent in per-shard publish calls.", func(p *ShardStats) any { return p.PublishSecs }),
	perShard("predfilter_cluster_breaker_state", "gauge", "Circuit breaker state per shard (0 closed, 1 half-open, 2 open).", func(p *ShardStats) any { return breakerGauge(p.Breaker) }),
	perShard("predfilter_cluster_breaker_opens_total", "counter", "Circuit breaker open transitions per shard.", func(p *ShardStats) any { return p.BreakerOpens }),
	perShard("predfilter_cluster_breaker_fast_fails_total", "counter", "Calls refused by an open breaker without touching the network.", func(p *ShardStats) any { return p.FastFails }),
	{Name: "predfilter_cluster_orphan_sids", Kind: "gauge", Help: "Burned subscription ids awaiting reap.", JSON: "orphans", On: metrics.OnStats, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.Orphans) }},
	{Name: "predfilter_coord_store_wal_records", Kind: "gauge", Help: "Coordinator state records since the last snapshot.", When: hasStore, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.Store.WALRecords) }},
	{Name: "predfilter_coord_store_appends_total", Kind: "counter", Help: "Coordinator state records appended.", When: hasStore, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.Store.Appends) }},
	{Name: "predfilter_coord_store_snapshots_total", Kind: "counter", Help: "Coordinator state snapshot compactions.", When: hasStore, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.Store.Snapshots) }},
	{Name: "predfilter_coord_store_compact_failures_total", Kind: "counter", Help: "Coordinator state compactions started by an append that failed (the append succeeded).", When: hasStore, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.Store.CompactFailures) }},
	{Name: "predfilter_coord_store_torn_bytes", Kind: "gauge", Help: "Torn-tail bytes discarded at last coordinator state recovery.", When: hasStore, Read: func(s *coordScrape, e metrics.Emit) { e(s.st.Store.TornBytes) }},
	{Name: "predfilter_cluster_rpc_duration_seconds", Kind: "histogram", Help: "Coordinator-to-shard RPC latency per shard and stage (every attempt, including retried ones).", Labels: []string{"shard", "stage"},
		Read: func(s *coordScrape, e metrics.Emit) {
			for _, sh := range s.shards {
				for stage := 0; stage < numRPCStages; stage++ {
					if h := sh.rpc[stage].Snapshot(); h.Count > 0 {
						e(h, sh.name, rpcStageNames[stage])
					}
				}
			}
		}},
	{Name: "predfilter_cluster_gather_merge_seconds", Kind: "histogram", Help: "Gather-merge stage of scatter/gather publish.", Read: func(s *coordScrape, e metrics.Emit) { e(s.gather) }},
	{Name: "predfilter_cluster_scrape_errors_total", Kind: "counter", Help: "Shard scrapes that failed during /metrics or /stats rollup.", Read: func(s *coordScrape, e metrics.Emit) { e(s.scrapeErrs) }},
	{Name: "predfilter_cluster_scrape_ok", Kind: "gauge", Help: "Whether the shard's /metrics scrape succeeded on this pass (1 ok).", Labels: shardKey,
		Read: func(s *coordScrape, e metrics.Emit) {
			for i, sh := range s.shards {
				e(b2i(s.errs[i] == nil), sh.name)
			}
		}},
}

var shardKey = []string{"shard"}

// perShard declares a family with one sample per shard of Stats.PerShard.
func perShard(name, kind, help string, get func(*ShardStats) any) metrics.Row[coordScrape] {
	return metrics.Row[coordScrape]{Name: name, Kind: kind, Help: help, Labels: shardKey,
		Read: func(s *coordScrape, e metrics.Emit) {
			for i := range s.st.PerShard {
				e(get(&s.st.PerShard[i]), s.st.PerShard[i].Name)
			}
		}}
}

func hasStore(s *coordScrape) bool { return s.st.Store != nil }

// breakerGauge maps a breaker state name onto the breaker_state value: its
// index in breakerStateNames (a disabled breaker never blocks: 0).
func breakerGauge(state string) int64 {
	return max(0, int64(slices.Index(breakerStateNames[:], state)))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
