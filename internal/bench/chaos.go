package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"predfilter/internal/cluster"
	"predfilter/internal/dtd"
	"predfilter/internal/faultnet"
	"predfilter/internal/server"
)

// ChaosScenario is one fault pattern measured end to end: publish
// latency while healthy, while the fault is active (for the partition
// scenario, after the breaker has opened — the steady state the breaker
// buys), the degraded rate, breaker activity, and the time from heal to
// the first whole publish.
type ChaosScenario struct {
	Name string `json:"name"`
	// Healthy publish latency through the transparent proxy.
	HealthyP50Ms float64 `json:"healthy_p50_ms"`
	HealthyP99Ms float64 `json:"healthy_p99_ms"`
	// TripMs is how long the fault ran before the breaker opened
	// (partition scenario; 0 when the breaker never opened).
	TripMs float64 `json:"trip_ms"`
	// Fault-steady-state publish latency: after the breaker opened for
	// the partition scenario, across the whole fault window otherwise.
	FaultP50Ms float64 `json:"fault_p50_ms"`
	FaultP99Ms float64 `json:"fault_p99_ms"`
	// FaultPublishes and Degraded count the fault window's publishes and
	// how many of them lost a shard.
	FaultPublishes int     `json:"fault_publishes"`
	Degraded       int     `json:"degraded"`
	DegradedRate   float64 `json:"degraded_rate"`
	BreakerOpens   int64   `json:"breaker_opens"`
	FastFails      int64   `json:"fast_fails"`
	// RecoverMs is heal → first non-degraded publish (includes the
	// breaker cooldown and half-open probe).
	RecoverMs float64 `json:"recover_ms"`
}

// ChaosReport measures the cluster's fault behavior through the
// deterministic faultnet proxy: a two-shard cluster with one shard
// behind the proxy, driven through partition, flap, and slow-link
// scenarios. The shapes are the reproduction target: an open breaker
// must hold faulted publish latency near the healthy baseline (the
// partition scenario's fault p99 vs healthy p99), a flapping link must
// not open the breaker at all, and a slow link must degrade latency but
// nothing else.
type ChaosReport struct {
	Scale             string          `json:"scale"`
	DTD               string          `json:"dtd"`
	Exprs             int             `json:"exprs"`
	Docs              int             `json:"docs"`
	PublishTimeoutMs  float64         `json:"publish_timeout_ms"`
	BreakerThreshold  int             `json:"breaker_threshold"`
	BreakerCooldownMs float64         `json:"breaker_cooldown_ms"`
	Scenarios         []ChaosScenario `json:"scenarios"`
}

const (
	chaosPublishTimeout  = 250 * time.Millisecond
	chaosBreakerThresh   = 3
	chaosBreakerCooldown = 200 * time.Millisecond
	chaosHealthyCount    = 200
	chaosFaultCount      = 150
)

// RunChaos measures every scenario and returns the report.
func RunChaos(s Scale, progress io.Writer) (*ChaosReport, error) {
	d := dtd.NITF()
	cfg := DefaultWorkloadConfig(s.exprs(2000))
	cfg.Docs = s.Docs
	cfg.Filters = 1
	w, err := NewWorkload(d, cfg)
	if err != nil {
		return nil, err
	}
	rep := &ChaosReport{
		Scale:             s.Name,
		DTD:               d.Name,
		Exprs:             len(w.XPEs),
		Docs:              len(w.Docs),
		PublishTimeoutMs:  float64(chaosPublishTimeout) / 1e6,
		BreakerThreshold:  chaosBreakerThresh,
		BreakerCooldownMs: float64(chaosBreakerCooldown) / 1e6,
	}
	for _, name := range []string{"partition", "flap", "slow"} {
		sc, err := runChaosScenario(w, name)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos %s: %w", name, err)
		}
		rep.Scenarios = append(rep.Scenarios, sc)
		progressf(progress,
			"  %-9s healthy p99 %.2fms  fault p99 %.2fms  degraded %d/%d  opens %d  recover %.0fms\n",
			name, sc.HealthyP99Ms, sc.FaultP99Ms, sc.Degraded, sc.FaultPublishes, sc.BreakerOpens, sc.RecoverMs)
	}
	return rep, nil
}

func runChaosScenario(w *Workload, name string) (ChaosScenario, error) {
	sc := ChaosScenario{Name: name}

	procs := make([]*shardProc, 2)
	for i := range procs {
		p, err := startShard()
		if err != nil {
			return sc, err
		}
		defer p.stop()
		procs[i] = p
	}
	px, err := faultnet.New(strings.TrimPrefix(procs[1].addr, "http://"))
	if err != nil {
		return sc, err
	}
	defer px.Close()

	coord, err := cluster.New(cluster.Config{
		Shards: []cluster.ShardSpec{
			{Name: "shard-0", Addr: procs[0].addr},
			{Name: "shard-1", Addr: px.URL()},
		},
		PublishTimeout:   chaosPublishTimeout,
		Retries:          -1,
		BreakerThreshold: chaosBreakerThresh,
		BreakerCooldown:  chaosBreakerCooldown,
	})
	if err != nil {
		return sc, err
	}
	defer coord.Close()

	ctx := context.Background()
	for _, xpe := range w.XPEs {
		if _, err := coord.Subscribe(ctx, xpe); err != nil {
			return sc, fmt.Errorf("subscribe: %w", err)
		}
	}

	publish := func(n int) (lats []time.Duration, degraded int, err error) {
		for i := 0; i < n; i++ {
			doc := w.Docs[i%len(w.Docs)]
			t0 := time.Now()
			res, err := coord.Publish(ctx, doc)
			if err != nil {
				return nil, 0, err
			}
			lats = append(lats, time.Since(t0))
			if res.Degraded {
				degraded++
			}
		}
		return lats, degraded, nil
	}
	breakerOf := func(shard string) cluster.ShardStats {
		for _, sh := range coord.Stats().PerShard {
			if sh.Name == shard {
				return sh
			}
		}
		return cluster.ShardStats{}
	}

	// Warm pass (connections, per-shard engines), then the healthy
	// baseline.
	if _, _, err := publish(len(w.Docs)); err != nil {
		return sc, err
	}
	healthy, degraded, err := publish(chaosHealthyCount)
	if err != nil {
		return sc, err
	}
	if degraded > 0 {
		return sc, fmt.Errorf("degraded publishes with the proxy transparent")
	}
	sc.HealthyP50Ms, sc.HealthyP99Ms = latQuantilesMs(healthy)

	// The fault window.
	var fault []time.Duration
	switch name {
	case "partition":
		// Partition, publish until the breaker opens (TripMs), then the
		// steady state the breaker buys: fast degraded publishes.
		px.Partition()
		t0 := time.Now()
		for breakerOf("shard-1").Breaker != "open" {
			l, d, err := publish(1)
			if err != nil {
				return sc, err
			}
			sc.FaultPublishes += len(l)
			sc.Degraded += d
			if sc.FaultPublishes > 5*chaosBreakerThresh {
				return sc, fmt.Errorf("breaker never opened under partition")
			}
		}
		sc.TripMs = float64(time.Since(t0)) / 1e6
		l, d, err := publish(chaosFaultCount)
		if err != nil {
			return sc, err
		}
		fault = l
		sc.FaultPublishes += len(l)
		sc.Degraded += d
	case "flap":
		// Fail, recover before the threshold, fail again: the breaker must
		// ride it out closed. Each segment's publish count stays under the
		// threshold.
		for cycle := 0; cycle < 4; cycle++ {
			px.Partition()
			l, d, err := publish(chaosBreakerThresh - 1)
			if err != nil {
				return sc, err
			}
			fault = append(fault, l...)
			sc.FaultPublishes += len(l)
			sc.Degraded += d
			px.Heal()
			l, d, err = publish(chaosBreakerThresh - 1)
			if err != nil {
				return sc, err
			}
			fault = append(fault, l...)
			sc.FaultPublishes += len(l)
			sc.Degraded += d
		}
	case "slow":
		// A slow link, not a dead one: added connection latency inside the
		// publish timeout. Publishes stay whole, only slower; the breaker
		// must not open on slowness alone.
		px.SetRules(faultnet.Rules{Latency: 30 * time.Millisecond})
		px.CutConns() // force new, latency-bearing connections
		l, d, err := publish(chaosFaultCount / 3)
		if err != nil {
			return sc, err
		}
		fault = l
		sc.FaultPublishes = len(l)
		sc.Degraded = d
	default:
		return sc, fmt.Errorf("unknown scenario %q", name)
	}
	sc.FaultP50Ms, sc.FaultP99Ms = latQuantilesMs(fault)
	if sc.FaultPublishes > 0 {
		sc.DegradedRate = float64(sc.Degraded) / float64(sc.FaultPublishes)
	}
	st := breakerOf("shard-1")
	sc.BreakerOpens = st.BreakerOpens
	sc.FastFails = st.FastFails

	// Heal and measure the time back to a whole publish.
	px.Heal()
	t0 := time.Now()
	for {
		res, err := coord.Publish(ctx, w.Docs[0])
		if err != nil {
			return sc, err
		}
		if !res.Degraded {
			break
		}
		if time.Since(t0) > 30*time.Second {
			return sc, fmt.Errorf("cluster never recovered after heal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sc.RecoverMs = float64(time.Since(t0)) / 1e6
	return sc, nil
}

// shardProc is one in-process shard behind a real loopback listener.
type shardProc struct {
	hs   *http.Server
	addr string
}

func startShard() (*shardProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: server.New(server.Config{})}
	go func() { _ = hs.Serve(l) }()
	return &shardProc{hs: hs, addr: "http://" + l.Addr().String()}, nil
}

func (p *shardProc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = p.hs.Shutdown(ctx)
}

func latQuantilesMs(lats []time.Duration) (p50, p99 float64) {
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return float64(percentileDur(sorted, 0.50)) / 1e6, float64(percentileDur(sorted, 0.99)) / 1e6
}

// percentileDur returns the p-quantile of sorted durations (nearest-rank).
func percentileDur(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
