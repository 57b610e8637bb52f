// Command xfserve runs the content-based dissemination service: an HTTP
// API over the filtering engine (see internal/server for the endpoints).
//
//	xfserve -addr :8080 -state /var/lib/xfserve
//	curl -X POST localhost:8080/subscriptions -d '{"expression":"/feed/alert"}'
//	curl -X POST localhost:8080/publish --data-binary @doc.xml
//	curl 'localhost:8080/deliveries/0?max=5'
//	curl -X POST localhost:8080/admin/snapshot
//	curl localhost:8080/metrics            # Prometheus text exposition
//	curl -X POST 'localhost:8080/publish?trace=1' --data-binary @doc.xml
//
// With -state, subscriptions are durable: every add/remove is appended to
// a checksummed write-ahead log before it is acknowledged, and restarting
// with the same directory recovers them under their original ids — even
// after a crash that tore the log mid-record. On SIGINT/SIGTERM the server
// shuts down gracefully: in-flight requests drain, a final snapshot
// compacts the log, and the store is closed.
//
// Cluster mode shards the subscription set across several xfserve
// instances (internal/cluster). One process per shard runs as usual; one
// coordinator process routes for all of them:
//
//	xfserve -addr :8081 -state /var/lib/shard0          # shard 0
//	xfserve -addr :8082 -state /var/lib/shard1          # shard 1
//	xfserve -cluster http://127.0.0.1:8081,http://127.0.0.1:8082 -addr :8080
//
// The coordinator serves the same API as a single server: subscribes are
// placed on their owning shard by consistent hashing, publishes
// scatter/gather across all shards, and /stats and /metrics carry
// per-shard counters. -standbys names a hot standby per shard (empty
// entries allowed) to promote when a shard stays down. A standby is an
// xfserve running with -follow pointing at its primary, which ships the
// primary's WAL into the local subscription set.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"predfilter"
	"predfilter/internal/cluster"
	"predfilter/internal/server"
	"predfilter/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		queue     = flag.Int("queue", 128, "per-subscription delivery queue limit")
		maxDoc    = flag.Int64("max-doc", 1<<20, "maximum published document size in bytes")
		postponed = flag.Bool("postponed", false, "use selection-postponed attribute evaluation")
		subsFile  = flag.String("subs", "", "file with one subscription expression per line to preload")
		workers   = flag.Int("workers", 0, "worker count for batch publishes (0 = GOMAXPROCS)")
		debug     = flag.Bool("debug", false, "expose /debug/pprof/ and /debug/vars")
		state     = flag.String("state", "", "state directory for durable subscriptions (empty = in-memory)")
		noSync    = flag.Bool("nosync", false, "skip fsync on the state directory (faster, loses power-failure durability)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		cacheMB   = flag.Int64("cache-mb", 0, "path-signature cache bound in MiB (0 = default 16); negative selects the paper's scalar reference loop, which has no cache")
		slowMS    = flag.Int64("slow-ms", 0, "log documents whose parse+match exceeds this many milliseconds (0 = disabled)")

		// Observability.
		slowPublish = flag.Duration("slow-publish", 0, "cluster: retain publishes slower than this in the coordinator's flight recorder (0 = disabled)")
		traceAll    = flag.Bool("trace-all", false, "cluster: trace every publish, not only those carrying X-Predfilter-Trace or ?trace=1")

		// Resource governance (0 disables each bound).
		maxDepth      = flag.Int("max-depth", 0, "maximum XML nesting depth per document (0 = unlimited)")
		maxPaths      = flag.Int("max-paths", 0, "maximum root-to-leaf paths per document (0 = unlimited)")
		maxTuples     = flag.Int("max-tuples", 0, "maximum total path tuples per document (0 = unlimited)")
		maxSteps      = flag.Int64("max-steps", 0, "occurrence-determination step budget per document (0 = unlimited)")
		matchDeadline = flag.Duration("match-deadline", 0, "wall-clock match deadline per document (0 = none)")

		// Admission control and per-request deadlines.
		maxInflight = flag.Int("max-inflight", 0, "max concurrently matching publish requests (0 = unlimited)")
		maxQueued   = flag.Int("inflight-queue", 0, "bounded wait queue beyond -max-inflight (0 = 4x max-inflight)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-publish-request deadline (0 = none)")
		maxReqBytes = flag.Int64("max-request-bytes", 0, "JSON request body bound for /subscriptions and /publish/batch (0 = default 64 MiB)")

		// Cluster mode.
		clusterShards  = flag.String("cluster", "", "run as cluster coordinator over this comma-separated shard URL list (instead of serving an engine)")
		standbys       = flag.String("standbys", "", "comma-separated standby URLs parallel to -cluster (empty entries for shards without one)")
		publishTimeout = flag.Duration("publish-timeout", 5*time.Second, "cluster: per-shard deadline for each publish attempt")
		retries        = flag.Int("retries", 2, "cluster: transient per-shard failure retries before skipping the shard (-1 disables retries for at-most-once delivery)")
		healthInterval = flag.Duration("health-interval", 2*time.Second, "cluster: shard health-check period for automatic standby promotion (0 = disabled)")
		clusterRecover = flag.Bool("cluster-recover", false, "cluster: verify coordinator state against the shards' live subscriptions at startup (repairing drift; without -coord-state this rebuilds from the shards and they must all be reachable)")
		coordState     = flag.String("coord-state", "", "cluster: coordinator state directory for durable routing — sid counter, routing table, orphan set survive kill -9 (empty = in-memory)")
		breakerThresh  = flag.Int("breaker-threshold", 0, "cluster: consecutive transient shard failures that open the shard's circuit breaker (0 = default 5, negative = disabled)")
		breakerCool    = flag.Duration("breaker-cooldown", 0, "cluster: how long an open breaker refuses calls before a half-open probe (0 = default 2s)")
		retryBackMax   = flag.Duration("retry-backoff-max", 0, "cluster: cap on the exponential retry backoff between attempts (0 = default 1s)")
		follow         = flag.String("follow", "", "run as a hot standby shipping this primary's WAL into the local subscription set")
		followEvery    = flag.Duration("follow-interval", 250*time.Millisecond, "WAL-shipping poll period for -follow")
	)
	flag.Parse()

	stop, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// After the first signal a second one kills the process, drain or not.
	context.AfterFunc(stop, cancel)

	if *clusterShards != "" {
		runCoordinator(stop, coordinatorOptions{
			addr:           *addr,
			shards:         splitList(*clusterShards),
			standbys:       splitList(*standbys),
			publishTimeout: *publishTimeout,
			retries:        *retries,
			healthInterval: *healthInterval,
			recover:        *clusterRecover,
			stateDir:       *coordState,
			noSync:         *noSync,
			breakerThresh:  *breakerThresh,
			breakerCool:    *breakerCool,
			retryBackMax:   *retryBackMax,
			maxDoc:         *maxDoc,
			slowPublish:    *slowPublish,
			traceAll:       *traceAll,
			drain:          *drain,
		})
		return
	}

	cfg := server.Config{
		QueueLimit:       *queue,
		MaxDocumentBytes: *maxDoc,
		Workers:          *workers,
		Debug:            *debug,
		StateDir:         *state,
		NoSync:           *noSync,
		MaxRequestBytes:  *maxReqBytes,
		MaxInflight:      *maxInflight,
		MaxQueued:        *maxQueued,
		RequestTimeout:   *reqTimeout,
	}
	cfg.Engine.Limits = predfilter.Limits{
		MaxDepth:      *maxDepth,
		MaxPaths:      *maxPaths,
		MaxTuples:     *maxTuples,
		MaxDocBytes:   *maxDoc,
		MaxSteps:      *maxSteps,
		MatchDeadline: *matchDeadline,
	}
	if *postponed {
		cfg.Engine.AttributeMode = predfilter.PostponedAttributes
	}
	if *slowMS > 0 {
		cfg.Engine.SlowDocThreshold = time.Duration(*slowMS) * time.Millisecond
	}
	switch {
	case *cacheMB < 0:
		cfg.Engine.PathCacheBytes = -1
	case *cacheMB > 0:
		cfg.Engine.PathCacheBytes = *cacheMB << 20
	}
	srv, err := server.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *state != "" {
		log.Printf("xfserve: durable state in %s", *state)
	}
	if *subsFile != "" {
		xpes, err := readLines(*subsFile)
		if err != nil {
			log.Fatal(err)
		}
		ids, err := srv.Preload(xpes)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("xfserve: preloaded %d subscriptions from %s", len(ids), *subsFile)
	}
	if *follow != "" {
		fol, err := cluster.NewFollower(cluster.FollowerConfig{
			Primary:  *follow,
			Target:   srv,
			Interval: *followEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		fol.Start()
		defer fol.Stop()
		log.Printf("xfserve: hot standby shipping WAL from %s", *follow)
	}

	dumpFlightOnQuit(srv.FlightRecorder())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		log.Fatal(err)
	}
	log.Printf("xfserve listening on %s", *addr)
	if err := serve(stop, ln, srv, *drain, srv.Close); err != nil {
		log.Fatal(err)
	}
	log.Printf("xfserve: bye")
}

// Listener timeouts (slowloris defense).
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// serve serves h on ln until stop is done, then shuts down in order: a
// handler that can refuse new publishes (BeginDrain) starts doing so, the
// requests in flight get up to drain to finish, and only then does
// closeState close the durable state, so no request in flight finds its
// store closed. A listener failure before stop closes the state too.
func serve(stop context.Context, ln net.Listener, h http.Handler, drain time.Duration, closeState func() error) error {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return errors.Join(err, closeState())
	case <-stop.Done():
	}

	log.Printf("xfserve: shutting down (draining for up to %v)", drain)
	if d, ok := h.(interface{ BeginDrain() }); ok {
		d.BeginDrain()
	}
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("xfserve: drain: %v", err)
	}
	if err := closeState(); err != nil {
		return fmt.Errorf("xfserve: close state: %w", err)
	}
	return nil
}

type coordinatorOptions struct {
	addr           string
	shards         []string
	standbys       []string
	publishTimeout time.Duration
	retries        int
	healthInterval time.Duration
	recover        bool
	stateDir       string
	noSync         bool
	breakerThresh  int
	breakerCool    time.Duration
	retryBackMax   time.Duration
	maxDoc         int64
	slowPublish    time.Duration
	traceAll       bool
	drain          time.Duration
}

// dumpFlightOnQuit installs a SIGQUIT handler that dumps the flight
// recorder — the last K anomalous publishes with their span trees — to
// the log, so a wedged or misbehaving process can be asked for its
// recent history with kill -QUIT without restarting it.
func dumpFlightOnQuit(f *trace.FlightRecorder) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			recs := f.Snapshot()
			out, err := json.MarshalIndent(map[string]any{
				"recorded": f.Recorded(),
				"capacity": f.Cap(),
				"records":  recs,
			}, "", "  ")
			if err != nil {
				log.Printf("xfserve: flight dump: %v", err)
				continue
			}
			log.Printf("xfserve: flight recorder dump (%d records):\n%s", len(recs), out)
		}
	}()
}

// runCoordinator serves the cluster coordinator: the single-server API
// routed over the configured shards, until stop.
func runCoordinator(stop context.Context, o coordinatorOptions) {
	if len(o.standbys) > len(o.shards) {
		log.Fatalf("xfserve: %d standbys for %d shards", len(o.standbys), len(o.shards))
	}
	specs := make([]cluster.ShardSpec, len(o.shards))
	for i, addr := range o.shards {
		specs[i] = cluster.ShardSpec{Name: addr, Addr: addr}
		if i < len(o.standbys) && o.standbys[i] != "" {
			specs[i].Standby = o.standbys[i]
		}
	}
	coord, err := cluster.New(cluster.Config{
		Shards:               specs,
		PublishTimeout:       o.publishTimeout,
		Retries:              o.retries,
		HealthInterval:       o.healthInterval,
		Recover:              o.recover,
		StateDir:             o.stateDir,
		NoSync:               o.noSync,
		BreakerThreshold:     o.breakerThresh,
		BreakerCooldown:      o.breakerCool,
		RetryBackoffMax:      o.retryBackMax,
		MaxDocumentBytes:     o.maxDoc,
		SlowPublishThreshold: o.slowPublish,
		TraceAll:             o.traceAll,
	})
	if err != nil {
		log.Fatal(err)
	}
	dumpFlightOnQuit(coord.FlightRecorder())
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		coord.Close()
		log.Fatal(err)
	}
	log.Printf("xfserve: cluster coordinator for %d shards listening on %s", len(specs), o.addr)
	if err := serve(stop, ln, coord, o.drain, func() error { coord.Close(); return nil }); err != nil {
		log.Fatal(err)
	}
	log.Printf("xfserve: bye")
}

// splitList splits a comma-separated flag, trimming whitespace and
// keeping empty entries (a shard without a standby).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// readLines reads one expression per line, skipping blanks and '#'
// comments.
func readLines(name string) ([]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, sc.Err()
}
