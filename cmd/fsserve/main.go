// Command fsserve runs the false-sharing analysis engine as a resident
// HTTP JSON service: parsing, the FS cost model, Equation 1 pricing and
// the chunk recommendation behind a content-addressed result cache,
// in-flight deduplication, a bounded evaluation pool with backpressure,
// Prometheus-format metrics, and graceful shutdown. Evaluations run
// under resource budgets and panic isolation behind a per-endpoint
// circuit breaker; when the simulator is unavailable the service
// degrades to the closed-form analysis instead of failing (see
// docs/ROBUSTNESS.md).
//
// Usage:
//
//	fsserve -addr :8080
//	fsserve -addr 127.0.0.1:0 -cache 1024 -concurrency 8 -timeout 10s
//
// See docs/SERVICE.md for the API contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: flag errors exit 2, startup errors exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		cacheN     = fs.Int("cache", 512, "result cache entries (negative disables caching)")
		cacheDir   = fs.String("cache-dir", "", "directory persisting the result cache across restarts (empty disables)")
		snapEvery  = fs.Duration("snapshot-interval", 0, "background cache-snapshot period when -cache-dir is set (0 = default 30s)")
		quotaRPS   = fs.Float64("quota-rps", 0, "per-client request quota in requests/second (0 disables)")
		quotaBurst = fs.Float64("quota-burst", 0, "per-client quota burst size (0 = 2x -quota-rps)")
		conc       = fs.Int("concurrency", 0, "max concurrent model evaluations (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 64, "max requests waiting for an evaluation slot before 429")
		timeout    = fs.Duration("timeout", 30*time.Second, "per-request deadline")
		maxBody    = fs.Int64("max-body", 1<<20, "request body size limit in bytes")
		maxBatch   = fs.Int("max-batch", 256, "max analysis points per batch request")
		logFormat  = fs.String("log", "text", "request log format: text or json")
		grace      = fs.Duration("grace", 30*time.Second, "shutdown grace period for draining in-flight requests")

		maxSteps  = fs.Int64("max-steps", 0, "per-evaluation simulated-access budget (0 = default, negative = unlimited)")
		maxState  = fs.Int64("max-state-bytes", 0, "per-evaluation simulator state budget in bytes (0 = default, negative = unlimited)")
		brkThresh = fs.Int("breaker-threshold", 0, "consecutive evaluator failures before the circuit opens (0 = default, negative disables)")
		brkCool   = fs.Duration("breaker-cooldown", 0, "how long an open circuit waits before probing (0 = default)")
		seed      = fs.Int64("seed", 0, "seed for Retry-After jitter and breaker probes (0 = default)")

		extrapolate = fs.Bool("extrapolate", false, "close steady-state chunk runs in O(1) on eligible uniform loops (exact totals)")
		pprofFlag   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		peers       = fs.String("peers", "", "comma-separated cluster member addresses host:port,... (empty = single node)")
		advertise   = fs.String("advertise", "", "this node's address as peers reach it (required with -peers)")
		replication = fs.Int("replication", 0, "ranked owners per cache key (0 = default 2)")
		probeEvery  = fs.Duration("probe-interval", 0, "mean peer health-probe period (0 = default 1s)")
		hedgeDelay  = fs.Duration("peer-hedge-delay", 0, "pin the forward hedge delay to a replica (0 = adaptive p95)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "fsserve: unexpected arguments %v\n", fs.Args())
		return 2
	}
	var clusterCfg *service.ClusterConfig
	if *peers != "" {
		if *advertise == "" {
			fmt.Fprintln(stderr, "fsserve: -peers requires -advertise (this node's address as peers reach it)")
			return 2
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		clusterCfg = &service.ClusterConfig{
			Advertise:     *advertise,
			Peers:         peerList,
			Replication:   *replication,
			ProbeInterval: *probeEvery,
			HedgeDelay:    *hedgeDelay,
		}
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(stderr, nil)
	default:
		fmt.Fprintf(stderr, "fsserve: unknown -log format %q (want text or json)\n", *logFormat)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "fsserve:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, ln, service.Config{
		CacheEntries:     *cacheN,
		CacheDir:         *cacheDir,
		SnapshotInterval: *snapEvery,
		QuotaRPS:         *quotaRPS,
		QuotaBurst:       *quotaBurst,
		MaxConcurrent:    *conc,
		MaxQueue:         *queue,
		RequestTimeout:   *timeout,
		MaxBodyBytes:     *maxBody,
		MaxBatch:         *maxBatch,
		Cluster:          clusterCfg,
		Logger:           slog.New(handler),

		MaxEvalSteps:      *maxSteps,
		MaxEvalStateBytes: *maxState,
		BreakerThreshold:  *brkThresh,
		BreakerCooldown:   *brkCool,
		Seed:              *seed,
		Extrapolate:       *extrapolate,
		EnablePprof:       *pprofFlag,
	}, *grace); err != nil {
		fmt.Fprintln(stderr, "fsserve:", err)
		return 1
	}
	return 0
}

// serve runs the service on ln until ctx is cancelled, then drains
// in-flight requests for up to grace before giving up. The listener is
// always closed on return.
func serve(ctx context.Context, ln net.Listener, cfg service.Config, grace time.Duration) error {
	svc := service.New(cfg)
	logger := svc.Logger()
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("fsserve listening", "addr", ln.Addr().String())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop routing (healthz goes 503), then drain.
	svc.BeginShutdown()
	logger.Info("fsserve draining", "grace", grace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// The drain is done: no more evaluations can mutate the cache, so
	// the final snapshot is complete and the next start replays it warm.
	if err := svc.Close(); err != nil {
		logger.Error("final cache snapshot failed", "err", err)
	}
	logger.Info("fsserve stopped")
	return nil
}
