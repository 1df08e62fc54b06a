// Package service is the long-running false-sharing analysis service: the
// whole compile-time pipeline (mini-C source or built-in kernel → FS cost
// model → schedule recommendation) exposed as a stdlib-only HTTP JSON API,
// built to be hit repeatedly from tooling rather than paying process
// startup per analysis.
//
// The resident pieces, each in its own file:
//
//   - a content-addressed result cache (cache.go): a bounded LRU keyed by
//     a canonical SHA-256 of source + options, serving byte-identical
//     responses for repeated requests;
//   - in-flight deduplication (flight.go): N concurrent identical
//     requests perform exactly one model evaluation;
//   - admission control (internal/admission, used directly): a fixed
//     pool of evaluation slots plus a bounded wait queue; beyond both,
//     requests get 429 + Retry-After instead of queueing without bound;
//   - hand-rolled Prometheus metrics (metrics.go) and structured request
//     logs via log/slog;
//   - HTTP handlers (handlers.go) for /v1/analyze, /v1/analyze/batch
//     (fan-out on the internal/sweep pool, results in input order),
//     /v1/kernels, /healthz and /metrics;
//   - the static linter endpoint (lint.go): POST /v1/lint runs the
//     closed-form internal/analysis engine (no simulation) and returns
//     diagnostics as JSON or a SARIF 2.1.0 document, through the same
//     cache, dedup and admission control as /v1/analyze;
//   - the auto-tuner endpoint (tune.go): POST /v1/tune runs the
//     internal/tuner plan search (fast closed-form scoring, beam
//     pruning, simulator verification) and returns the chosen plan with
//     transformed source, degrading to a closed-form single-fix
//     suggestion when the search cannot run;
//   - the fault boundary (degrade.go): every evaluation runs under a
//     guard recover wrapper and a resource budget, behind a per-endpoint
//     circuit breaker; internal failures degrade to the closed-form
//     engine with "degraded": true instead of a 500 or a hang, and
//     /readyz exposes breaker and pool-saturation state. See
//     docs/ROBUSTNESS.md for the full contract.
//
// Graceful shutdown is the caller's http.Server.Shutdown; BeginShutdown
// additionally flips /healthz and /readyz to 503 so load balancers drain
// first.
package service

import (
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/guard"
)

// Config parameterizes the server. The zero value is production-usable;
// fields are documented with their defaults.
type Config struct {
	// CacheEntries bounds the result cache (0 = default 512; negative
	// disables caching).
	CacheEntries int
	// CacheDir, when set, persists the result cache across restarts: a
	// snapshot is loaded at startup (salvaging what it can from corrupt
	// or truncated files), rewritten every SnapshotInterval, and written
	// once more on Close. Empty disables persistence.
	CacheDir string
	// SnapshotInterval is how often the background snapshot runs when
	// CacheDir is set (0 = default 30s).
	SnapshotInterval time.Duration
	// QuotaRPS enables per-client token-bucket quotas at this many
	// requests per second per client, keyed by X-API-Key or remote host
	// (0 = disabled).
	QuotaRPS float64
	// QuotaBurst is the per-client burst size (0 = max(1, 2*QuotaRPS)).
	QuotaBurst float64
	// MaxConcurrent bounds concurrently running model evaluations
	// (0 = GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an evaluation slot
	// (0 = default 64); beyond it requests are rejected with 429.
	MaxQueue int
	// RequestTimeout is the per-request deadline, propagated via context
	// into queue waits and candidate sweeps (0 = default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 = default 1 MiB).
	MaxBodyBytes int64
	// MaxBatch bounds the number of analysis points in one batch request
	// (0 = default 256).
	MaxBatch int
	// MaxEvalSteps bounds the simulated memory accesses one model
	// evaluation may perform before it is stopped and the request is
	// answered by the closed-form engine (0 = default 1<<28; negative =
	// unlimited).
	MaxEvalSteps int64
	// MaxEvalStateBytes bounds one evaluation's modeled cache-stack and
	// directory state (0 = default 256 MiB; negative = unlimited).
	MaxEvalStateBytes int64
	// BreakerThreshold is the consecutive internal-failure count that
	// opens an endpoint's circuit breaker (0 = default 5; negative
	// disables circuit breaking).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// admitting half-open probes (0 = default 5s).
	BreakerCooldown time.Duration
	// BreakerProbeFraction is the fraction of requests admitted while
	// half-open (0 = default 0.25).
	BreakerProbeFraction float64
	// Extrapolate enables the steady-state chunk-run closure on eligible
	// uniform loops (exact totals, surfaced as "extrapolated" in the
	// response).
	Extrapolate bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (the -pprof
	// flag) for profiling the evaluation hot path.
	EnablePprof bool
	// Cluster, when non-nil with an Advertise address, joins this node to
	// an fscluster mesh: rendezvous-hashed key ownership, owner
	// forwarding with hedged replica reads, and peer cache fill. See
	// cluster.go and docs/CLUSTER.md.
	Cluster *ClusterConfig
	// Seed seeds the deterministic randomness: breaker half-open probe
	// draws and the jittered Retry-After values (0 = 1).
	Seed int64
	// Logger receives structured request logs (nil = slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	switch {
	case c.MaxEvalSteps == 0:
		c.MaxEvalSteps = 1 << 28
	case c.MaxEvalSteps < 0:
		c.MaxEvalSteps = 0 // unlimited
	}
	switch {
	case c.MaxEvalStateBytes == 0:
		c.MaxEvalStateBytes = 256 << 20
	case c.MaxEvalStateBytes < 0:
		c.MaxEvalStateBytes = 0 // unlimited
	}
	switch {
	case c.BreakerThreshold == 0:
		c.BreakerThreshold = 5
	case c.BreakerThreshold < 0:
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.BreakerProbeFraction <= 0 {
		c.BreakerProbeFraction = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the analysis service. Create with New, mount via Handler.
type Server struct {
	cfg      Config
	metrics  *Metrics
	cache    *resultCache
	flight   *flightGroup
	admit    *admission.Controller
	quotas   *admission.Quotas
	snap     *snapshotManager
	cluster  *serverCluster
	breakers map[string]*guard.Breaker
	mux      *http.ServeMux
	draining atomic.Bool
	closed   sync.Once

	// jitter randomizes Retry-After values so rejected clients spread
	// their retries instead of stampeding back in lockstep; seeded from
	// Config.Seed for reproducible tests.
	_        [12]byte // fsvet: keep jitterMu off draining's cache line
	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: NewMetrics(),
		flight:  newFlightGroup(),
		jitter:  rand.New(rand.NewSource(cfg.Seed)),
	}
	s.cache = newResultCache(cfg.CacheEntries, s.metrics.CacheEntries)
	s.admit = admission.New(admission.Config{
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueue:      cfg.MaxQueue,
		OnQueueDepth:  func(d int) { s.metrics.QueueDepth.Set(int64(d)) },
	})
	s.metrics.AdmissionLimit.Set(int64(cfg.MaxConcurrent))
	if cfg.QuotaRPS > 0 {
		s.quotas = admission.NewQuotas(admission.QuotaConfig{Rate: cfg.QuotaRPS, Burst: cfg.QuotaBurst})
	}
	if cfg.CacheDir != "" {
		s.snap = newSnapshotManager(s)
	}
	if cfg.BreakerThreshold > 0 {
		s.breakers = make(map[string]*guard.Breaker)
		for i, ep := range []string{endpointAnalyze, endpointLint, endpointTune} {
			s.breakers[ep] = guard.NewBreaker(guard.BreakerConfig{
				FailureThreshold: cfg.BreakerThreshold,
				Cooldown:         cfg.BreakerCooldown,
				ProbeFraction:    cfg.BreakerProbeFraction,
				Seed:             cfg.Seed + int64(i),
			})
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/analyze/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/lint", s.handleLint)
	s.mux.HandleFunc("POST /v1/tune", s.handleTune)
	s.mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Cluster != nil && cfg.Cluster.Advertise != "" {
		s.cluster = newServerCluster(s, *cfg.Cluster)
		s.mux.HandleFunc("GET /v1/peer/cache", s.handlePeerCacheGet)
		s.mux.HandleFunc("POST /v1/peer/cache", s.handlePeerCachePut)
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Metrics exposes the server's metric set (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Logger returns the server's (defaulted) logger.
func (s *Server) Logger() *slog.Logger { return s.cfg.Logger }

// BeginShutdown flips /healthz to 503 so load balancers stop routing new
// work while the caller's http.Server.Shutdown drains in-flight requests.
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// Close stops the background snapshot goroutine and writes one final
// snapshot of the result cache, so a graceful drain restarts warm.
// Callers invoke it after http.Server.Shutdown returns (no more
// evaluations can mutate the cache). Safe to call multiple times; a nil
// error when persistence is disabled.
func (s *Server) Close() error {
	var err error
	s.closed.Do(func() {
		if s.cluster != nil {
			s.cluster.close()
		}
		if s.snap != nil {
			err = s.snap.close()
		}
	})
	return err
}

// Handler returns the server's root handler: the API mux wrapped in
// panic recovery, request logging and latency accounting.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if v := recover(); v != nil {
				// A handler panic must not take down the resident server;
				// the fuzzed parser should make this unreachable for
				// analysis requests, but the recovery is cheap insurance.
				s.cfg.Logger.Error("panic in handler", "method", r.Method, "path", r.URL.Path, "panic", v)
				if !rec.wrote {
					http.Error(rec, `{"error":{"code":500,"message":"internal panic"}}`, http.StatusInternalServerError)
				}
			}
			elapsed := time.Since(start)
			s.metrics.RequestLatency.Observe(elapsed.Seconds())
			s.metrics.Requests.With(r.URL.Path, statusText(rec.status)).Inc()
			s.cfg.Logger.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"dur_ms", float64(elapsed.Microseconds())/1000,
				"cache", rec.Header().Get("X-Cache"),
			)
		}()
		s.mux.ServeHTTP(rec, r)
	})
}

// statusRecorder captures the response status for logs and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

func statusText(code int) string {
	// Avoid strconv in the hot path for the handful of codes we emit.
	switch code {
	case 200:
		return "200"
	case 400:
		return "400"
	case 404:
		return "404"
	case 405:
		return "405"
	case 413:
		return "413"
	case 429:
		return "429"
	case 500:
		return "500"
	case 503:
		return "503"
	case 504:
		return "504"
	}
	return strconv.Itoa(code)
}
