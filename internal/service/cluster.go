package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/retry"
)

// headerForwarded is the hop guard: a forwarded request carries it, and
// the receiving node always serves it locally — even if its own health
// view ranks a different owner — so differing views cost one extra hop,
// never a forwarding loop.
const headerForwarded = "X-FS-Forwarded"

// ClusterConfig wires a Server into an fscluster mesh. Advertise and
// Peers are required (a nil or Advertise-less config leaves the server
// single-node); every other field documents its default.
type ClusterConfig struct {
	// Advertise is this node's address as peers reach it (host:port,
	// the -advertise flag).
	Advertise string
	// Peers lists every cluster member (host:port; Advertise may be
	// included and is filtered out).
	Peers []string
	// Replication is how many ranked owners each content-addressed key
	// has (0 = default 2, clamped to the member count).
	Replication int
	// ProbeInterval / ProbeTimeout / SuspectAfter / DownAfter tune the
	// health prober; zero values take cluster.Config's defaults
	// (1s, 1s, 2, 4).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	SuspectAfter  int
	DownAfter     int
	// HedgeDelay pins the forward hedge delay (0 = adaptive p95 with a
	// 1s ceiling). Tests pin it high to forbid hedging, or low to force
	// it.
	HedgeDelay time.Duration
	// ForwardTimeout bounds one forwarded exchange when the request
	// context carries no tighter deadline (0 = default 10s).
	ForwardTimeout time.Duration
	// FillTimeout bounds one peer cache-fill GET (0 = default 250ms).
	FillTimeout time.Duration
	// PushQueue bounds the async replica-push queue (0 = default 256;
	// negative disables pushes entirely — replicas then warm only via
	// fill lookups).
	PushQueue int
	// PushWorkers is how many goroutines drain the push queue
	// (0 = default 2).
	PushWorkers int
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 10 * time.Second
	}
	if c.FillTimeout <= 0 {
		c.FillTimeout = 250 * time.Millisecond
	}
	if c.PushQueue == 0 {
		c.PushQueue = 256
	}
	if c.PushWorkers <= 0 {
		c.PushWorkers = 2
	}
	return c
}

// clusterRoute is the forwarding context one cacheable request carries
// into guarded: where an owner would serve it and the canonical payload
// to proxy. A nil route (cluster disabled, or an endpoint that cannot
// forward) always evaluates locally.
type clusterRoute struct {
	// path is the endpoint to proxy to ("/v1/analyze", "/v1/lint",
	// "/v1/tune").
	path string
	// payload is the re-marshaled request body. Request structs marshal
	// losslessly, so the owner resolves the identical cache key —
	// assuming homogeneous -extrapolate config across the fleet
	// (see docs/CLUSTER.md).
	payload []byte
	// forwarded marks a request that already took its one hop.
	forwarded bool
}

// clusterRouteFor builds the forwarding context for one request, or nil
// when the server is single-node (or req does not marshal, which cannot
// happen for the wire request types).
func (s *Server) clusterRouteFor(r *http.Request, path string, req any) *clusterRoute {
	if s.cluster == nil {
		return nil
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil
	}
	return &clusterRoute{path: path, payload: payload, forwarded: r.Header.Get(headerForwarded) != ""}
}

// pushItem is one queued replica cache push.
type pushItem struct {
	peer string
	key  string
	body []byte
}

// serverCluster is the Server's cluster face: membership + ownership
// (internal/cluster), owner forwarding with hedged replica reads, and
// the peer cache fill/push plumbing.
type serverCluster struct {
	s      *Server
	cfg    ClusterConfig
	cl     *cluster.Cluster
	client *http.Client
	hedger *retry.Hedger

	pushes chan pushItem
	stop   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once
}

// newServerCluster wires a cluster into s and starts health probing and
// the push workers.
func newServerCluster(s *Server, cfg ClusterConfig) *serverCluster {
	cfg = cfg.withDefaults()
	sc := &serverCluster{
		s:      s,
		cfg:    cfg,
		stop:   make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	hcfg := retry.HedgeConfig{}
	if cfg.HedgeDelay > 0 {
		// A pinned delay: MinDelay == MaxDelay leaves the adaptive p95 no
		// room to move.
		hcfg.MinDelay = cfg.HedgeDelay
		hcfg.MaxDelay = cfg.HedgeDelay
	}
	sc.hedger = retry.NewHedger(hcfg)
	sc.cl = cluster.New(cluster.Config{
		Self:          cfg.Advertise,
		Peers:         cfg.Peers,
		Replication:   cfg.Replication,
		ProbeInterval: cfg.ProbeInterval,
		ProbeTimeout:  cfg.ProbeTimeout,
		SuspectAfter:  cfg.SuspectAfter,
		DownAfter:     cfg.DownAfter,
		Logger:        s.cfg.Logger,
		Seed:          s.cfg.Seed,
		OnProbe: func(peer string, ok bool) {
			outcome := "fail"
			if ok {
				outcome = "ok"
			}
			s.metrics.ClusterProbes.With(peer, outcome).Inc()
		},
		OnState: func(peer string, st cluster.State) {
			var v int64
			if st == cluster.StateHealthy {
				v = 1
			}
			s.metrics.ClusterPeerHealthy.With(peer).Set(v)
		},
	})
	if cfg.PushQueue > 0 {
		sc.pushes = make(chan pushItem, cfg.PushQueue)
		for i := 0; i < cfg.PushWorkers; i++ {
			sc.wg.Add(1)
			go sc.pushLoop()
		}
	}
	sc.cl.Start()
	return sc
}

// close stops probing and the push workers and waits for them.
func (sc *serverCluster) close() {
	sc.closed.Do(func() { close(sc.stop) })
	sc.cl.Close()
	sc.wg.Wait()
	sc.client.CloseIdleConnections()
}

// routed is a routing decision that handled the request: either a body
// to serve or an error to surface. A nil *routed means "serve locally".
type routed struct {
	body   []byte
	source string
	err    error
}

// route decides how this node serves one cacheable request. The primary
// owner (rank 1 among healthy members) — and any node receiving an
// already-forwarded request — evaluates locally, which is what keeps the
// fleet at exactly one evaluation per key: every other node serves its
// local cached copy if it has one, else proxies to the owners (primary
// first, hedging to the replica when the primary is slow). A forward
// that fails on backpressure or a down owner degrades to the local
// closed-form answer — the cluster layer never converts an owner outage
// into a 5xx.
func (sc *serverCluster) route(ctx context.Context, endpoint, key string, rt *clusterRoute, degrade func(string) ([]byte, error)) *routed {
	owners := sc.cl.Owners(key)
	if len(owners) == 0 || owners[0] == sc.cl.Self() {
		return nil
	}
	if b, ok := sc.s.cache.Get(key); ok {
		sc.s.metrics.CacheHits.Inc()
		return &routed{body: b, source: "hit"}
	}
	targets := make([]string, 0, len(owners))
	for _, o := range owners {
		if o != sc.cl.Self() {
			targets = append(targets, o)
		}
	}
	body, cacheable, err := sc.forward(ctx, rt, targets)
	if err == nil {
		if cacheable {
			sc.s.cache.Add(key, body)
		}
		return &routed{body: body, source: "forward"}
	}
	if st := statusFor(err); st >= 400 && st < 500 && st != http.StatusTooManyRequests {
		// The owner judged the request itself invalid; re-evaluating
		// locally would reach the same verdict expensively.
		return &routed{err: err}
	}
	b, src, derr := sc.s.degrade(endpoint, degrade, "owner-down")
	return &routed{body: b, source: src, err: derr}
}

// forward proxies the request to the owner set, primary first with a
// hedged read to the replica: when the primary outlives the hedge delay
// (adaptive p95, budget-bounded), the replica gets a copy of the request
// and the first answer wins — one GC-pausing owner does not set the
// fleet p99. cacheable reports whether the body may enter the local
// cache (degraded bodies may not: they are a fallback, not the answer).
func (sc *serverCluster) forward(ctx context.Context, rt *clusterRoute, targets []string) (body []byte, cacheable bool, err error) {
	type reply struct {
		body   []byte
		xcache string
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sc.cfg.ForwardTimeout)
		defer cancel()
	}
	hedger := sc.hedger
	if len(targets) < 2 {
		hedger = nil // nothing to hedge to; DoHedged degrades to one call
	}
	start := time.Now()
	out, err := retry.DoHedged(ctx, hedger, func(ctx context.Context, hedged bool) (reply, error) {
		peer := targets[0]
		if hedged {
			peer = targets[1]
		}
		b, xc, err := sc.post(ctx, peer, rt, hedged)
		return reply{b, xc}, err
	})
	sc.s.metrics.ClusterForwardLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, false, err
	}
	return out.body, out.xcache != "degraded", nil
}

// post performs one forwarded exchange with peer, classifying the
// outcome for the per-peer metric: "ok"/"hedged" (200), "client-error"
// (the owner's 4xx verdict passes through), "backpressure" (429/503 —
// also suppresses hedging for the advertised Retry-After), "error"
// (transport failure or a 5xx).
func (sc *serverCluster) post(ctx context.Context, peer string, rt *clusterRoute, hedged bool) (body []byte, xcache string, err error) {
	outcome := "error"
	defer func() { sc.s.metrics.ClusterForwards.With(peer, outcome).Inc() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+peer+rt.path, bytes.NewReader(rt.payload))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(headerForwarded, "1")
	if d, ok := ctx.Deadline(); ok {
		// Propagate the remaining budget, not the original timeout: the
		// owner should stop when this node's client would stop listening.
		req.Header.Set("X-Request-Deadline", time.Until(d).String())
	}
	resp, err := sc.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		outcome = "ok"
		if hedged {
			outcome = "hedged"
		}
		return b, resp.Header.Get("X-Cache"), nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		outcome = "backpressure"
		ra := time.Second
		if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
			ra = time.Duration(secs) * time.Second
		}
		sc.hedger.NoteBackpressure(ra)
		return nil, "", &apiError{status: resp.StatusCode, msg: fmt.Sprintf("peer %s rejected forward: status %d", peer, resp.StatusCode)}
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		outcome = "client-error"
		var env struct {
			Error *APIError `json:"error"`
		}
		if jerr := json.Unmarshal(b, &env); jerr == nil && env.Error != nil {
			return nil, "", &apiError{status: env.Error.Code, msg: env.Error.Message}
		}
		return nil, "", &apiError{status: resp.StatusCode, msg: fmt.Sprintf("peer %s: status %d", peer, resp.StatusCode)}
	}
	return nil, "", fmt.Errorf("peer %s: status %d", peer, resp.StatusCode)
}

// peerFill asks the key's other owners for a cached copy before this
// node pays for an evaluation: a replica whose push was dropped (or that
// restarted cold) recovers the entry for one cheap intra-cluster GET.
// Runs inside the flight leader, so at most one fill per key is in
// flight per node.
func (sc *serverCluster) peerFill(ctx context.Context, key string) ([]byte, bool) {
	asked := false
	for _, o := range sc.cl.Owners(key) {
		if o == sc.cl.Self() {
			continue
		}
		asked = true
		if b, ok := sc.fillFrom(ctx, o, key); ok {
			sc.s.metrics.ClusterFillHits.Inc()
			return b, true
		}
	}
	if asked {
		sc.s.metrics.ClusterFillMisses.Inc()
	}
	return nil, false
}

// fillFrom performs one bounded peer cache lookup.
func (sc *serverCluster) fillFrom(ctx context.Context, peer, key string) ([]byte, bool) {
	fctx, cancel := context.WithTimeout(ctx, sc.cfg.FillTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, "http://"+peer+"/v1/peer/cache?key="+key, nil)
	if err != nil {
		return nil, false
	}
	resp, err := sc.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false
	}
	return b, true
}

// enqueuePush schedules fire-and-forget replica pushes of a freshly
// evaluated entry. The queue is bounded and a full queue drops the push
// (counted) rather than blocking the evaluation path — a dropped push
// only costs a later fill lookup.
func (sc *serverCluster) enqueuePush(key string, body []byte) {
	if sc.pushes == nil {
		return
	}
	for _, o := range sc.cl.Owners(key) {
		if o == sc.cl.Self() {
			continue
		}
		select {
		case sc.pushes <- pushItem{peer: o, key: key, body: body}:
		default:
			sc.s.metrics.ClusterFillDrops.Inc()
		}
	}
}

// pushLoop drains the push queue until close.
func (sc *serverCluster) pushLoop() {
	defer sc.wg.Done()
	for {
		select {
		case <-sc.stop:
			return
		case it := <-sc.pushes:
			sc.doPush(it)
		}
	}
}

// doPush performs one replica cache push.
func (sc *serverCluster) doPush(it pushItem) {
	ctx, cancel := context.WithTimeout(context.Background(), sc.cfg.FillTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+it.peer+"/v1/peer/cache?key="+it.key, bytes.NewReader(it.body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := sc.client.Do(req)
	if err != nil {
		sc.s.cfg.Logger.Debug("cluster push failed", "peer", it.peer, "err", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		sc.s.metrics.ClusterFillPushes.Inc()
	}
}

// validCacheKey reports whether key is a canonical content hash
// (lowercase SHA-256 hex), the only keys the peer cache endpoints
// accept: this is an internal mesh API, not a general KV store.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handlePeerCacheGet serves GET /v1/peer/cache?key=: a replica's cheap
// cache lookup. 200 with the exact cached bytes, or 404.
func (s *Server) handlePeerCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if !validCacheKey(key) {
		s.writeError(w, badRequestf("key must be a 64-char lowercase hex content hash"))
		return
	}
	b, ok := s.cache.Get(key)
	if !ok {
		s.writeError(w, &apiError{status: http.StatusNotFound, msg: "key not cached"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "hit")
	w.Write(b)
}

// handlePeerCachePut serves POST /v1/peer/cache?key=: an owner pushing
// a freshly evaluated entry to this replica. 204 on acceptance.
func (s *Server) handlePeerCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if !validCacheKey(key) {
		s.writeError(w, badRequestf("key must be a 64-char lowercase hex content hash"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, &apiError{status: http.StatusRequestEntityTooLarge, msg: "push body too large"})
		return
	}
	if len(body) == 0 {
		s.writeError(w, badRequestf("empty push body"))
		return
	}
	s.cache.Add(key, body)
	w.WriteHeader(http.StatusNoContent)
}
