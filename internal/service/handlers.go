package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/kernels"
	"repro/internal/sweep"
)

// writeJSON writes v with the canonical headers.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// writeError writes the error envelope for err, attaching Retry-After to
// backpressure statuses.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	ae := s.apiErrorFor(err)
	if ae.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfterSeconds))
	}
	if ae.Code == http.StatusTooManyRequests {
		s.metrics.QueueRejects.Inc()
	}
	writeJSON(w, ae.Code, map[string]*APIError{"error": ae})
}

// apiErrorFor maps err to the wire error shape, deriving Retry-After for
// backpressure statuses: quota and queue-deadline rejections carry their
// own estimates (when the bucket refills; when the queue drains), the
// rest fall back to pool saturation + jitter.
func (s *Server) apiErrorFor(err error) *APIError {
	status := statusFor(err)
	ae := &APIError{Code: status, Message: err.Error()}
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return ae
	}
	var qe *quotaError
	var de *admission.DeadlineError
	switch {
	case errors.As(err, &qe):
		ae.RetryAfterSeconds = qe.retryAfter
	case errors.As(err, &de):
		ae.RetryAfterSeconds = ceilSeconds(de.EstimatedWait)
	default:
		ae.RetryAfterSeconds = s.retryAfterSeconds()
	}
	return ae
}

// ceilSeconds rounds d up to whole seconds, minimum 1 (a zero
// Retry-After invites an immediate retry).
func ceilSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// retryAfterSeconds derives a Retry-After value from the evaluation
// pool's saturation with full jitter on top: a deeper wait queue pushes
// the base up (1s empty to 4s full) and the jitter doubles the spread,
// so a herd of rejected clients comes back staggered instead of
// re-colliding on the same second. The jitter source is seeded
// (Config.Seed), keeping test runs reproducible.
func (s *Server) retryAfterSeconds() int {
	st := s.admit.Stats()
	base := 1
	if st.MaxWait > 0 {
		base += (3 * st.Waiting) / st.MaxWait
	}
	s.jitterMu.Lock()
	j := s.jitter.Intn(base + 1)
	s.jitterMu.Unlock()
	return base + j
}

// clientKey identifies a client for quota accounting: the X-API-Key
// header when present (callers sharing a NAT can differentiate
// themselves), else the remote host.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admitClient charges the request to its client's quota bucket. A nil
// error admits; a *quotaError rejects with the refill-derived
// Retry-After.
func (s *Server) admitClient(r *http.Request) error {
	if s.cluster != nil && r.Header.Get(headerForwarded) != "" {
		// The edge node already charged the originating client's quota;
		// charging again here would bill intra-cluster hops to the peer.
		return nil
	}
	ok, retry := s.quotas.Allow(clientKey(r))
	if ok {
		return nil
	}
	s.metrics.QuotaRejects.Inc()
	return &quotaError{retryAfter: ceilSeconds(retry)}
}

// requestContext derives the evaluation context: the configured request
// timeout, tightened by the client's X-Request-Deadline header (a Go
// duration like "250ms", or an absolute RFC3339 time). The deadline
// propagates end to end — through queue admission (where an unmeetable
// deadline is evicted immediately) into guard.Budget.Deadline inside
// the evaluator. The header can only tighten the server's timeout,
// never extend it.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	timeout := s.cfg.RequestTimeout
	if h := r.Header.Get("X-Request-Deadline"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil {
			t, terr := time.Parse(time.RFC3339, h)
			if terr != nil {
				return nil, nil, badRequestf("invalid X-Request-Deadline %q: use a Go duration (\"250ms\") or an RFC3339 time", h)
			}
			d = time.Until(t)
		}
		if d <= 0 {
			return nil, nil, &apiError{status: http.StatusGatewayTimeout, msg: "X-Request-Deadline already expired"}
		}
		if d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// decodeBody decodes the JSON request body under the configured size
// limit, distinguishing oversized bodies (413) from malformed ones (400).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequestf("invalid JSON body: %v", err)
	}
	return nil
}

// handleAnalyze serves POST /v1/analyze.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if err := s.admitClient(r); err != nil {
		s.writeError(w, err)
		return
	}
	var req AnalyzeRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	rr, err := s.resolve(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()
	body, source, err := s.analyze(ctx, rr, s.clusterRouteFor(r, "/v1/analyze", rr.req))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source)
	w.Write(body)
}

// analyze serves one resolved analysis point through the endpoint's
// fault boundary (cluster routing, circuit breaker + degradation), the
// cache, the in-flight dedup group, and the bounded evaluation pool, in
// that order. The returned body is the exact serialized response (cached
// bytes are served verbatim); source reports how it was obtained: "hit",
// "coalesced", "miss", "peer-fill", "forward" or "degraded".
func (s *Server) analyze(ctx context.Context, rr resolved, route *clusterRoute) (body []byte, source string, err error) {
	return s.guarded(ctx, endpointAnalyze, rr.key, route, func(ctx context.Context) ([]byte, error) {
		resp, err := s.evaluate(ctx, rr)
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	}, func(reason string) ([]byte, error) {
		return s.degradedAnalyze(rr, reason)
	})
}

// serveCached serves one content-addressed evaluation through the cache,
// the in-flight dedup group, and the bounded evaluation pool, in that
// order; every cacheable endpoint (/v1/analyze, /v1/lint) funnels through
// it (via guarded). eval must return the exact response bytes to cache
// and serve.
//
// The whole path runs under a guard recover wrapper, and the flight
// leader carries its own: a panic inside a leader would otherwise leave
// the flight entry permanently open — every later request for that key
// would join a call that never completes. The faultinject seams
// (service.cache, service.flight, service.pool) sit inside these
// wrappers, so injected panics surface as *guard.EvalPanicError, never
// as a torn flight or a leaked pool slot.
func (s *Server) serveCached(ctx context.Context, endpoint, key string, eval func(ctx context.Context) ([]byte, error)) (body []byte, source string, err error) {
	type served struct {
		body   []byte
		source string
	}
	out, err := guard.Do1(func() (served, error) {
		if err := faultinject.Fire("service.cache"); err != nil {
			return served{}, err
		}
		if b, ok := s.cache.Get(key); ok {
			s.metrics.CacheHits.Inc()
			return served{b, "hit"}, nil
		}
		res, coalesced, err := s.flight.Do(ctx, key, func() (flightResult, error) {
			return guard.Do1(func() (flightResult, error) {
				if err := faultinject.Fire("service.flight"); err != nil {
					return flightResult{}, err
				}
				// Re-check the cache as leader: a previous leader may have filled
				// it between this request's miss and its flight entry, and an
				// evaluation is too expensive to repeat on that race.
				if b, ok := s.cache.Get(key); ok {
					return flightResult{body: b, fromCache: true}, nil
				}
				// Before paying for an evaluation, ask the key's replica
				// peers for a cached copy (the flight guarantees at most one
				// such lookup per key is in flight on this node).
				if s.cluster != nil {
					if b, ok := s.cluster.peerFill(ctx, key); ok {
						s.cache.Add(key, b)
						return flightResult{body: b, peerFilled: true}, nil
					}
				}
				release, err := s.admit.Acquire(ctx)
				if err != nil {
					var de *admission.DeadlineError
					if errors.As(err, &de) {
						s.metrics.DeadlineEvictions.Inc()
					}
					return flightResult{}, err
				}
				defer release()
				if err := faultinject.Fire("service.pool"); err != nil {
					return flightResult{}, err
				}
				s.metrics.CacheMisses.Inc()
				s.metrics.Inflight.Inc()
				defer s.metrics.Inflight.Dec()
				start := time.Now()
				b, err := eval(ctx)
				// Success-only latency feeds the queue drain estimate:
				// failures are the circuit breaker's signal, not a
				// throughput one.
				s.admit.Observe(time.Since(start), err == nil)
				if err != nil {
					return flightResult{}, err
				}
				s.metrics.Evaluations.Inc()
				s.metrics.EvalLatency.With(endpoint).Observe(time.Since(start).Seconds())
				s.cache.Add(key, b)
				if s.cluster != nil {
					s.cluster.enqueuePush(key, b)
				}
				return flightResult{body: b}, nil
			})
		})
		if err != nil {
			return served{}, err
		}
		switch {
		case res.fromCache:
			s.metrics.CacheHits.Inc()
			return served{res.body, "hit"}, nil
		case coalesced:
			s.metrics.Coalesced.Inc()
			return served{res.body, "coalesced"}, nil
		case res.peerFilled:
			return served{res.body, "peer-fill"}, nil
		}
		return served{res.body, "miss"}, nil
	})
	if err != nil {
		return nil, "", err
	}
	return out.body, out.source, nil
}

// evaluate runs the full pipeline for one resolved request: parse → one
// model run (FS model plus Equation 1 cost) → optional chunk
// recommendation (one more run per candidate), under the configured
// evaluation budget and the request deadline.
func (s *Server) evaluate(ctx context.Context, rr resolved) (*AnalyzeResponse, error) {
	if err := faultinject.Fire("service.evaluate"); err != nil {
		return nil, err
	}
	rr.opts.Budget = s.evalBudget(ctx)
	prog, err := repro.Parse(rr.source)
	if err != nil {
		// Anything the front end rejects is the client's input.
		return nil, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if rr.req.Nest >= prog.NumNests() {
		return nil, badRequestf("nest index %d out of range (program has %d nests)", rr.req.Nest, prog.NumNests())
	}
	info, err := prog.Nest(rr.req.Nest)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	if info.ParallelLevel < 0 {
		return nil, badRequestf("nest %d is sequential: no parallel loop to analyze", rr.req.Nest)
	}
	if len(info.SymbolicParams) > 0 {
		return nil, badRequestf("nest %d has loop bounds unknown at compile time (%v); the service analyzes constant-bound nests", rr.req.Nest, info.SymbolicParams)
	}
	a, err := prog.Analyze(rr.req.Nest, rr.opts)
	if err != nil {
		return nil, err
	}
	if a.CostErr != nil {
		return nil, a.CostErr
	}
	resp := &AnalyzeResponse{
		Nest:           rr.req.Nest,
		Threads:        a.Threads,
		Chunk:          a.Chunk,
		FSCases:        a.FSCases,
		FSShare:        a.FSShare,
		Iterations:     a.Iterations,
		FSPerIteration: a.FSPerIteration,
		ChunkRuns:      a.ChunkRuns,
		Extrapolated:   a.Extrapolated,
		TotalCycles:    a.TotalCycles,
		Victims:        a.Victims,
		HotLines:       a.HotLines,
		SkippedRefs:    a.SkippedRefs,
		Warnings:       prog.Warnings(),
	}
	if rr.req.Recommend {
		rec, err := prog.RecommendChunkCtx(ctx, rr.req.Nest, rr.opts, nil)
		if err != nil {
			return nil, err
		}
		resp.RecommendedChunk = rec.Chunk
		resp.RecommendedFSCases = rec.FSCases
	}
	return resp, nil
}

// handleBatch serves POST /v1/analyze/batch: every point resolved up
// front, then fanned out on the sweep pool with results in input order.
// Item failures are reported per item; the batch itself fails only on a
// malformed body or a cancelled request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if err := s.admitClient(r); err != nil {
		s.writeError(w, err)
		return
	}
	var breq BatchRequest
	if err := s.decodeBody(w, r, &breq); err != nil {
		s.writeError(w, err)
		return
	}
	reqs, err := breq.expand()
	if err != nil {
		s.writeError(w, err)
		return
	}
	if len(reqs) > s.cfg.MaxBatch {
		s.writeError(w, badRequestf("batch of %d exceeds the %d-point limit", len(reqs), s.cfg.MaxBatch))
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()

	// Items never return a Go error (failures are embedded), so the only
	// sweep error is ctx expiry. Workers are not bounded here: each item
	// still queues through the admission controller, which is the real
	// concurrency bound. Each item is accounted individually under the
	// "batch-item" endpoint — embedded failures must not be invisible to
	// fsserve_requests_total just because the envelope is a 200.
	results, err := sweep.Run(ctx, len(reqs), min(len(reqs), 2*s.cfg.MaxConcurrent), func(ctx context.Context, i int) (BatchResult, error) {
		rr, err := s.resolve(reqs[i])
		if err == nil {
			var body []byte
			// Each item routes to its own key's owner: a batch fans out
			// across the cluster rather than landing on one node.
			body, _, err = s.analyze(ctx, rr, s.clusterRouteFor(r, "/v1/analyze", reqs[i]))
			if err == nil {
				s.metrics.Requests.With(endpointBatchItem, "200").Inc()
				return BatchResult{Result: json.RawMessage(body)}, nil
			}
		}
		ae := s.apiErrorFor(err)
		s.metrics.Requests.With(endpointBatchItem, statusText(ae.Code)).Inc()
		if ae.Code == http.StatusTooManyRequests {
			s.metrics.QueueRejects.Inc()
		}
		return BatchResult{Error: ae}, nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// handleKernels serves GET /v1/kernels: the built-in kernel and machine
// registries, so clients can discover valid names.
func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"kernels":  kernels.Names(),
		"machines": repro.MachineNames(),
	})
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once
// BeginShutdown has been called.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.CacheEntries.Set(int64(s.cache.Len()))
	if s.snap != nil {
		s.metrics.SnapshotAgeSeconds.Set(s.snap.ageSeconds())
	} else {
		s.metrics.SnapshotAgeSeconds.Set(-1)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}
