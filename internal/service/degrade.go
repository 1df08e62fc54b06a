package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro"
	"repro/internal/analysis"
	"repro/internal/guard"
)

// The per-endpoint circuit-breaker and degradation identities. Batch
// items share the analyze endpoint's breaker: they run the same
// evaluator, so its health is one signal.
const (
	endpointAnalyze = "analyze"
	endpointLint    = "lint"
	endpointTune    = "tune"
	// endpointBatchItem labels per-item accounting inside
	// /v1/analyze/batch in fsserve_requests_total: embedded item
	// failures ride in a 200 envelope, so without it they would be
	// invisible to request metrics.
	endpointBatchItem = "batch-item"
)

// guarded is the fault boundary every cacheable endpoint funnels
// through: serveCached runs behind the endpoint's circuit breaker, and
// internal failures — evaluator panics (already converted to
// *guard.EvalPanicError by the recover wrappers), tripped budgets,
// expired deadlines, injected faults — degrade to the closed-form
// answer instead of surfacing a 500 or 504. Client errors (4xx) and
// queue backpressure (429) pass through untouched: they say nothing
// about evaluator health and must keep their semantics.
//
// An open breaker skips the full evaluation entirely and serves the
// degraded answer outright; successes and internal failures feed the
// breaker so it opens after consecutive evaluator trouble and closes
// again via half-open probes. Degraded bodies are built outside the
// fault-injection seams and are never cached.
//
// When the server is clustered and route is non-nil, the cluster layer
// decides first: a node that is not the key's primary owner serves its
// local cached copy or proxies to the owners (cluster.go), so routing
// sits above the breaker — forwarding is not an evaluation and a
// non-owner's breaker state says nothing about it. A request that
// already took its one forwarding hop bypasses routing and is served
// locally (the hop guard).
func (s *Server) guarded(ctx context.Context, endpoint, key string, route *clusterRoute, eval func(context.Context) ([]byte, error), degrade func(reason string) ([]byte, error)) (body []byte, source string, err error) {
	if s.cluster != nil && route != nil && !route.forwarded {
		if h := s.cluster.route(ctx, endpoint, key, route, degrade); h != nil {
			return h.body, h.source, h.err
		}
	}
	br := s.breakers[endpoint]
	if br != nil && !br.Allow() {
		return s.degrade(endpoint, degrade, "breaker-open")
	}
	body, source, err = s.serveCached(ctx, endpoint, key, eval)
	if err == nil {
		if br != nil {
			br.Record(true)
		}
		return body, source, nil
	}
	status := statusFor(err)
	if status != http.StatusInternalServerError && status != http.StatusGatewayTimeout {
		return nil, "", err
	}
	if br != nil {
		br.Record(false)
	}
	reason := "internal"
	var pe *guard.EvalPanicError
	var be *guard.BudgetError
	switch {
	case errors.As(err, &pe):
		reason = "panic"
		s.metrics.EvalPanics.Inc()
		s.cfg.Logger.Error("evaluation panic",
			"endpoint", endpoint, "panic", pe.Value, "stack", string(pe.Stack))
	case errors.As(err, &be):
		reason = "budget"
		if be.Resource == "deadline" {
			reason = "deadline"
		}
	case errors.Is(err, context.DeadlineExceeded):
		reason = "deadline"
	}
	return s.degrade(endpoint, degrade, reason)
}

// degrade builds the degraded body and accounts for it. A failure here
// (e.g. the source does not even parse) surfaces as the builder's own
// error — typically a 400, never a masked internal failure.
func (s *Server) degrade(endpoint string, degrade func(reason string) ([]byte, error), reason string) ([]byte, string, error) {
	body, err := degrade(reason)
	if err != nil {
		return nil, "", err
	}
	s.metrics.Degraded.With(endpoint, reason).Inc()
	return body, "degraded", nil
}

// evalBudget is the resource budget one model evaluation runs under:
// the configured step and state ceilings plus the request deadline, so
// a runaway simulation stops deterministically inside the fsmodel hot
// loop instead of burning a pool slot until the timeout.
func (s *Server) evalBudget(ctx context.Context) guard.Budget {
	b := guard.Budget{
		MaxSteps:      s.cfg.MaxEvalSteps,
		MaxStateBytes: s.cfg.MaxEvalStateBytes,
	}
	if d, ok := ctx.Deadline(); ok {
		// The ctx deadline already folds in the X-Request-Deadline
		// header (requestContext tightens the timeout), so the client's
		// end-to-end deadline reaches the fsmodel hot loop.
		b = b.TightenDeadline(d)
	}
	return b
}

// ClosedFormResult is the closed-form engine's answer embedded in a
// degraded AnalyzeResponse: the static prone/race verdict and verified
// aligning chunk from internal/analysis, computed without simulation.
type ClosedFormResult struct {
	Prone    bool  `json:"prone"`
	Race     bool  `json:"race"`
	Chunk    int64 `json:"chunk,omitempty"`
	Exact    bool  `json:"exact"`
	Findings int   `json:"findings"`
}

// degradedAnalyze answers an analyze request from the closed-form
// engine: no simulation, no budget, cost independent of trip counts. It
// runs under its own recover wrapper and outside the fault-injection
// seams, so it stays reliable while the full evaluator is the thing
// failing.
func (s *Server) degradedAnalyze(rr resolved, reason string) ([]byte, error) {
	resp, err := guard.Do1(func() (*AnalyzeResponse, error) {
		prog, err := repro.Parse(rr.source)
		if err != nil {
			return nil, &apiError{status: http.StatusBadRequest, msg: err.Error()}
		}
		if rr.req.Nest >= prog.NumNests() {
			return nil, badRequestf("nest index %d out of range (program has %d nests)", rr.req.Nest, prog.NumNests())
		}
		adv, err := prog.RecommendChunkClosedForm(rr.req.Nest, rr.opts)
		if err != nil {
			return nil, err
		}
		threads := rr.opts.Threads
		if threads == 0 {
			threads = rr.opts.Machine.Cores()
		}
		resp := &AnalyzeResponse{
			Nest:           rr.req.Nest,
			Threads:        threads,
			Chunk:          rr.opts.Chunk,
			Degraded:       true,
			DegradedReason: reason,
			ClosedForm: &ClosedFormResult{
				Prone:    adv.Prone,
				Race:     adv.Race,
				Chunk:    adv.Chunk,
				Exact:    adv.Exact,
				Findings: adv.Findings,
			},
			Warnings: prog.Warnings(),
		}
		if rr.req.Recommend && adv.Chunk > 0 {
			resp.RecommendedChunk = adv.Chunk
		}
		return resp, nil
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// degradedLint answers a lint request with a direct closed-form pass —
// the same engine, re-run outside the cache/flight/pool seams and under
// its own recover wrapper — marked degraded in the native shape. SARIF
// output carries no degradation marker (the format has no natural slot
// for it); the fsserve_degraded_total metric still counts it.
func (s *Server) degradedLint(rr lintResolved, reason string) ([]byte, error) {
	return guard.Do1(func() ([]byte, error) {
		rep, err := s.lintReport(rr)
		if err != nil {
			return nil, err
		}
		if rr.req.SARIF {
			var buf jsonBuffer
			if err := analysis.WriteSARIF(&buf, []analysis.FileReport{{File: rr.file, Report: rep}}); err != nil {
				return nil, err
			}
			return buf.bytes, nil
		}
		return json.Marshal(LintResponse{File: rr.file, Report: rep, Degraded: true, DegradedReason: reason})
	})
}

// readyzBreaker is one endpoint's circuit-breaker state in /readyz.
type readyzBreaker struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Opens               int64  `json:"opens"`
}

// readyzPool is the evaluation pool's saturation in /readyz.
type readyzPool struct {
	Running       int  `json:"running"`
	Capacity      int  `json:"capacity"`
	Waiting       int  `json:"waiting"`
	QueueCapacity int  `json:"queue_capacity"`
	Saturated     bool `json:"saturated"`
	// Limit is the admission limit. Slots are fixed, so it always equals
	// Capacity; the field is kept for existing readers.
	Limit float64 `json:"limit"`
}

// readyzCluster is the cluster membership view in /readyz.
type readyzCluster struct {
	Self string `json:"self"`
	// Peers maps each probed peer to its state ("healthy", "suspect",
	// "down").
	Peers map[string]string `json:"peers"`
}

// ReadyzResponse is the body of GET /readyz.
type ReadyzResponse struct {
	// Status is "ok", "degraded" (some breaker is not closed: the
	// service answers, possibly from the closed-form fallback) or
	// "draining" (shutdown has begun; the only 503 case).
	Status   string                   `json:"status"`
	Breakers map[string]readyzBreaker `json:"breakers,omitempty"`
	Pool     readyzPool               `json:"pool"`
	Cluster  *readyzCluster           `json:"cluster,omitempty"`
}

// handleReadyz serves GET /readyz: a JSON readiness document exposing
// the per-endpoint breaker states and pool saturation. It returns 503
// only while draining; an open breaker keeps 200 with status
// "degraded", because the service still answers every request.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.admit.Stats()
	resp := ReadyzResponse{
		Status: "ok",
		Pool: readyzPool{
			Running:       st.Running,
			Capacity:      st.Ceiling,
			Waiting:       st.Waiting,
			QueueCapacity: st.MaxWait,
			Saturated:     st.Running >= st.Ceiling && st.Waiting >= st.MaxWait,
			Limit:         float64(st.Ceiling),
		},
	}
	if len(s.breakers) > 0 {
		resp.Breakers = make(map[string]readyzBreaker, len(s.breakers))
		for ep, br := range s.breakers {
			snap := br.Snapshot()
			if snap.State != guard.BreakerClosed {
				resp.Status = "degraded"
			}
			resp.Breakers[ep] = readyzBreaker{
				State:               snap.State.String(),
				ConsecutiveFailures: snap.ConsecutiveFailures,
				Opens:               snap.Opens,
			}
		}
	}
	if s.cluster != nil {
		states := s.cluster.cl.States()
		rc := &readyzCluster{Self: s.cluster.cl.Self(), Peers: make(map[string]string, len(states))}
		for peer, st := range states {
			if peer != rc.Self {
				rc.Peers[peer] = st.String()
			}
		}
		resp.Cluster = rc
	}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, resp)
}
