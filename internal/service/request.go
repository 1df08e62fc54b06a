package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro"
	"repro/internal/kernels"
)

// AnalyzeRequest is the body of POST /v1/analyze: one analysis point of
// the compile-time false-sharing model. Exactly one of Source (mini-C
// text) and Kernel (a built-in paper kernel name) must be set.
type AnalyzeRequest struct {
	Source string `json:"source,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	// Nest selects the loop nest to analyze (default 0).
	Nest int `json:"nest,omitempty"`
	// Threads is the OpenMP team size (0 = the machine's core count;
	// a num_threads pragma in the source wins).
	Threads int `json:"threads,omitempty"`
	// Chunk is the schedule(static,chunk) chunk size (0 = the OpenMP
	// default block schedule; a schedule pragma wins).
	Chunk int64 `json:"chunk,omitempty"`
	// Machine names the modeled target: paper48 (default), smalltest,
	// modern16.
	Machine string `json:"machine,omitempty"`
	// MESI switches FS counting from the paper's ϕ function to
	// write-invalidate-faithful counting.
	MESI bool `json:"mesi,omitempty"`
	// HotLines additionally attributes FS cases to individual cache lines.
	HotLines bool `json:"hot_lines,omitempty"`
	// Recommend additionally runs the cost-model chunk recommendation
	// (power-of-two candidates 1..128).
	Recommend bool `json:"recommend,omitempty"`
}

// AnalyzeResponse is the result of one analysis: the FS model outputs,
// the Equation 1 cost total, and (on request) the schedule
// recommendation.
type AnalyzeResponse struct {
	Nest           int     `json:"nest"`
	Threads        int     `json:"threads"`
	Chunk          int64   `json:"chunk"`
	FSCases        int64   `json:"fs_cases"`
	FSShare        float64 `json:"fs_share"`
	Iterations     int64   `json:"iterations"`
	FSPerIteration float64 `json:"fs_per_iteration"`
	ChunkRuns      int64   `json:"chunk_runs"`
	// Extrapolated marks totals closed by the steady-state chunk-run
	// extrapolation (exact; enabled by the server's -extrapolate flag).
	Extrapolated bool `json:"extrapolated,omitempty"`
	// TotalCycles is Equation 1's Total_c including the FS term.
	TotalCycles float64         `json:"total_cycles"`
	Victims     []repro.Victim  `json:"victims,omitempty"`
	HotLines    []repro.HotLine `json:"hot_lines,omitempty"`
	SkippedRefs []string        `json:"skipped_refs,omitempty"`
	Warnings    []string        `json:"warnings,omitempty"`
	// RecommendedChunk and RecommendedFSCases are present when the
	// request set recommend.
	RecommendedChunk   int64 `json:"recommended_chunk,omitempty"`
	RecommendedFSCases int64 `json:"recommended_fs_cases,omitempty"`
	// Degraded marks a response answered by the closed-form engine
	// because the full evaluation failed internally (panic, tripped
	// budget, expired deadline) or its circuit breaker was open. The
	// simulation fields above are zero; ClosedForm carries the static
	// verdict instead. Degraded responses are never cached.
	Degraded       bool              `json:"degraded,omitempty"`
	DegradedReason string            `json:"degraded_reason,omitempty"`
	ClosedForm     *ClosedFormResult `json:"closed_form,omitempty"`
}

// BatchRequest is the body of POST /v1/analyze/batch. Either Requests
// lists explicit analysis points, or Template plus Chunks expands one
// request across a chunk-size sweep (the fschunk use case); both may be
// combined, template expansions first.
type BatchRequest struct {
	Requests []AnalyzeRequest `json:"requests,omitempty"`
	Template *AnalyzeRequest  `json:"template,omitempty"`
	Chunks   []int64          `json:"chunks,omitempty"`
}

// expand flattens the template×chunks product and the explicit requests,
// in that order.
func (b *BatchRequest) expand() ([]AnalyzeRequest, error) {
	var reqs []AnalyzeRequest
	if b.Template != nil {
		if len(b.Chunks) == 0 {
			return nil, badRequestf("batch template requires a non-empty chunks list")
		}
		for _, c := range b.Chunks {
			r := *b.Template
			r.Chunk = c
			reqs = append(reqs, r)
		}
	} else if len(b.Chunks) > 0 {
		return nil, badRequestf("batch chunks require a template")
	}
	reqs = append(reqs, b.Requests...)
	if len(reqs) == 0 {
		return nil, badRequestf("empty batch: provide requests or template+chunks")
	}
	return reqs, nil
}

// BatchResponse returns one entry per input, in input order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// BatchResult is one batch entry: the analysis response verbatim (the
// same bytes the single endpoint would serve) or a per-item error.
type BatchResult struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  *APIError       `json:"error,omitempty"`
}

// APIError is the JSON error shape, also used as the top-level error
// envelope {"error": {...}}.
type APIError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds mirrors the Retry-After header for backpressure
	// statuses, so batch items (which have no headers of their own)
	// still carry the derived backoff.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// resolved is a validated request ready to evaluate: the source text
// (built-in kernels resolved), the repro options, and the canonical
// content-addressed cache key.
type resolved struct {
	req    AnalyzeRequest
	source string
	opts   repro.Options
	key    string
}

// maxThreads mirrors the fsmodel limit so the bound surfaces as a 400,
// not an evaluation failure.
const maxThreads = 64

// resolve validates req and computes its canonical key. The key is a
// SHA-256 over the resolved source text plus Options.CanonicalKey plus
// the request fields outside Options, so equivalent requests (e.g. a
// kernel name versus its rendered source) collide deliberately, and any
// field that could change the response keeps distinct requests apart.
func (s *Server) resolve(req AnalyzeRequest) (resolved, error) {
	if req.Source != "" && req.Kernel != "" {
		return resolved{}, badRequestf("source and kernel are mutually exclusive")
	}
	if req.Source == "" && req.Kernel == "" {
		return resolved{}, badRequestf("one of source or kernel is required")
	}
	if req.Nest < 0 {
		return resolved{}, badRequestf("nest must be >= 0, got %d", req.Nest)
	}
	if req.Threads < 0 || req.Threads > maxThreads {
		return resolved{}, badRequestf("threads must be in 0..%d, got %d", maxThreads, req.Threads)
	}
	if req.Chunk < 0 {
		return resolved{}, badRequestf("chunk must be >= 0, got %d", req.Chunk)
	}
	mach, err := repro.MachineByName(req.Machine)
	if err != nil {
		return resolved{}, &apiError{status: 400, msg: err.Error()}
	}
	src := req.Source
	if req.Kernel != "" {
		threads := req.Threads
		if threads == 0 {
			threads = mach.Cores()
		}
		k, err := kernels.ByName(req.Kernel, threads)
		if err != nil {
			return resolved{}, &apiError{status: 400, msg: err.Error()}
		}
		src = k.Source
	}
	opts := repro.Options{
		Machine:       mach,
		Threads:       req.Threads,
		Chunk:         req.Chunk,
		MESICounting:  req.MESI,
		TrackHotLines: req.HotLines,
		Extrapolate:   s.cfg.Extrapolate,
	}

	h := sha256.New()
	fmt.Fprintf(h, "analyze/v1\x00%s\x00nest=%d;recommend=%t\x00", opts.CanonicalKey(), req.Nest, req.Recommend)
	h.Write([]byte(src))
	return resolved{
		req:    req,
		source: src,
		opts:   opts,
		key:    hex.EncodeToString(h.Sum(nil)),
	}, nil
}
