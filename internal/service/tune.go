package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/tuner"
)

// TuneRequest is the body of POST /v1/tune: run the cost-model-guided
// auto-tuner over one source and return the chosen transformation plan,
// the transformed source and the full search report. Exactly one of
// Source and Kernel must be set. The server's extrapolation setting
// applies to the simulator verification tier and is part of the cache
// key.
type TuneRequest struct {
	Source string `json:"source,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	// Threads overrides the team size (0 = pragma, else machine cores).
	Threads int `json:"threads,omitempty"`
	// Chunk overrides the baseline schedule chunk (0 = pragma, else the
	// OpenMP static default); candidate schedule rewrites ignore it.
	Chunk int64 `json:"chunk,omitempty"`
	// Machine names the modeled target: paper48 (default), smalltest,
	// modern16.
	Machine string `json:"machine,omitempty"`
	// Nest selects the loop nest to tune.
	Nest int `json:"nest,omitempty"`
	// Beam is how many fast-tier candidates reach simulator verification
	// (0 = tuner default).
	Beam int `json:"beam,omitempty"`
	// MaxCandidates caps the enumerated plan space (0 = tuner default).
	MaxCandidates int `json:"max_candidates,omitempty"`
}

// TuneResponse is the response of POST /v1/tune. A full run carries the
// tuner's Report (plan, transformed source, per-candidate scores,
// rejections). A degraded response — evaluator panic, tripped budget,
// open breaker — has no verified report; it carries the closed-form
// engine's single-fix suggestion in ClosedForm instead, with Degraded
// set and the reason named.
type TuneResponse struct {
	File           string         `json:"file"`
	Report         *tuner.Result  `json:"report,omitempty"`
	Degraded       bool           `json:"degraded,omitempty"`
	DegradedReason string         `json:"degraded_reason,omitempty"`
	ClosedForm     *ClosedFormFix `json:"closed_form,omitempty"`
}

// ClosedFormFix is the degraded fallback's answer: the first verified
// single-transformation fix the closed-form analysis suggests for the
// nest, with no search and no simulation. Plan is "no-op" when the nest
// is already statically clean or no single fix applies.
type ClosedFormFix struct {
	Plan           string `json:"plan"`
	SuggestedChunk int64  `json:"suggested_chunk,omitempty"`
	PadBytes       int64  `json:"pad_bytes,omitempty"`
	// Findings counts the nest's FS001/FS002/RC001 findings.
	Findings int `json:"findings"`
}

// tuneResolved is a validated tune request with its canonical cache key.
type tuneResolved struct {
	req  TuneRequest
	file string
	src  string
	mach *machine.Desc
	key  string
}

// maxTuneBeam bounds client-supplied search widths so one request
// cannot order an arbitrarily large verification fan-out.
const (
	maxTuneBeam       = 16
	maxTuneCandidates = 128
)

// resolveTune validates req and computes its canonical key.
func (s *Server) resolveTune(req TuneRequest) (tuneResolved, error) {
	if req.Source != "" && req.Kernel != "" {
		return tuneResolved{}, badRequestf("source and kernel are mutually exclusive")
	}
	if req.Source == "" && req.Kernel == "" {
		return tuneResolved{}, badRequestf("one of source or kernel is required")
	}
	if req.Threads < 0 || req.Threads > maxThreads {
		return tuneResolved{}, badRequestf("threads must be in 0..%d, got %d", maxThreads, req.Threads)
	}
	if req.Chunk < 0 {
		return tuneResolved{}, badRequestf("chunk must be >= 0, got %d", req.Chunk)
	}
	if req.Nest < 0 {
		return tuneResolved{}, badRequestf("nest must be >= 0, got %d", req.Nest)
	}
	if req.Beam < 0 || req.Beam > maxTuneBeam {
		return tuneResolved{}, badRequestf("beam must be in 0..%d, got %d", maxTuneBeam, req.Beam)
	}
	if req.MaxCandidates < 0 || req.MaxCandidates > maxTuneCandidates {
		return tuneResolved{}, badRequestf("max_candidates must be in 0..%d, got %d", maxTuneCandidates, req.MaxCandidates)
	}
	mach, err := machineDescByName(req.Machine)
	if err != nil {
		return tuneResolved{}, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	src := req.Source
	file := "<source>"
	if req.Kernel != "" {
		threads := req.Threads
		if threads == 0 {
			threads = mach.Cores
		}
		k, err := kernels.ByName(req.Kernel, threads)
		if err != nil {
			return tuneResolved{}, &apiError{status: http.StatusBadRequest, msg: err.Error()}
		}
		src = k.Source
		file = "<kernel:" + req.Kernel + ">"
	}
	h := sha256.New()
	fmt.Fprintf(h, "tune/v1\x00machine=%s;threads=%d;chunk=%d;nest=%d;beam=%d;maxcand=%d;extrap=%t\x00",
		mach.Name, req.Threads, req.Chunk, req.Nest, req.Beam, req.MaxCandidates,
		s.cfg.Extrapolate)
	h.Write([]byte(src))
	return tuneResolved{
		req:  req,
		file: file,
		src:  src,
		mach: mach,
		key:  hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// handleTune serves POST /v1/tune through the same fault boundary,
// cache, in-flight dedup and admission control as the other evaluation
// endpoints. Cached bodies are served verbatim, so a repeated request
// replays byte-identically (including the original run's phase
// timings).
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	if err := s.admitClient(r); err != nil {
		s.writeError(w, err)
		return
	}
	var req TuneRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	rr, err := s.resolveTune(req)
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
	body, source, err := s.guarded(ctx, endpointTune, rr.key, s.clusterRouteFor(r, "/v1/tune", req), func(ctx context.Context) ([]byte, error) {
		return s.evaluateTune(ctx, rr)
	}, func(reason string) ([]byte, error) {
		return s.degradedTune(rr, reason)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source)
	w.Write(body)
}

// evaluateTune runs the full search for one resolved request. Input
// problems the resolver cannot see (unparsable source, sequential nest,
// symbolic bounds) surface as 400s via tuner.InputError; budget trips,
// panics and deadline expiry flow to guarded, which degrades.
func (s *Server) evaluateTune(ctx context.Context, rr tuneResolved) ([]byte, error) {
	if err := faultinject.Fire("service.evaluate"); err != nil {
		return nil, err
	}
	res, err := tuner.Tune(ctx, rr.src, tuner.Options{
		Machine:       rr.mach,
		Threads:       rr.req.Threads,
		Chunk:         rr.req.Chunk,
		Nest:          rr.req.Nest,
		Beam:          rr.req.Beam,
		MaxCandidates: rr.req.MaxCandidates,
		Extrapolate:   s.cfg.Extrapolate,
		Budget:        s.evalBudget(ctx),
		KeepHeader:    true,
	})
	if err != nil {
		var ie *tuner.InputError
		if errors.As(err, &ie) {
			return nil, &apiError{status: http.StatusBadRequest, msg: ie.Msg}
		}
		return nil, err
	}
	s.metrics.TuneCandidates.Add(int64(len(res.Candidates)))
	for _, p := range res.Phases {
		s.metrics.TunePhase.With(p.Name).Observe(p.Seconds)
	}
	return json.Marshal(TuneResponse{File: rr.file, Report: res})
}

// degradedTune answers a tune request without the search: the
// closed-form analysis runs outside the cache/flight/pool seams, under
// its own recover wrapper, and its first single-transformation fix for
// the nest becomes the suggestion. No source is transformed — an
// unverified rewrite would defeat the tuner's contract that emitted
// source is simulator-verified.
func (s *Server) degradedTune(rr tuneResolved, reason string) ([]byte, error) {
	return guard.Do1(func() ([]byte, error) {
		prog, err := minic.Parse(rr.src)
		if err != nil {
			return nil, &apiError{status: http.StatusBadRequest, msg: "parse: " + err.Error()}
		}
		unit, err := loopir.Lower(prog, loopir.LowerOptions{
			LineSize:       rr.mach.LineSize,
			AllowNonAffine: true,
			SymbolicBounds: true,
		})
		if err != nil {
			return nil, &apiError{status: http.StatusBadRequest, msg: "lower: " + err.Error()}
		}
		if rr.req.Nest >= len(unit.Nests) {
			return nil, badRequestf("nest index %d out of range (%d nests)", rr.req.Nest, len(unit.Nests))
		}
		rep, err := analysis.Analyze(unit, analysis.Config{
			Machine: rr.mach,
			Threads: rr.req.Threads,
			Chunk:   rr.req.Chunk,
		})
		if err != nil {
			return nil, err
		}
		fix := &ClosedFormFix{Plan: "no-op"}
		for _, d := range rep.Diagnostics {
			if d.Nest != rr.req.Nest {
				continue
			}
			switch d.Code {
			case analysis.CodeFSWrite, analysis.CodeFSPair, analysis.CodeRace:
				fix.Findings++
			case analysis.CodeFixChunk:
				if fix.Plan == "no-op" && d.SuggestedChunk > 0 {
					fix.Plan = fmt.Sprintf("schedule(static,%d)", d.SuggestedChunk)
					fix.SuggestedChunk = d.SuggestedChunk
				}
			case analysis.CodeFixPad:
				if fix.Plan == "no-op" && d.PadBytes > 0 {
					fix.Plan = fmt.Sprintf("pad +%dB", d.PadBytes)
					fix.PadBytes = d.PadBytes
				}
			}
		}
		return json.Marshal(TuneResponse{
			File:           rr.file,
			Degraded:       true,
			DegradedReason: reason,
			ClosedForm:     fix,
		})
	})
}
