package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
)

// LintRequest is the body of POST /v1/lint: run the closed-form static
// false-sharing linter (no simulation) over one source. Exactly one of
// Source and Kernel must be set.
type LintRequest struct {
	Source string `json:"source,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	// Threads overrides the team size (0 = pragma, else machine cores).
	Threads int `json:"threads,omitempty"`
	// Chunk overrides the schedule chunk (0 = pragma, else the OpenMP
	// static default).
	Chunk int64 `json:"chunk,omitempty"`
	// Machine names the modeled target: paper48 (default), smalltest,
	// modern16. Its cache-line size drives the analysis.
	Machine string `json:"machine,omitempty"`
	// AssumedTrips substitutes for loop bounds unknown at compile time
	// (0 = the engine default, 2048).
	AssumedTrips int64 `json:"assumed_trips,omitempty"`
	// NoSuggest disables the verified FIX-CHUNK/FIX-PAD pass.
	NoSuggest bool `json:"no_suggest,omitempty"`
	// SARIF switches the response to a SARIF 2.1.0 document instead of
	// the native LintResponse shape.
	SARIF bool `json:"sarif,omitempty"`
}

// LintResponse is the native (non-SARIF) response: the analyzed pseudo
// file name and the full diagnostics report. Degraded marks a response
// produced by the fallback pass after the primary evaluation failed
// internally; DegradedReason says why ("breaker-open", "panic", ...).
type LintResponse struct {
	File           string           `json:"file"`
	Report         *analysis.Report `json:"report"`
	Degraded       bool             `json:"degraded,omitempty"`
	DegradedReason string           `json:"degraded_reason,omitempty"`
}

// lintResolved is a validated lint request with its canonical cache key.
type lintResolved struct {
	req  LintRequest
	file string
	src  string
	mach *machine.Desc
	key  string
}

// machineDescByName resolves a machine name to its descriptor (the lint
// engine needs the raw Desc, not the repro façade).
func machineDescByName(name string) (*machine.Desc, error) {
	switch name {
	case "", "paper48":
		return machine.Paper48(), nil
	case "smalltest":
		return machine.SmallTest(), nil
	case "modern16":
		return machine.Modern16(), nil
	}
	return nil, fmt.Errorf("unknown machine %q (valid: paper48, smalltest, modern16)", name)
}

// resolveLint validates req and computes its canonical key, mirroring
// resolve for /v1/analyze.
func (s *Server) resolveLint(req LintRequest) (lintResolved, error) {
	if req.Source != "" && req.Kernel != "" {
		return lintResolved{}, badRequestf("source and kernel are mutually exclusive")
	}
	if req.Source == "" && req.Kernel == "" {
		return lintResolved{}, badRequestf("one of source or kernel is required")
	}
	if req.Threads < 0 || req.Threads > maxThreads {
		return lintResolved{}, badRequestf("threads must be in 0..%d, got %d", maxThreads, req.Threads)
	}
	if req.Chunk < 0 {
		return lintResolved{}, badRequestf("chunk must be >= 0, got %d", req.Chunk)
	}
	if req.AssumedTrips < 0 {
		return lintResolved{}, badRequestf("assumed_trips must be >= 0, got %d", req.AssumedTrips)
	}
	mach, err := machineDescByName(req.Machine)
	if err != nil {
		return lintResolved{}, &apiError{status: http.StatusBadRequest, msg: err.Error()}
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
			return lintResolved{}, &apiError{status: http.StatusBadRequest, msg: err.Error()}
		}
		src = k.Source
		file = "<kernel:" + req.Kernel + ">"
	}
	h := sha256.New()
	fmt.Fprintf(h, "lint/v1\x00machine=%s;threads=%d;chunk=%d;assume=%d;nosuggest=%t;sarif=%t\x00",
		mach.Name, req.Threads, req.Chunk, req.AssumedTrips, req.NoSuggest, req.SARIF)
	h.Write([]byte(src))
	return lintResolved{
		req:  req,
		file: file,
		src:  src,
		mach: mach,
		key:  hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// handleLint serves POST /v1/lint through the same cache, in-flight
// dedup and admission control as /v1/analyze.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	if err := s.admitClient(r); err != nil {
		s.writeError(w, err)
		return
	}
	var req LintRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	rr, err := s.resolveLint(req)
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
	body, source, err := s.guarded(ctx, endpointLint, rr.key, s.clusterRouteFor(r, "/v1/lint", req), func(ctx context.Context) ([]byte, error) {
		return s.evaluateLint(rr)
	}, func(reason string) ([]byte, error) {
		return s.degradedLint(rr, reason)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source)
	w.Write(body)
}

// evaluateLint runs the linter for one resolved request. Parse and
// lowering failures become PARSE diagnostics in a 200 response — a
// linter reports findings on broken input rather than refusing it —
// while truly invalid requests were already rejected by resolveLint.
func (s *Server) evaluateLint(rr lintResolved) ([]byte, error) {
	if err := faultinject.Fire("service.evaluate"); err != nil {
		return nil, err
	}
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
	return json.Marshal(LintResponse{File: rr.file, Report: rep})
}

// lintReport parses, lowers (at the machine's line size) and analyzes
// the resolved source.
func (s *Server) lintReport(rr lintResolved) (*analysis.Report, error) {
	parseFailure := func(err error) *analysis.Report {
		return &analysis.Report{Diagnostics: []analysis.Diagnostic{{
			Code:     analysis.CodeParse,
			Severity: analysis.SeverityError,
			Pos:      minic.Pos{Line: 1, Col: 1},
			End:      minic.Pos{Line: 1, Col: 2},
			Message:  err.Error(),
			Exact:    true,
		}}}
	}
	prog, err := minic.Parse(rr.src)
	if err != nil {
		return parseFailure(err), nil
	}
	unit, err := loopir.Lower(prog, loopir.LowerOptions{
		LineSize:       rr.mach.LineSize,
		SymbolicBounds: true,
	})
	if err != nil {
		return parseFailure(err), nil
	}
	return analysis.Analyze(unit, analysis.Config{
		Machine:      rr.mach,
		Threads:      rr.req.Threads,
		Chunk:        rr.req.Chunk,
		AssumedTrips: rr.req.AssumedTrips,
		NoSuggest:    rr.req.NoSuggest,
	})
}

// jsonBuffer is a minimal io.Writer over a byte slice (avoids pulling in
// bytes.Buffer's unused surface for the SARIF path).
type jsonBuffer struct{ bytes []byte }

func (b *jsonBuffer) Write(p []byte) (int, error) {
	b.bytes = append(b.bytes, p...)
	return len(p), nil
}
