package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro"
	"repro/internal/accessplan"
	"repro/internal/analysis"
	"repro/internal/costmodel"
	"repro/internal/fsmodel"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/service"
)

// Answer checks. Every checked answer is reduced to a canonical string so
// that served bodies, direct library calls and the recorded expected
// files compare with one equality. Only fields that must not change under
// a faithful refactor are in the strings: fs_share and total_cycles are
// left out on purpose, since Equation 1 may legitimately be reconciled.

// analyzeAnswer canonicalizes the checked /v1/analyze fields.
func analyzeAnswer(fsCases, iterations, chunkRuns int64, threads int, chunk int64) string {
	return fmt.Sprintf("fs=%d it=%d runs=%d t=%d c=%d", fsCases, iterations, chunkRuns, threads, chunk)
}

// lintAnswer canonicalizes a lint report: every diagnostic's code and
// start position, in report order.
func lintAnswer(rep *analysis.Report) string {
	if rep == nil {
		return "no-report"
	}
	if len(rep.Diagnostics) == 0 {
		return "clean"
	}
	parts := make([]string, len(rep.Diagnostics))
	for i, d := range rep.Diagnostics {
		parts[i] = fmt.Sprintf("%s@%d:%d", d.Code, d.Pos.Line, d.Pos.Col)
	}
	return strings.Join(parts, ",")
}

// tuneAnswer canonicalizes a tuning result: the chosen plan and whether
// it is a no-op.
func tuneAnswer(plan string, noOp bool) string {
	return fmt.Sprintf("%s|noop=%t", plan, noOp)
}

// checkAnalyzeBody verifies one /v1/analyze response body against the
// expected answer.
func checkAnalyzeBody(body []byte, want string, recommend bool) error {
	var resp service.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode analyze response: %w", err)
	}
	if resp.Degraded {
		return fmt.Errorf("degraded response (%s)", resp.DegradedReason)
	}
	if got := analyzeAnswer(resp.FSCases, resp.Iterations, resp.ChunkRuns, resp.Threads, resp.Chunk); got != want {
		return fmt.Errorf("answer %q, want %q", got, want)
	}
	if recommend && resp.RecommendedChunk <= 0 {
		return fmt.Errorf("recommend requested but no recommended_chunk")
	}
	return nil
}

// checkLintBody verifies one /v1/lint response body.
func checkLintBody(body []byte, want string) error {
	var resp service.LintResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode lint response: %w", err)
	}
	if resp.Degraded {
		return fmt.Errorf("degraded response (%s)", resp.DegradedReason)
	}
	if got := lintAnswer(resp.Report); got != want {
		return fmt.Errorf("answer %q, want %q", got, want)
	}
	return nil
}

// libraryAnalyze computes a point's expected answer with direct library
// calls, outside any timed window. With a tracer it also times every
// layer of the model pipeline separately, as children of one
// replay.request span: the per-layer breakdown of a /v1/analyze miss.
func libraryAnalyze(p analyzePoint, tr *tracer, req int64) (string, error) {
	src := p.source()
	opts := repro.Options{Machine: repro.Paper48(), Threads: p.Threads, Chunk: p.Chunk}
	if tr == nil {
		prog, err := repro.Parse(src)
		if err != nil {
			return "", err
		}
		a, err := prog.Analyze(0, opts)
		if err != nil {
			return "", err
		}
		return analyzeAnswer(a.FSCases, a.Iterations, a.ChunkRuns, a.Threads, a.Chunk), nil
	}

	root := tr.begin(req, 0, "replay.request")
	defer root.end(0)
	s := tr.begin(req, root.id, "minic.parse")
	ast, err := minic.Parse(src)
	s.end(0)
	if err != nil {
		return "", err
	}
	s = tr.begin(req, root.id, "loopir.lower")
	unit, err := loopir.Lower(ast, loopir.LowerOptions{AllowNonAffine: true, SymbolicBounds: true})
	s.end(0)
	if err != nil {
		return "", err
	}
	nest, m := unit.Nests[0], machine.Paper48()
	s = tr.begin(req, root.id, "fsmodel.analyze")
	res, err := fsmodel.Analyze(nest, fsmodel.Options{Machine: m, NumThreads: p.Threads, Chunk: p.Chunk})
	if err != nil {
		s.end(0)
		return "", err
	}
	s.end(res.Accesses)
	s = tr.begin(req, root.id, "accessplan.compile")
	_, err = accessplan.Compile(nest, res.Plan, m.LineSize)
	s.end(0)
	if err != nil {
		return "", err
	}
	s = tr.begin(req, root.id, "costmodel.estimate")
	_, err = costmodel.Estimate(nest, m, res.Plan)
	s.end(0)
	if err != nil {
		return "", err
	}

	s = tr.begin(req, root.id, "repro.parse")
	prog, err := repro.Parse(src)
	s.end(0)
	if err != nil {
		return "", err
	}
	s = tr.begin(req, root.id, "repro.analyze")
	a, err := prog.Analyze(0, opts)
	s.end(0)
	if err != nil {
		return "", err
	}
	s = tr.begin(req, root.id, "repro.estimate_cost")
	_, err = prog.EstimateCost(0, opts)
	s.end(0)
	if err != nil {
		return "", err
	}
	if p.Recommend {
		s = tr.begin(req, root.id, "repro.recommend")
		_, err = prog.RecommendChunkCtx(context.Background(), 0, opts, nil)
		s.end(0)
		if err != nil {
			return "", err
		}
	}
	if got := analyzeAnswer(res.FSCases, res.Iterations, res.ChunkRunsTotal, res.Plan.NumThreads, res.Plan.Chunk); got != analyzeAnswer(a.FSCases, a.Iterations, a.ChunkRuns, a.Threads, a.Chunk) {
		return "", fmt.Errorf("fsmodel answer %q disagrees with repro's", got)
	}
	return analyzeAnswer(a.FSCases, a.Iterations, a.ChunkRuns, a.Threads, a.Chunk), nil
}

// libraryLint computes the expected lint answer the way fsserve and
// fslint do: parse, lower at the machine's line size, analyze. With a
// tracer each stage is a child span of parent (a new replay.request root
// when parent is 0).
func libraryLint(src string, mach *machine.Desc, threads int, chunk int64, tr *tracer, req int64, parent int) (string, error) {
	if parent == 0 && tr != nil {
		root := tr.begin(req, 0, "replay.request")
		defer root.end(0)
		parent = root.id
	}
	s := tr.begin(req, parent, "minic.parse")
	prog, err := minic.Parse(src)
	s.end(0)
	if err != nil {
		return "", err
	}
	s = tr.begin(req, parent, "loopir.lower")
	unit, err := loopir.Lower(prog, loopir.LowerOptions{LineSize: mach.LineSize, SymbolicBounds: true})
	s.end(0)
	if err != nil {
		return "", err
	}
	s = tr.begin(req, parent, "analysis.analyze")
	rep, err := analysis.Analyze(unit, analysis.Config{Machine: mach, Threads: threads, Chunk: chunk})
	s.end(0)
	if err != nil {
		return "", err
	}
	return lintAnswer(rep), nil
}

// expectedFile is a recorded answer table: input id → canonical answer.
// Seed is the seed whose inputs were recorded (0 when the table covers
// the workload's whole input space, independent of the seed).
type expectedFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed,omitempty"`
	Answers  map[string]string `json:"answers"`
}

func expectedPath(root, workload string) string {
	return filepath.Join(root, "perfbench", "expected", workload+".json")
}

func loadExpected(root, workload string) (map[string]string, error) {
	data, err := os.ReadFile(expectedPath(root, workload))
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(root, workload), err)
	}
	return f.Answers, nil
}

func writeExpected(root string, f expectedFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(root, f.Workload), append(data, '\n'), 0o644)
}

// fillExpected computes, on maxConns goroutines, the answer of every id
// in todo that want lacks, and adds it to want. It runs outside timed
// windows: these are the direct library calls answers are checked
// against when no recorded answer exists.
func fillExpected(want map[string]string, todo map[string]func() (string, error)) error {
	var ids []string
	for id := range todo {
		if _, ok := want[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	got := make([]string, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ids); i += maxConns {
				got[i], errs[i] = todo[ids[i]]()
			}
		}(w)
	}
	wg.Wait()
	for i, id := range ids {
		if errs[i] != nil {
			return fmt.Errorf("expected answer for %s: %w", id, errs[i])
		}
		want[id] = got[i]
	}
	return nil
}
