package fsmodel

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/guard"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
)

// machineWithLine clones Paper48 with a different cache-line size, the
// second axis of the differential matrix.
func machineWithLine(t *testing.T, line int64) *machine.Desc {
	t.Helper()
	d := *machine.Paper48()
	d.Name = fmt.Sprintf("paper48-l%d", line)
	d.LineSize = line
	d.L1.LineSize = line
	d.L2.LineSize = line
	d.L3.LineSize = line
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return &d
}

// requireSameEval compares every externally observable field of an
// oracle run and a production run (except the extrapolation echo fields,
// which only the production executor can set).
func requireSameEval(t *testing.T, label string, oracle, comp *Result) {
	t.Helper()
	type counters struct {
		FSCases, Invalidations, Iterations, Steps, Accesses int64
		ColdMisses, CapacityEvictions                       int64
		ChunkRunsEvaluated, ChunkRunsTotal                  int64
		Truncated                                           bool
	}
	i := counters{oracle.FSCases, oracle.Invalidations, oracle.Iterations, oracle.Steps, oracle.Accesses,
		oracle.ColdMisses, oracle.CapacityEvictions, oracle.ChunkRunsEvaluated, oracle.ChunkRunsTotal, oracle.Truncated}
	c := counters{comp.FSCases, comp.Invalidations, comp.Iterations, comp.Steps, comp.Accesses,
		comp.ColdMisses, comp.CapacityEvictions, comp.ChunkRunsEvaluated, comp.ChunkRunsTotal, comp.Truncated}
	if i != c {
		t.Fatalf("%s: counters differ:\noracle:   %+v\ncompiled: %+v", label, i, c)
	}
	if !reflect.DeepEqual(oracle.PerRun, comp.PerRun) {
		t.Fatalf("%s: PerRun differs:\noracle:   %v\ncompiled: %v", label, oracle.PerRun, comp.PerRun)
	}
	if !reflect.DeepEqual(oracle.ByRef, comp.ByRef) {
		t.Fatalf("%s: ByRef differs:\noracle:   %+v\ncompiled: %+v", label, oracle.ByRef, comp.ByRef)
	}
	if !reflect.DeepEqual(oracle.hotLines, comp.hotLines) {
		t.Fatalf("%s: hot lines differ:\noracle:   %v\ncompiled: %v", label, oracle.hotLines, comp.hotLines)
	}
}

// analyzeBothEvals runs the same options through the reference oracle and
// through Analyze.
func analyzeBothEvals(t *testing.T, label string, nest *loopir.Nest, opts Options) (*Result, *Result) {
	t.Helper()
	oracle, err := analyzeOracle(nest, opts)
	if err != nil {
		t.Fatalf("%s oracle: %v", label, err)
	}
	comp, err := Analyze(nest, opts)
	if err != nil {
		t.Fatalf("%s compiled: %v", label, err)
	}
	return oracle, comp
}

// TestCompiledMatchesInterpretedKernels is the tentpole's golden gate: on
// every paper kernel, at chunks {1, 2, 8, L/8} and line sizes {64, 128},
// under both counting modes, with per-run recording and hot-line tracking
// on, the compiled access-run executor and the per-iteration reference
// oracle produce identical results in every field.
func TestCompiledMatchesInterpretedKernels(t *testing.T) {
	nests := goldenKernels(t)
	for _, line := range []int64{64, 128} {
		m := machineWithLine(t, line)
		chunks := []int64{1, 2, 8}
		if line/8 != 8 {
			chunks = append(chunks, line/8)
		}
		for name, nest := range nests {
			for _, chunk := range chunks {
				for _, mode := range []CountingMode{CountPaperPhi, CountMESI} {
					label := fmt.Sprintf("%s line=%d chunk=%d mode=%v", name, line, chunk, mode)
					opts := Options{
						Machine: m, NumThreads: 8, Chunk: chunk,
						Counting: mode, RecordPerRun: true, TrackHotLines: true,
					}
					interp, comp := analyzeBothEvals(t, label, nest, opts)
					requireSameEval(t, label, interp, comp)
				}
			}
		}
	}
}

// TestCompiledMatchesInterpretedSmallStack repeats the cross-check where
// capacity evictions dominate, on both state representations: the
// compiled executor must drive the map directory exactly like the dense
// one.
func TestCompiledMatchesInterpretedSmallStack(t *testing.T) {
	nests := goldenKernels(t)
	for name, nest := range nests {
		for _, depth := range []int{1, 2, 7} {
			for _, forceMap := range []bool{false, true} {
				label := fmt.Sprintf("%s depth=%d map=%t", name, depth, forceMap)
				opts := Options{
					Machine: machine.Paper48(), NumThreads: 4, Chunk: 1,
					StackDepth: depth, Counting: CountMESI, forceMap: forceMap,
					RecordPerRun: true, TrackHotLines: true,
				}
				interp, comp := analyzeBothEvals(t, label, nest, opts)
				requireSameEval(t, label, interp, comp)
			}
		}
	}
}

// corpusNests parses every mini-C source under testdata/ and
// examples/lint/ and returns each of its loop nests.
func corpusNests(t *testing.T) map[string]*loopir.Nest {
	t.Helper()
	out := map[string]*loopir.Nest{}
	for _, dir := range []string{"../../testdata", "../../examples/lint"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if filepath.Ext(e.Name()) != ".c" {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := minic.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: parse: %v", e.Name(), err)
			}
			unit, err := loopir.Lower(prog, loopir.LowerOptions{AllowNonAffine: true, SymbolicBounds: true})
			if err != nil {
				t.Fatalf("%s: lower: %v", e.Name(), err)
			}
			for i, n := range unit.Nests {
				out[fmt.Sprintf("%s#%d", e.Name(), i)] = n
			}
		}
	}
	return out
}

// TestCompiledMatchesInterpretedCorpus runs the differential gate over
// every nest in the repository's source corpus. Nests the oracle rejects
// (symbolic bounds, no parallel loop) must be rejected by Analyze
// identically; every nest it accepts must produce identical counters
// compiled.
func TestCompiledMatchesInterpretedCorpus(t *testing.T) {
	for _, chunk := range []int64{1, 8} {
		for label, nest := range corpusNests(t) {
			opts := Options{Machine: machine.Paper48(), NumThreads: 8, Chunk: chunk,
				Counting: CountMESI, RecordPerRun: true}
			interp, ierr := analyzeOracle(nest, opts)
			auto, aerr := Analyze(nest, opts)
			if (ierr == nil) != (aerr == nil) {
				t.Fatalf("%s chunk=%d: oracle err=%v, compiled err=%v", label, chunk, ierr, aerr)
			}
			if ierr != nil {
				continue
			}
			if interp.FSCases != auto.FSCases || interp.Accesses != auto.Accesses ||
				interp.Iterations != auto.Iterations || interp.Steps != auto.Steps ||
				interp.ColdMisses != auto.ColdMisses || interp.CapacityEvictions != auto.CapacityEvictions ||
				interp.Invalidations != auto.Invalidations {
				t.Fatalf("%s chunk=%d: counters differ:\noracle:   %+v\ncompiled: %+v",
					label, chunk, interp, auto)
			}
			if !reflect.DeepEqual(interp.PerRun, auto.PerRun) {
				t.Fatalf("%s chunk=%d: PerRun differs", label, chunk)
			}
			if !reflect.DeepEqual(interp.ByRef, auto.ByRef) {
				t.Fatalf("%s chunk=%d: ByRef differs", label, chunk)
			}
		}
	}
}

// TestBudgetStopsIdenticalAcrossEvals pins the run-batching budget
// contract: the compiled executor amortizes its budget checks at the
// same exact access boundaries as the oracle's per-access checks, so a
// tripped MaxSteps budget reports the identical Used count under both
// evaluators, and the overshoot stays within one check interval.
func TestBudgetStopsIdenticalAcrossEvals(t *testing.T) {
	kern, err := kernels.Heat(16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Machine: machine.Paper48(), NumThreads: 8, Chunk: 1}
	full, err := Analyze(kern.Nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Budget = guard.Budget{MaxSteps: full.Accesses / 2}
	var used [2]int64
	for i, eval := range []struct {
		name string
		fn   func(*loopir.Nest, Options) (*Result, error)
	}{{"oracle", analyzeOracle}, {"compiled", Analyze}} {
		_, err := eval.fn(kern.Nest, opts)
		var be *guard.BudgetError
		if !errors.As(err, &be) || be.Resource != "steps" {
			t.Fatalf("%s: err = %v, want *guard.BudgetError{steps}", eval.name, err)
		}
		if be.Used <= be.Limit || be.Used > be.Limit+budgetCheckEvery {
			t.Fatalf("%s: stopped at %d for limit %d (interval %d)", eval.name, be.Used, be.Limit, budgetCheckEvery)
		}
		used[i] = be.Used
	}
	if used[0] != used[1] {
		t.Fatalf("evaluators stopped at different access counts: oracle %d, compiled %d", used[0], used[1])
	}
}
