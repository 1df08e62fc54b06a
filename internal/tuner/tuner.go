// Package tuner is the search-based optimization planner the paper's
// compiler integration points toward: it enumerates composable
// transformation plans for a parallel loop nest (schedule chunk resize,
// struct padding, loop interchange, and combinations), scores every
// candidate with the closed-form FS count plus the Equation 1 cost model
// (the fast tier), prunes with a beam, verifies the surviving finalists
// against the fsmodel simulator under a resource budget (the exact tier),
// and applies the winning plan to the AST, emitting compilable
// transformed C via the minic printer together with a machine-readable
// report of every candidate considered and every plan rejected.
package tuner

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/guard"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/sweep"
)

// Options configures one tuning run.
type Options struct {
	// Machine is the modeled target (nil = machine.Paper48()).
	Machine *machine.Desc
	// Threads overrides the team size (0 = pragma, else machine cores).
	Threads int
	// Chunk overrides the baseline schedule chunk (0 = pragma, else the
	// OpenMP block default). Candidate plans that rewrite the schedule
	// clause are evaluated without this override.
	Chunk int64
	// Nest selects the loop nest to tune (index into the lowered unit).
	Nest int
	// Beam is how many top fast-tier candidates reach simulator
	// verification (0 = default 4).
	Beam int
	// MaxCandidates caps the enumerated search space (0 = default 32);
	// overflow is reported in Result.Warnings, never silently dropped.
	MaxCandidates int
	// Jobs bounds verification parallelism (0 = GOMAXPROCS).
	Jobs int
	// Extrapolate enables steady-state chunk-run extrapolation.
	Extrapolate bool
	// Budget bounds each simulator verification (zero = unlimited).
	Budget guard.Budget
	// KeepHeader carries the source's leading comment block into the
	// emitted transformed source.
	KeepHeader bool
}

func (o Options) withDefaults() Options {
	if o.Machine == nil {
		o.Machine = machine.Paper48()
	}
	if o.Beam <= 0 {
		o.Beam = 4
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 32
	}
	return o
}

// InputError marks a tuning failure caused by the input (unparsable
// source, bad nest index, sequential nest, symbolic bounds) rather than
// by the tuner; services map it to a 400.
type InputError struct{ Msg string }

func (e *InputError) Error() string { return e.Msg }

func inputErrf(format string, args ...any) error {
	return &InputError{Msg: fmt.Sprintf(format, args...)}
}

// Candidate is one scored plan. Fast-tier fields are always set;
// simulator fields only when Verified.
type Candidate struct {
	Plan        Plan   `json:"plan"`
	PlanSummary string `json:"plan_summary"`
	// ClosedFormFS is the fast tier's FS estimate: the sum of FS001
	// straddle counts for the nest. ClosedFormFindings counts all FS/race
	// findings (FS001, FS002, RC001), so zero means statically clean.
	ClosedFormFS       int64 `json:"closed_form_fs"`
	ClosedFormFindings int   `json:"closed_form_findings"`
	// PredictedCycles is Equation 1's Total_c with the closed-form FS
	// count substituted for the simulated one.
	PredictedCycles float64 `json:"predicted_cycles"`
	// Verified marks finalists that ran the exact tier.
	Verified        bool    `json:"verified"`
	SimulatedFS     int64   `json:"simulated_fs,omitempty"`
	SimulatedCycles float64 `json:"simulated_cycles,omitempty"`
	// FSDelta is SimulatedFS - ClosedFormFS for verified candidates: the
	// fast tier's prediction error on this plan.
	FSDelta int64 `json:"fs_delta,omitempty"`
}

// Rejection records a plan that left the search with the reason why
// (illegal transformation, failed application, beam pruning, failed or
// unimproving verification).
type Rejection struct {
	PlanSummary string `json:"plan_summary"`
	Reason      string `json:"reason"`
}

// Phase is one timed search stage, for the service's labeled histogram.
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Result is the full tuning report.
type Result struct {
	Nest    int    `json:"nest"`
	Machine string `json:"machine"`
	// Threads and BaselineChunk echo the resolved baseline schedule.
	Threads       int   `json:"threads"`
	BaselineChunk int64 `json:"baseline_chunk"`
	// Plan is the chosen plan (empty = no-op); NoOp additionally marks
	// that the input needed no transformation (its simulated FS was
	// already zero) or that no candidate improved on it (see Warnings).
	Plan        Plan   `json:"plan"`
	PlanSummary string `json:"plan_summary"`
	NoOp        bool   `json:"no_op"`
	// Source is the emitted transformed program (the input program
	// re-printed when NoOp).
	Source string `json:"source"`
	// Baseline and Chosen are both simulator-verified.
	Baseline Candidate `json:"baseline"`
	Chosen   Candidate `json:"chosen"`
	// Candidates lists every plan that was fast-tier scored, in scoring
	// order; Rejected every plan that left the search, with reasons.
	Candidates []Candidate `json:"candidates,omitempty"`
	Rejected   []Rejection `json:"rejected,omitempty"`
	Phases     []Phase     `json:"phases"`
	Warnings   []string    `json:"warnings,omitempty"`
}

// Tune searches for the best transformation plan for one nest of src and
// returns the report plus transformed source. Budget violations, panics
// and context cancellation during baseline verification surface as
// errors (services degrade on them); per-candidate failures become
// Rejections instead.
func Tune(ctx context.Context, src string, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, inputErrf("parse: %v", err)
	}
	unit, err := lowerFor(prog, opts.Machine)
	if err != nil {
		return nil, inputErrf("lower: %v", err)
	}
	if opts.Nest < 0 || opts.Nest >= len(unit.Nests) {
		return nil, inputErrf("nest index %d out of range (%d nests)", opts.Nest, len(unit.Nests))
	}
	nest := unit.Nests[opts.Nest]
	par := nest.Parallelized()
	if par == nil {
		return nil, inputErrf("nest %d is sequential; tuning targets parallel nests", opts.Nest)
	}
	if len(nest.Params()) > 0 {
		return nil, inputErrf("nest %d has symbolic loop bounds %v; tuning requires constant trip counts", opts.Nest, nest.Params())
	}

	s := newSearch(prog, unit, opts)
	res := &Result{
		Nest:          opts.Nest,
		Machine:       opts.Machine.Name,
		Threads:       s.threads,
		BaselineChunk: s.baselineChunk(),
	}

	// Phase 1: enumerate the plan space (closed-form suggestions seed it).
	start := time.Now()
	plans := s.enumerate(res)
	res.Phases = append(res.Phases, Phase{Name: "enumerate", Seconds: time.Since(start).Seconds()})

	// Phase 2: fast tier — score every plan with closed-form FS + Eq. 1.
	start = time.Now()
	baseline, scored := s.score(res, plans)
	if baseline == nil {
		return nil, fmt.Errorf("tuner: baseline program failed fast-tier scoring (see rejections)")
	}
	res.Phases = append(res.Phases, Phase{Name: "score", Seconds: time.Since(start).Seconds()})

	// Phase 3: beam prune, then exact tier — simulator verification of
	// the finalists (and the baseline) under the budget, fanned out.
	start = time.Now()
	finalists := s.prune(res, scored)
	verify := append([]*scoredPlan{baseline}, finalists...)
	if _, err := sweep.Run(ctx, len(verify), opts.Jobs, func(ctx context.Context, i int) (struct{}, error) {
		s.verify(ctx, verify[i])
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	if baseline.verifyErr != nil {
		return nil, fmt.Errorf("tuner: baseline verification: %w", baseline.verifyErr)
	}
	res.Phases = append(res.Phases, Phase{Name: "verify", Seconds: time.Since(start).Seconds()})
	res.Baseline = baseline.cand
	for _, sp := range finalists {
		res.Candidates = appendUpdated(res.Candidates, sp.cand)
	}

	// Phase 4: decide and apply — pick the winner, re-print with the
	// preserved header.
	start = time.Now()
	winner := s.decide(res, baseline, finalists)
	var header string
	if opts.KeepHeader {
		header = minic.LeadingComments(src)
	}
	res.Source = minic.PrintOpts(winner.prog, minic.PrintOptions{Header: header})
	res.Plan = winner.cand.Plan
	res.PlanSummary = winner.cand.PlanSummary
	res.Chosen = winner.cand
	res.NoOp = winner.cand.Plan.IsNoOp()
	res.Phases = append(res.Phases, Phase{Name: "apply", Seconds: time.Since(start).Seconds()})
	return res, nil
}

// lowerFor lowers with the machine's line size, tolerating non-affine
// refs (the simulator skips them) and symbolic bounds (rejected later
// with a precise message).
func lowerFor(prog *minic.Program, m *machine.Desc) (*loopir.Unit, error) {
	return loopir.Lower(prog, loopir.LowerOptions{
		LineSize:       m.LineSize,
		AllowNonAffine: true,
		SymbolicBounds: true,
	})
}

// appendUpdated replaces the matching-summary entry (scored earlier in
// Candidates) with its verified version, appending if absent.
func appendUpdated(cands []Candidate, c Candidate) []Candidate {
	for i := range cands {
		if cands[i].PlanSummary == c.PlanSummary {
			cands[i] = c
			return cands
		}
	}
	return append(cands, c)
}

// severity ordering helper shared with the service layer.
func fsFindingCode(code string) bool {
	return code == analysis.CodeFSWrite || code == analysis.CodeFSPair || code == analysis.CodeRace
}
