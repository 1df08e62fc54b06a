package tuner

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/costmodel"
	"repro/internal/fsmodel"
	"repro/internal/guard"
	"repro/internal/loopir"
	"repro/internal/minic"
	"repro/internal/sched"
	"repro/internal/transform"
)

// chunkSeeds is the power-of-two ladder the enumerator always considers;
// the closed-form FIX-CHUNK suggestion is added on top.
var chunkSeeds = []int64{2, 4, 8, 16, 32, 64, 128}

// scoredPlan carries one candidate through the pipeline: the transformed
// AST, its printed source (exactly what would be emitted), the lowered
// unit both tiers analyze, and the effective chunk override.
type scoredPlan struct {
	cand          Candidate
	prog          *minic.Program
	src           string
	unit          *loopir.Unit
	chunkOverride int64
	races         int // RC001 findings: true sharing the plan would create
	verifyErr     error
}

type search struct {
	prog    *minic.Program
	unit    *loopir.Unit
	opts    Options
	threads int
	npar    int64 // baseline parallel-loop trip count
}

func newSearch(prog *minic.Program, unit *loopir.Unit, opts Options) *search {
	nest := unit.Nests[opts.Nest]
	par := nest.Parallelized()
	threads := opts.Threads
	if threads <= 0 && par.Parallel.NumThreads > 0 {
		threads = par.Parallel.NumThreads
	}
	if threads <= 0 {
		threads = opts.Machine.Cores
	}
	npar, _ := par.ConstTripCount()
	return &search{prog: prog, unit: unit, opts: opts, threads: threads, npar: npar}
}

func (s *search) baselineChunk() int64 {
	if s.opts.Chunk > 0 {
		return s.opts.Chunk
	}
	nest := s.unit.Nests[s.opts.Nest]
	if c := nest.Parallelized().Parallel.Chunk; c > 0 {
		return c
	}
	if s.threads > 0 && s.npar > 0 {
		return (s.npar + int64(s.threads) - 1) / int64(s.threads) // block default
	}
	return 0
}

// enumerate builds the candidate plan space. Chunks that would leave
// threads idle (fewer chunks than threads) are excluded: the cost model
// does not price imbalance, so they would win on dispatch overhead while
// losing real parallelism. Illegal interchanges are recorded as
// rejections, and overflow past MaxCandidates is reported, not silent.
func (s *search) enumerate(res *Result) []Plan {
	nest := s.unit.Nests[s.opts.Nest]

	// Seed from the closed-form engine: skip enumeration entirely when
	// the nest is already statically clean, and adopt FIX-CHUNK's
	// verified suggestion when present.
	var suggested int64
	clean := true
	rep, err := analysis.Analyze(s.unit, analysis.Config{
		Machine: s.opts.Machine,
		Threads: s.opts.Threads,
		Chunk:   s.opts.Chunk,
	})
	if err != nil {
		res.Warnings = append(res.Warnings, fmt.Sprintf("closed-form seeding failed: %v", err))
		clean = false // cannot prove cleanliness; search anyway
	} else {
		for _, d := range rep.Diagnostics {
			if d.Nest != s.opts.Nest {
				continue
			}
			if fsFindingCode(d.Code) {
				clean = false
			}
			if d.Code == analysis.CodeFixChunk && d.SuggestedChunk > 0 {
				suggested = d.SuggestedChunk
			}
		}
	}
	if clean && err == nil {
		return nil // baseline verification will confirm the no-op
	}

	chunks := s.chunkList(s.npar, suggested)
	pads := s.padActions(nest)
	swaps := s.interchangeActions(res, nest)

	var plans []Plan
	for _, c := range chunks {
		plans = append(plans, Plan{Actions: []Action{c}})
	}
	for _, p := range pads {
		plans = append(plans, Plan{Actions: []Action{p}})
	}
	for _, sw := range swaps {
		plans = append(plans, Plan{Actions: []Action{sw}})
	}
	// Pairwise combinations: interchange changes the parallel trip count,
	// so its chunk ladder is recomputed for the post-swap loop.
	for _, sw := range swaps {
		for _, c := range s.chunkList(s.nparAfter(nest, sw), suggested) {
			plans = append(plans, Plan{Actions: []Action{sw, c}})
		}
	}
	for _, c := range chunks {
		for _, p := range pads {
			plans = append(plans, Plan{Actions: []Action{c, p}})
		}
	}
	for _, sw := range swaps {
		for _, p := range pads {
			plans = append(plans, Plan{Actions: []Action{sw, p}})
		}
	}
	if len(plans) > s.opts.MaxCandidates {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"candidate space %d exceeds max %d; dropping the last %d combination plans",
			len(plans), s.opts.MaxCandidates, len(plans)-s.opts.MaxCandidates))
		for _, p := range plans[s.opts.MaxCandidates:] {
			res.Rejected = append(res.Rejected, Rejection{PlanSummary: p.String(), Reason: "dropped: candidate cap"})
		}
		plans = plans[:s.opts.MaxCandidates]
	}
	return plans
}

// chunkList returns chunk actions for a parallel loop with npar trips:
// the power-of-two ladder plus the closed-form suggestion, keeping every
// thread busy (chunk*threads <= npar) and excluding the baseline chunk.
func (s *search) chunkList(npar, suggested int64) []Action {
	base := s.baselineChunk()
	seen := map[int64]bool{}
	var out []int64
	for _, c := range append(append([]int64{}, chunkSeeds...), suggested) {
		if c <= 0 || seen[c] || c == base {
			continue
		}
		if npar > 0 && c*int64(s.threads) > npar {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	acts := make([]Action, len(out))
	for i, c := range out {
		acts[i] = Action{Kind: ActionChunk, Chunk: c}
	}
	return acts
}

// padActions proposes one pad per struct that is written in the nest
// through an array-of-struct symbol and does not already end on a line
// boundary, in declaration order.
func (s *search) padActions(nest *loopir.Nest) []Action {
	written := map[string]bool{}
	for _, r := range nest.Refs {
		if !r.Write {
			continue
		}
		if st, ok := loopir.ElemType(r.Sym.Type).(*loopir.Struct); ok {
			written[st.Name] = true
		}
	}
	var acts []Action
	for _, sd := range s.prog.Structs {
		st, ok := s.unit.Structs[sd.Name]
		if !ok || !written[sd.Name] {
			continue
		}
		if rem := st.Size() % s.opts.Machine.LineSize; rem != 0 {
			acts = append(acts, Action{
				Kind:     ActionPad,
				Struct:   sd.Name,
				PadBytes: s.opts.Machine.LineSize - rem,
			})
		}
	}
	return acts
}

// interchangeActions proposes every legal level swap, recording illegal
// ones as rejections.
func (s *search) interchangeActions(res *Result, nest *loopir.Nest) []Action {
	var acts []Action
	for a := 0; a < len(nest.Loops); a++ {
		for b := a + 1; b < len(nest.Loops); b++ {
			act := Action{Kind: ActionInterchange, Outer: a, Inner: b}
			if err := transform.CanInterchange(s.unit, s.opts.Nest, a, b); err != nil {
				res.Rejected = append(res.Rejected, Rejection{
					PlanSummary: Plan{Actions: []Action{act}}.String(),
					Reason:      fmt.Sprintf("illegal: %v", err),
				})
				continue
			}
			acts = append(acts, act)
		}
	}
	return acts
}

// nparAfter returns the parallel-loop trip count after applying the given
// interchange: the pragma keeps its depth, so the trips are those of the
// loop header that moves into the parallel level.
func (s *search) nparAfter(nest *loopir.Nest, sw Action) int64 {
	level := nest.ParLevel
	switch level {
	case sw.Outer:
		level = sw.Inner
	case sw.Inner:
		level = sw.Outer
	default:
		return s.npar
	}
	t, _ := nest.Loops[level].ConstTripCount()
	return t
}

// score runs the fast tier over the baseline (empty plan) and every
// candidate: apply → print → re-parse → lower → closed-form FS count +
// Equation 1. Scoring the re-parsed print of each candidate means the
// numbers describe exactly the source that would be emitted.
func (s *search) score(res *Result, plans []Plan) (*scoredPlan, []*scoredPlan) {
	baseline, err := s.scoreOne(Plan{})
	if err != nil {
		res.Rejected = append(res.Rejected, Rejection{PlanSummary: "no-op", Reason: fmt.Sprintf("baseline scoring failed: %v", err)})
		return nil, nil
	}
	var scored []*scoredPlan
	for _, p := range plans {
		sp, err := s.scoreOne(p)
		if err != nil {
			res.Rejected = append(res.Rejected, Rejection{PlanSummary: p.String(), Reason: err.Error()})
			continue
		}
		// A transformation that is legal as a sequential reordering can
		// still move a dependence onto the parallel loop (interchange over
		// a reduction, say); the closed-form race check catches it.
		if sp.races > baseline.races {
			res.Rejected = append(res.Rejected, Rejection{
				PlanSummary: p.String(),
				Reason:      "unsound: plan introduces cross-thread element sharing (RC001)",
			})
			continue
		}
		scored = append(scored, sp)
		res.Candidates = append(res.Candidates, sp.cand)
	}
	return baseline, scored
}

func (s *search) scoreOne(p Plan) (*scoredPlan, error) {
	prog2, err := p.apply(s.prog, s.opts.Nest, s.opts.Machine.LineSize)
	if err != nil {
		return nil, err
	}
	src := minic.Print(prog2)
	reparsed, err := minic.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("transformed source does not re-parse: %w", err)
	}
	unit, err := lowerFor(reparsed, s.opts.Machine)
	if err != nil {
		return nil, fmt.Errorf("transformed source does not lower: %w", err)
	}
	if s.opts.Nest >= len(unit.Nests) {
		return nil, fmt.Errorf("transformed source lost nest %d", s.opts.Nest)
	}
	sp := &scoredPlan{
		cand: Candidate{Plan: p, PlanSummary: p.String()},
		prog: prog2,
		src:  src,
		unit: unit,
	}
	if !p.hasChunk() {
		sp.chunkOverride = s.opts.Chunk
	}

	rep, err := analysis.Analyze(unit, analysis.Config{
		Machine:   s.opts.Machine,
		Threads:   s.opts.Threads,
		Chunk:     sp.chunkOverride,
		NoSuggest: true,
	})
	if err != nil {
		return nil, fmt.Errorf("closed-form analysis: %w", err)
	}
	for _, d := range rep.Diagnostics {
		if d.Nest != s.opts.Nest || !fsFindingCode(d.Code) {
			continue
		}
		sp.cand.ClosedFormFindings++
		switch d.Code {
		case analysis.CodeFSWrite:
			sp.cand.ClosedFormFS += d.Straddles
		case analysis.CodeRace:
			sp.races++
		}
	}

	nest := unit.Nests[s.opts.Nest]
	plan, err := s.resolvePlan(nest, sp.chunkOverride)
	if err != nil {
		return nil, err
	}
	base, err := costmodel.Estimate(nest, s.opts.Machine, plan)
	if err != nil {
		return nil, fmt.Errorf("cost model: %w", err)
	}
	sp.cand.PredictedCycles = base.TotalWithFS(sp.cand.ClosedFormFS, s.opts.Machine, plan.NumThreads)
	return sp, nil
}

// resolvePlan mirrors fsmodel's schedule resolution (explicit override,
// else pragma, else defaults) so fast-tier cycles are comparable to the
// exact tier's.
func (s *search) resolvePlan(nest *loopir.Nest, chunkOverride int64) (sched.Plan, error) {
	par := nest.Parallelized()
	if par == nil {
		return sched.Plan{}, fmt.Errorf("transformed nest %d is sequential", s.opts.Nest)
	}
	kind, err := sched.KindFromString(par.Parallel.Schedule)
	if err != nil {
		return sched.Plan{}, err
	}
	chunk := chunkOverride
	if chunk <= 0 && par.Parallel.Chunk > 0 {
		chunk = par.Parallel.Chunk
	}
	trip, _ := par.ConstTripCount()
	return sched.Resolve(kind, s.threads, chunk, trip)
}

// prune keeps the Beam best candidates by predicted cycles (ties: fewer
// actions, then summary), rejecting the rest.
func (s *search) prune(res *Result, scored []*scoredPlan) []*scoredPlan {
	sort.SliceStable(scored, func(i, j int) bool {
		a, b := scored[i], scored[j]
		if a.cand.PredictedCycles != b.cand.PredictedCycles {
			return a.cand.PredictedCycles < b.cand.PredictedCycles
		}
		if len(a.cand.Plan.Actions) != len(b.cand.Plan.Actions) {
			return len(a.cand.Plan.Actions) < len(b.cand.Plan.Actions)
		}
		return a.cand.PlanSummary < b.cand.PlanSummary
	})
	if len(scored) <= s.opts.Beam {
		return scored
	}
	for _, sp := range scored[s.opts.Beam:] {
		res.Rejected = append(res.Rejected, Rejection{
			PlanSummary: sp.cand.PlanSummary,
			Reason:      fmt.Sprintf("pruned by beam (predicted %.0f cycles)", sp.cand.PredictedCycles),
		})
	}
	return scored[:s.opts.Beam]
}

// verify runs the exact tier on one candidate: the fsmodel simulator
// under the budget (panic-isolated), then Equation 1 with the simulated
// FS count. Failures land in verifyErr; the decision stage turns them
// into rejections (or a tuner error, for the baseline).
func (s *search) verify(ctx context.Context, sp *scoredPlan) {
	nest := sp.unit.Nests[s.opts.Nest]
	simRes, err := guard.Do1(func() (*fsmodel.Result, error) {
		return fsmodel.Analyze(nest, fsmodel.Options{
			Machine:     s.opts.Machine,
			NumThreads:  s.opts.Threads,
			Chunk:       sp.chunkOverride,
			Extrapolate: s.opts.Extrapolate,
			Budget:      budgetUnder(ctx, s.opts.Budget),
		})
	})
	if err != nil {
		sp.verifyErr = err
		return
	}
	base, err := costmodel.Estimate(nest, s.opts.Machine, simRes.Plan)
	if err != nil {
		sp.verifyErr = err
		return
	}
	sp.cand.Verified = true
	sp.cand.SimulatedFS = simRes.FSCases
	sp.cand.SimulatedCycles = base.TotalWithFS(simRes.FSCases, s.opts.Machine, simRes.Plan.NumThreads)
	sp.cand.FSDelta = simRes.FSCases - sp.cand.ClosedFormFS
}

// budgetUnder merges the context deadline into the configured budget so
// a caller timeout stops simulations mid-run.
func budgetUnder(ctx context.Context, b guard.Budget) guard.Budget {
	if dl, ok := ctx.Deadline(); ok && (b.Deadline.IsZero() || dl.Before(b.Deadline)) {
		b.Deadline = dl
	}
	return b
}

// decide picks the winner among verified finalists: a plan must strictly
// reduce the baseline's simulated FS count to be eligible; fully clean
// plans (simulated FS = 0) outrank partial reductions; within a group the
// cheapest simulated cycles win (ties: fewer actions, then summary). A
// baseline already at zero FS — or an empty eligible set — yields the
// verified no-op.
func (s *search) decide(res *Result, baseline *scoredPlan, finalists []*scoredPlan) *scoredPlan {
	baseFS := baseline.cand.SimulatedFS
	var eligible []*scoredPlan
	for _, sp := range finalists {
		switch {
		case sp.verifyErr != nil:
			res.Rejected = append(res.Rejected, Rejection{
				PlanSummary: sp.cand.PlanSummary,
				Reason:      fmt.Sprintf("verification failed: %v", sp.verifyErr),
			})
		case baseFS == 0:
			res.Rejected = append(res.Rejected, Rejection{
				PlanSummary: sp.cand.PlanSummary,
				Reason:      "input already free of simulated false sharing",
			})
		case sp.cand.SimulatedFS >= baseFS:
			res.Rejected = append(res.Rejected, Rejection{
				PlanSummary: sp.cand.PlanSummary,
				Reason: fmt.Sprintf("verification: simulated FS %d does not improve baseline %d",
					sp.cand.SimulatedFS, baseFS),
			})
		default:
			eligible = append(eligible, sp)
		}
	}
	if baseFS == 0 {
		return baseline
	}
	if len(eligible) == 0 {
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("no verified candidate improved on the input's %d simulated FS cases; emitting a no-op", baseFS))
		return baseline
	}
	sort.SliceStable(eligible, func(i, j int) bool {
		a, b := eligible[i], eligible[j]
		ac, bc := a.cand.SimulatedFS == 0, b.cand.SimulatedFS == 0
		if ac != bc {
			return ac
		}
		if a.cand.SimulatedCycles != b.cand.SimulatedCycles {
			return a.cand.SimulatedCycles < b.cand.SimulatedCycles
		}
		if len(a.cand.Plan.Actions) != len(b.cand.Plan.Actions) {
			return len(a.cand.Plan.Actions) < len(b.cand.Plan.Actions)
		}
		return a.cand.PlanSummary < b.cand.PlanSummary
	})
	winner := eligible[0]
	for _, sp := range eligible[1:] {
		res.Rejected = append(res.Rejected, Rejection{
			PlanSummary: sp.cand.PlanSummary,
			Reason: fmt.Sprintf("outscored by %s (%.0f vs %.0f simulated cycles)",
				winner.cand.PlanSummary, winner.cand.SimulatedCycles, sp.cand.SimulatedCycles),
		})
	}
	return winner
}

// PhaseSeconds returns the named phase's duration for the service's
// labeled search-phase histogram, zero if absent.
func (r *Result) PhaseSeconds(name string) float64 {
	for _, p := range r.Phases {
		if p.Name == name {
			return p.Seconds
		}
	}
	return 0
}
