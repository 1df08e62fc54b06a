// Package repro is the public API of the reproduction of "Compile-Time
// Detection of False Sharing via Loop Cost Modeling" (Tolubaeva, Yan,
// Chapman; IPDPS Workshops 2012).
//
// The package analyzes OpenMP-style parallel loop nests written in a small
// C subset and, entirely at compile time (no execution of the loop),
//
//   - counts the false-sharing (FS) cases the loop will incur under a
//     given thread count and schedule(static,chunk) clause,
//   - expresses the FS overhead as a share of the loop's modeled
//     execution time (the paper's Equation 5), and
//   - predicts the FS total from a short prefix of "chunk runs" via
//     least-squares linear regression (the paper's Section III-E).
//
// A MESI cache-coherent multicore simulator is included as the "measured
// execution" reference, and Open64-style processor/cache/TLB/parallel cost
// models supply the time normalization.
//
// # Quick start
//
//	prog, err := repro.Parse(src)          // mini-C with #pragma omp
//	rep, err := prog.Analyze(0, repro.Options{Threads: 8, Chunk: 1})
//	fmt.Println(rep.FSCases, rep.FSShare)
//
// See examples/ for complete programs and cmd/fsrepro for the harness that
// regenerates every table and figure of the paper.
package repro

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/fsmodel"
	"repro/internal/guard"
	"repro/internal/interp"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/transform"
)

// Machine identifies a modeled target machine.
type Machine struct {
	desc *machine.Desc
}

// Paper48 is the paper's evaluation platform: four 12-core 2.2 GHz
// processors, 64 KB L1 + 512 KB L2 per core, 10 MB L3 per socket, 64-byte
// lines.
func Paper48() Machine { return Machine{desc: machine.Paper48()} }

// SmallTest is a tiny 4-core machine with small caches, useful for
// demonstrating capacity effects quickly.
func SmallTest() Machine { return Machine{desc: machine.SmallTest()} }

// Modern16 is a contemporary single-socket 16-core machine with larger
// caches and faster coherence, for checking conclusions beyond the
// paper's 2012 hardware.
func Modern16() Machine { return Machine{desc: machine.Modern16()} }

// MachineNames lists the names accepted by MachineByName.
func MachineNames() []string { return []string{"paper48", "smalltest", "modern16"} }

// MachineByName resolves a machine by its name ("paper48", "smalltest",
// "modern16"), the form configuration files and network requests carry.
func MachineByName(name string) (Machine, error) {
	switch name {
	case "", "paper48":
		return Paper48(), nil
	case "smalltest":
		return SmallTest(), nil
	case "modern16":
		return Modern16(), nil
	}
	return Machine{}, fmt.Errorf("repro: unknown machine %q (valid machines: %s)", name, strings.Join(MachineNames(), ", "))
}

// Name returns the machine's name.
func (m Machine) Name() string {
	if m.desc == nil {
		return "paper48"
	}
	return m.desc.Name
}

// Cores returns the machine's core count.
func (m Machine) Cores() int {
	if m.desc == nil {
		return machine.Paper48().Cores
	}
	return m.desc.Cores
}

func (m Machine) resolve() *machine.Desc {
	if m.desc == nil {
		return machine.Paper48()
	}
	return m.desc
}

// Options configures analysis, prediction and simulation.
type Options struct {
	// Machine defaults to Paper48.
	Machine Machine
	// Threads is the OpenMP team size (pragma num_threads wins if set in
	// the source). Defaults to the machine's core count.
	Threads int
	// Chunk is the schedule(static,chunk) chunk size (pragma wins if the
	// source specifies one). 0 selects the OpenMP default block schedule.
	Chunk int64
	// MESICounting switches FS detection from the paper's ϕ function to
	// write-invalidate-faithful counting.
	MESICounting bool
	// StackDepth bounds each thread's modeled cache state in lines
	// (0 = the machine's private cache capacity; negative = unbounded).
	StackDepth int
	// BusContention enables the simulator's shared-bus interference
	// model (the paper's future-work extension). It does not affect the
	// compile-time FS model.
	BusContention bool
	// TrackHotLines additionally attributes FS cases to individual cache
	// lines (Analysis.HotLines).
	TrackHotLines bool
	// Jobs bounds the worker pool used when an operation evaluates many
	// independent analysis points (RecommendChunk's candidate sweep);
	// <= 0 selects GOMAXPROCS. Results are identical for every value.
	Jobs int
	// Budget bounds the resources a model evaluation may consume (zero =
	// unlimited). A tripped budget surfaces as an error matching
	// guard.ErrBudgetExceeded; the stop point is deterministic for a
	// given input (step counts, not wall time, trigger the amortized
	// checks — the Deadline dimension alone depends on the clock). A
	// budget never changes the result of a run it does not abort.
	Budget guard.Budget
	// Extrapolate lets eligible uniform loops stop simulating once their
	// per-chunk-run counter deltas are provably periodic and close the
	// remaining runs arithmetically. Exact (the differential suite
	// asserts equality with full simulation); ineligible or never-
	// periodic runs silently fall back to full simulation.
	Extrapolate bool
}

// CanonicalKey returns a deterministic, unambiguous encoding of every
// option field that can affect an analysis result. Two Options values with
// equal keys produce identical results from Analyze, AnalyzeRate, Predict,
// Simulate, EstimateCost, RecommendChunk and EvaluatePadding, so the key
// (combined with the source text) is a sound content address for caching
// model results. Jobs is deliberately excluded: it changes only how work
// is scheduled, never what is computed. Budget is excluded for the same
// reason: it can only abort a run, never alter the values a completed
// run computes, and aborted runs are never cached.
func (o Options) CanonicalKey() string {
	return fmt.Sprintf("machine=%s;threads=%d;chunk=%d;mesi=%t;stackdepth=%d;bus=%t;hotlines=%t;extrap=%t",
		o.Machine.Name(), o.Threads, o.Chunk, o.MESICounting, o.StackDepth, o.BusContention, o.TrackHotLines,
		o.Extrapolate)
}

// model returns the FS model options o selects. Hot-line attribution is
// left off: only Analyze reports it, so only Analyze asks for it.
func (o Options) model() fsmodel.Options {
	counting := fsmodel.CountPaperPhi
	if o.MESICounting {
		counting = fsmodel.CountMESI
	}
	return fsmodel.Options{
		Machine:     o.Machine.resolve(),
		NumThreads:  o.Threads,
		Chunk:       o.Chunk,
		StackDepth:  o.StackDepth,
		Counting:    counting,
		Budget:      o.Budget,
		Extrapolate: o.Extrapolate,
	}
}

// Program is a parsed and lowered mini-C translation unit.
type Program struct {
	unit *loopir.Unit
}

// Parse parses and lowers mini-C source text. References with non-affine
// subscripts are recorded as warnings and excluded from modeling, like a
// compiler marking a loop "not analyzable".
func Parse(src string) (*Program, error) {
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	unit, err := loopir.Lower(prog, loopir.LowerOptions{AllowNonAffine: true, SymbolicBounds: true})
	if err != nil {
		return nil, err
	}
	return &Program{unit: unit}, nil
}

// NumNests returns the number of top-level loop nests in the program.
func (p *Program) NumNests() int { return len(p.unit.Nests) }

// Warnings returns lowering diagnostics (e.g. excluded non-affine
// references).
func (p *Program) Warnings() []string { return p.unit.Warnings }

// NestInfo describes one loop nest.
type NestInfo struct {
	Depth         int
	Vars          []string
	ParallelLevel int // 0 = outermost; -1 = sequential
	References    int
	Iterations    int64 // 0 if bounds are not compile-time constants
	Description   string
	// SymbolicParams lists loop-bound identifiers unknown at compile time
	// (e.g. a runtime "n"); such nests are analyzed with AnalyzeRate.
	SymbolicParams []string
}

// Nest returns information about nest i.
func (p *Program) Nest(i int) (NestInfo, error) {
	n, err := p.nest(i)
	if err != nil {
		return NestInfo{}, err
	}
	total, _ := n.TotalIterations()
	info := NestInfo{
		Depth:         n.Depth(),
		Vars:          n.Vars(),
		ParallelLevel: n.ParLevel,
		References:    len(n.Refs),
		Iterations:    total,
		Description:   n.String(),
	}
	for _, p := range n.Params() {
		info.SymbolicParams = append(info.SymbolicParams, p[1:])
	}
	return info, nil
}

func (p *Program) nest(i int) (*loopir.Nest, error) {
	if i < 0 || i >= len(p.unit.Nests) {
		return nil, fmt.Errorf("repro: nest index %d out of range (program has %d)", i, len(p.unit.Nests))
	}
	return p.unit.Nests[i], nil
}

// Analysis is the result of the compile-time FS cost model on one nest.
type Analysis struct {
	// FSCases is the modeled total number of false-sharing cases.
	FSCases int64
	// FSShare is the modeled fraction of loop execution time lost to
	// false sharing (Equation 1's FS term over Total_c, in the aggregate
	// form of costmodel.Breakdown.FSShare).
	FSShare float64
	// TotalCycles is Equation 1's Total_c in wall cycles: the base cost
	// models plus the FS term, as EstimateCost reports TotalWallCycles.
	TotalCycles float64
	// CostErr is set when the base cost models cannot price the nest
	// (e.g. an inner bound that depends on an outer loop variable); the
	// FS results stand, FSShare and TotalCycles are 0, and EstimateCost
	// fails with this error.
	CostErr error
	// Iterations is the total innermost-loop iterations; FSPerIteration
	// is the FS density.
	Iterations     int64
	FSPerIteration float64
	// ChunkRuns is the loop's total number of team cycles (x_max).
	ChunkRuns int64
	// Threads and Chunk echo the resolved schedule.
	Threads int
	Chunk   int64
	// SkippedRefs lists references excluded from modeling.
	SkippedRefs []string
	// Victims attributes the FS cases to source references, worst first —
	// the "which data structure is the victim" answer the paper motivates.
	Victims []Victim
	// HotLines lists the most-contended cache lines (top 10), present when
	// Options.TrackHotLines is set.
	HotLines []HotLine
	// Extrapolated reports that the steady-state closure produced the
	// totals from a simulated prefix (Options.Extrapolate).
	Extrapolated bool
}

// HotLine is one contended cache line, resolved to the symbol holding it.
type HotLine struct {
	Symbol  string
	Offset  int64 // byte offset of the line within the symbol
	FSCases int64
}

// Victim is one source reference's share of the false-sharing cases.
type Victim struct {
	Ref     string // source text, e.g. "tid_args[j].sx"
	Symbol  string
	Write   bool
	FSCases int64
}

// evaluation is one run of the model on a nest: the FS model's result
// and Equation 1's base cost terms under the same plan. Analysis,
// CostReport and ChunkCandidate are views of it.
type evaluation struct {
	nest    *loopir.Nest
	m       *machine.Desc
	res     *fsmodel.Result
	base    costmodel.Breakdown
	costErr error // the base cost models rejected the nest
}

// evaluate runs fsmodel.Analyze and costmodel.Estimate once each on nest
// i. A cost-model rejection is recorded, not returned: Analyze still
// reports the FS results, EstimateCost fails with it.
func (p *Program) evaluate(i int, opts Options) (*evaluation, error) {
	n, err := p.nest(i)
	if err != nil {
		return nil, err
	}
	if err := faultinject.Fire("repro.evaluate"); err != nil {
		return nil, err
	}
	fo := opts.model()
	fo.TrackHotLines = opts.TrackHotLines
	res, err := fsmodel.Analyze(n, fo)
	if err != nil {
		return nil, err
	}
	e := &evaluation{nest: n, m: fo.Machine, res: res}
	e.base, e.costErr = costmodel.Estimate(n, fo.Machine, res.Plan)
	return e, nil
}

// totalCycles is Equation 1's Total_c in wall cycles.
func (e *evaluation) totalCycles() float64 {
	return e.base.TotalWithFS(e.res.FSCases, e.m, e.res.Plan.NumThreads)
}

// Analyze runs the FS cost model on nest i.
func (p *Program) Analyze(i int, opts Options) (*Analysis, error) {
	e, err := p.evaluate(i, opts)
	if err != nil {
		return nil, err
	}
	res := e.res
	a := &Analysis{
		FSCases:        res.FSCases,
		Iterations:     res.Iterations,
		FSPerIteration: res.FSPerIteration(),
		ChunkRuns:      res.ChunkRunsTotal,
		Threads:        res.Plan.NumThreads,
		Chunk:          res.Plan.Chunk,
		SkippedRefs:    res.SkippedRefs,
		Extrapolated:   res.Extrapolated,
		CostErr:        e.costErr,
	}
	for _, v := range res.Victims() {
		a.Victims = append(a.Victims, Victim{Ref: v.Src, Symbol: v.Symbol, Write: v.Write, FSCases: v.FSCases})
	}
	for _, h := range res.HotLines(e.nest, e.m.LineSize, 10) {
		a.HotLines = append(a.HotLines, HotLine{Symbol: h.Symbol, Offset: h.Offset, FSCases: h.FSCases})
	}
	if e.costErr == nil {
		a.FSShare = e.base.FSShare(res.FSCases, e.m)
		a.TotalCycles = e.totalCycles()
	}
	return a, nil
}

// RateReport is the analysis of a loop whose bounds are unknown at
// compile time: the paper's fallback of an FS rate per chunk run
// (Section III) instead of a whole-loop total.
type RateReport struct {
	// FSPerChunkRun is the steady-state FS cases per full team cycle.
	FSPerChunkRun float64
	// FSCases and RunsEvaluated describe the evaluated prefix.
	FSCases       int64
	RunsEvaluated int64
	// Assumed maps each unknown bound to the synthetic value substituted
	// to evaluate the prefix.
	Assumed map[string]int64
	Threads int
	Chunk   int64
}

// AnalyzeRate analyzes nest i for `runs` chunk runs and reports the FS
// rate — the API for loops whose bounds are only known at run time.
func (p *Program) AnalyzeRate(i int, opts Options, runs int64) (*RateReport, error) {
	n, err := p.nest(i)
	if err != nil {
		return nil, err
	}
	res, err := fsmodel.AnalyzeRate(n, opts.model(), runs)
	if err != nil {
		return nil, err
	}
	return &RateReport{
		FSPerChunkRun: res.FSPerChunkRun,
		FSCases:       res.FSCases,
		RunsEvaluated: res.ChunkRunsEvaluated,
		Assumed:       res.Assumed,
		Threads:       res.Plan.NumThreads,
		Chunk:         res.Plan.Chunk,
	}, nil
}

// Prediction is the linear-regression extrapolation of the FS total.
type Prediction struct {
	PredictedFS int64
	SampledRuns int64
	TotalRuns   int64
	Slope       float64
	Intercept   float64
	R2          float64
	// SpeedupFactor is full-model iterations over sampled iterations —
	// the modeling-time reduction the prediction buys.
	SpeedupFactor float64
}

// Predict extrapolates nest i's FS total from sampleRuns chunk runs.
func (p *Program) Predict(i int, opts Options, sampleRuns int64) (*Prediction, error) {
	n, err := p.nest(i)
	if err != nil {
		return nil, err
	}
	pred, err := fsmodel.Predict(n, opts.model(), sampleRuns)
	if err != nil {
		return nil, err
	}
	out := &Prediction{
		PredictedFS: pred.PredictedFS,
		SampledRuns: pred.SampledRuns,
		TotalRuns:   pred.TotalRuns,
		Slope:       pred.Fit.A,
		Intercept:   pred.Fit.B,
		R2:          pred.Fit.R2,
	}
	total, ok := n.TotalIterations()
	if ok && pred.IterationsEvaluated > 0 {
		out.SpeedupFactor = float64(total) / float64(pred.IterationsEvaluated)
	}
	return out, nil
}

// SimReport is the outcome of simulated execution on the modeled machine.
type SimReport struct {
	Seconds         float64
	WallCycles      float64
	CoherenceMisses int64
	Invalidations   int64
	L1Hits          int64
	L2Hits          int64
	L3Hits          int64
	MemFills        int64
	Accesses        int64
	// ContentionCycles is nonzero only with Options.BusContention.
	ContentionCycles float64
}

// Simulate executes nest i on the MESI machine simulator.
func (p *Program) Simulate(i int, opts Options) (*SimReport, error) {
	n, err := p.nest(i)
	if err != nil {
		return nil, err
	}
	st, err := sim.Run(n, sim.Options{
		Machine:            opts.Machine.resolve(),
		NumThreads:         opts.Threads,
		Chunk:              opts.Chunk,
		ModelBusContention: opts.BusContention,
	})
	if err != nil {
		return nil, err
	}
	return &SimReport{
		Seconds:          st.Seconds,
		WallCycles:       st.WallCycles,
		CoherenceMisses:  st.CoherenceMisses,
		Invalidations:    st.Invalidations,
		L1Hits:           st.L1Hits,
		L2Hits:           st.L2Hits,
		L3Hits:           st.L3Hits,
		MemFills:         st.MemFills,
		Accesses:         st.Accesses,
		ContentionCycles: st.ContentionCycles,
	}, nil
}

// CostReport is the Open64-style cost breakdown (Equation 1) for one nest.
type CostReport struct {
	MachinePerIter      float64
	CachePerIter        float64
	TLBPerIter          float64
	LoopOverheadPerIter float64
	ParallelOverhead    float64
	BaseWallCycles      float64
	TotalWallCycles     float64 // including the FS term
	FSCycles            float64
}

// EstimateCost evaluates Equation 1 for nest i, combining the base cost
// models with the FS model.
func (p *Program) EstimateCost(i int, opts Options) (*CostReport, error) {
	opts.TrackHotLines = false // the report has no per-line view
	e, err := p.evaluate(i, opts)
	if err != nil {
		return nil, err
	}
	if e.costErr != nil {
		return nil, e.costErr
	}
	base, total := e.base, e.totalCycles()
	return &CostReport{
		MachinePerIter:      base.MachinePerIter,
		CachePerIter:        base.CachePerIter,
		TLBPerIter:          base.TLBPerIter,
		LoopOverheadPerIter: base.LoopOverheadPerIter,
		ParallelOverhead:    base.ParallelOverhead,
		BaseWallCycles:      base.BaseWallCycles,
		TotalWallCycles:     total,
		FSCycles:            total - base.BaseWallCycles,
	}, nil
}

// ChunkRecommendation is the model-guided schedule choice (the paper's
// envisioned compiler use: pick the chunk size that minimizes Total_c).
type ChunkRecommendation struct {
	Chunk       int64
	FSCases     int64
	TotalCycles float64
	// Evaluated lists every candidate with its modeled cost.
	Evaluated []ChunkCandidate
}

// ChunkCandidate is one evaluated chunk size.
type ChunkCandidate struct {
	Chunk       int64
	FSCases     int64
	TotalCycles float64
}

// RecommendChunk evaluates the candidate chunk sizes with the combined
// cost model (Equation 1) and returns the cheapest. A nil candidates slice
// evaluates powers of two 1..128.
func (p *Program) RecommendChunk(i int, opts Options, candidates []int64) (*ChunkRecommendation, error) {
	return p.RecommendChunkCtx(context.Background(), i, opts, candidates)
}

// RecommendChunkCtx is RecommendChunk under a context: a cancelled or
// expired ctx stops the candidate sweep promptly and returns ctx.Err().
func (p *Program) RecommendChunkCtx(ctx context.Context, i int, opts Options, candidates []int64) (*ChunkRecommendation, error) {
	if len(candidates) == 0 {
		for c := int64(1); c <= 128; c *= 2 {
			candidates = append(candidates, c)
		}
	}
	// Candidates are independent model evaluations: fan them out on the
	// sweep pool. Results come back in candidate order, so the tie-break
	// (first candidate with the lowest cost wins) is deterministic.
	evaluated, err := sweep.Run(ctx, len(candidates), opts.Jobs, func(_ context.Context, idx int) (ChunkCandidate, error) {
		c := candidates[idx]
		o := opts
		o.Chunk = c
		o.TrackHotLines = false // candidates report no per-line view
		e, err := p.evaluate(i, o)
		if err == nil {
			err = e.costErr
		}
		if err != nil {
			return ChunkCandidate{}, fmt.Errorf("repro: chunk %d: %w", c, err)
		}
		return ChunkCandidate{Chunk: c, FSCases: e.res.FSCases, TotalCycles: e.totalCycles()}, nil
	})
	if err != nil {
		return nil, err
	}
	win := 0
	for idx, cand := range evaluated {
		if cand.TotalCycles < evaluated[win].TotalCycles {
			win = idx
		}
	}
	w := evaluated[win]
	return &ChunkRecommendation{Chunk: w.Chunk, FSCases: w.FSCases, TotalCycles: w.TotalCycles, Evaluated: evaluated}, nil
}

// ClosedFormAdvice is the static linter's verdict and schedule advice for
// one loop nest: whether any write is false-sharing prone or racy under
// the current plan, and the verified aligning chunk size if one exists.
type ClosedFormAdvice struct {
	// Prone reports whether any written reference in the nest is
	// statically false-sharing prone under the current schedule.
	Prone bool
	// Race reports whether two chunks can touch the same element (a true
	// data race, not mere line sharing).
	Race bool
	// Chunk is the smallest verified schedule(static,chunk) size that
	// removes every detected conflict, or 0 when none was found or none
	// is needed.
	Chunk int64
	// Exact is false when symbolic loop bounds forced assumed trip
	// counts, making the verdict a heuristic rather than a proof.
	Exact bool
	// Findings counts the nest's diagnostics at warning severity or
	// above.
	Findings int
}

// RecommendChunkClosedForm answers RecommendChunk's question — what
// schedule(static,chunk) avoids false sharing — with the closed-form
// linter (internal/analysis) instead of the candidate cost sweep: no
// simulation, no per-candidate model evaluation, and cost independent of
// the trip count. It returns the verified aligning chunk when the nest is
// prone and one exists; RecommendChunk remains the right tool when the
// answer must weigh FS against dispatch overhead across candidates.
func (p *Program) RecommendChunkClosedForm(i int, opts Options) (*ClosedFormAdvice, error) {
	if i < 0 || i >= len(p.unit.Nests) {
		return nil, fmt.Errorf("repro: nest %d out of range (program has %d)", i, len(p.unit.Nests))
	}
	rep, err := analysis.Analyze(p.unit, analysis.Config{
		Machine: opts.Machine.resolve(),
		Threads: opts.Threads,
		Chunk:   opts.Chunk,
	})
	if err != nil {
		return nil, err
	}
	adv := &ClosedFormAdvice{Exact: true}
	for _, v := range rep.Verdicts {
		if v.Nest != i {
			continue
		}
		adv.Prone = adv.Prone || v.Prone
		adv.Race = adv.Race || v.Race
		adv.Exact = adv.Exact && v.Exact
	}
	for _, d := range rep.Diagnostics {
		if d.Nest != i {
			continue
		}
		if d.Severity >= analysis.SeverityWarning {
			adv.Findings++
		}
		if d.Code == analysis.CodeFixChunk && (adv.Chunk == 0 || d.SuggestedChunk < adv.Chunk) {
			adv.Chunk = d.SuggestedChunk
		}
	}
	return adv, nil
}

// PaddingAdvice is the outcome of evaluating the struct-padding
// transformation with the cost model (the paper's future-work item,
// implemented in internal/transform).
type PaddingAdvice struct {
	// Changes lists the padded structs as human-readable descriptions.
	Changes []string
	// FS cases before and after padding.
	OrigFSCases int64
	NewFSCases  int64
	// Equation 1 totals (cycles) before and after.
	OrigCycles float64
	NewCycles  float64
	// Apply reports whether the model judges the transformation
	// profitable.
	Apply bool
}

// EvaluatePadding pads every victim struct to a cache-line multiple and
// prices the transformation with the combined cost model: FS savings
// against footprint growth.
func (p *Program) EvaluatePadding(i int, opts Options) (*PaddingAdvice, error) {
	d, err := transform.EvaluatePadding(p.unit.Prog, i, opts.model())
	if err != nil {
		return nil, err
	}
	adv := &PaddingAdvice{
		OrigFSCases: d.OrigFSCases,
		NewFSCases:  d.NewFSCases,
		OrigCycles:  d.OrigCycles,
		NewCycles:   d.NewCycles,
		Apply:       d.Apply,
	}
	for _, c := range d.Changes {
		adv.Changes = append(adv.Changes, c.String())
	}
	return adv, nil
}

// Interpret executes the whole program sequentially with the reference
// interpreter and returns an accessor for reading results (for validating
// that a kernel computes what it should).
func (p *Program) Interpret() (*Interpreter, error) {
	m := interp.New(p.unit)
	if err := m.Run(); err != nil {
		return nil, err
	}
	return &Interpreter{m: m}, nil
}

// Interpreter exposes the memory of an interpreted program run.
type Interpreter struct {
	m *interp.Machine
}

// Read returns the value at a reference like "args[3].sx".
func (it *Interpreter) Read(expr string) (float64, error) { return it.m.Read(expr) }
