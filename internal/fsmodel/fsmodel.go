// Package fsmodel implements the paper's contribution: the compile-time
// false-sharing cost model for OpenMP parallel loops (Section III).
//
// Given a lowered loop nest, the model
//
//  1. takes the array references of the innermost loop (collected during
//     lowering),
//  2. generates, per lockstep iteration, a cache-line ownership list for
//     each thread under static round-robin chunk scheduling,
//  3. maintains a per-thread cache state — a fully-associative LRU stack
//     (stack distance analysis) — and
//  4. detects false sharing with the paper's 1-to-All comparison: when
//     thread j touches cache line cl, one FS case is counted for every
//     other thread whose cache state holds cl in Modified state (the ϕ
//     function of Eq. 3, masked to exclude j's own state per Eq. 4).
//
// Counting modes: CountPaperPhi reproduces the paper's ϕ exactly, with a
// Modified copy downgraded once it has been counted against (so each
// coherence event is counted once, matching "an FS case" = one
// unnecessary coherence miss). CountMESI additionally invalidates remote
// copies on writes, the behaviour of a real write-invalidate protocol;
// the difference between the two is an ablation the benchmarks measure.
package fsmodel

import (
	"fmt"
	"math/bits"
	"sort"
	"unsafe"

	"repro/internal/accessplan"
	"repro/internal/cache"
	"repro/internal/guard"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// CountingMode selects how FS cases are detected and how remote copies are
// treated after detection.
type CountingMode int

const (
	// CountPaperPhi is the paper's ϕ/mask counting (Equations 3–4): an FS
	// case whenever the accessed line is held Modified by another thread;
	// the remote copy is downgraded to clean after being counted.
	CountPaperPhi CountingMode = iota
	// CountMESI is write-invalidate-faithful: reads of a remotely
	// Modified line count and downgrade (as above); writes additionally
	// invalidate every remote copy of the line.
	CountMESI
)

// String names the mode.
func (m CountingMode) String() string {
	switch m {
	case CountPaperPhi:
		return "paper-phi"
	case CountMESI:
		return "mesi"
	}
	return fmt.Sprintf("CountingMode(%d)", int(m))
}

// Options configures an analysis run.
type Options struct {
	// Machine supplies line size and private-cache capacity. Defaults to
	// machine.Paper48().
	Machine *machine.Desc
	// NumThreads is the thread count when the pragma does not fix one.
	NumThreads int
	// Chunk overrides the schedule chunk when the pragma does not fix one
	// (0 keeps the OpenMP static default of one block per thread).
	Chunk int64
	// StackDepth is the per-thread cache-state capacity in lines.
	// 0 uses the machine's largest private cache; negative means
	// unbounded (infinite stack).
	StackDepth int
	// Associativity > 0 switches the per-thread cache state from the
	// paper's fully-associative stack to a set-associative array with
	// that many ways (an ablation; the paper argues fully-associative is
	// a valid approximation for highly associative caches).
	Associativity int64
	// Counting selects the FS detection semantics.
	Counting CountingMode
	// MaxChunkRuns, when positive, stops the analysis after that many
	// chunk runs of the thread team (the prediction model's sampling).
	MaxChunkRuns int64
	// RecordPerRun records the cumulative FS count after every chunk run
	// (needed for Fig. 6 and the prediction model). Enabled implicitly
	// when MaxChunkRuns is set.
	RecordPerRun bool
	// TrackHotLines additionally attributes FS cases to individual cache
	// lines (Result.HotLines), at a small per-FS-event cost.
	TrackHotLines bool
	// Extrapolate enables steady-state chunk-run extrapolation: the model
	// simulates chunk runs only until the per-run FS/miss deltas become
	// exactly periodic, then closes the total in O(1). Refused (with a
	// silent fall back to full simulation) whenever the nest's structure
	// cannot guarantee periodicity; Result.Extrapolated reports what
	// happened.
	Extrapolate bool
	// Budget bounds the run: modeled accesses (MaxSteps), modeled state
	// bytes (MaxStateBytes) and a wall-clock deadline. The zero value is
	// unlimited and adds no hot-loop work beyond one predictable branch
	// per access; violations abort the run with a *guard.BudgetError
	// (matching guard.ErrBudgetExceeded). Checks are amortized every
	// budgetCheckEvery accesses, so the step budget may overrun by at
	// most that interval — but the trigger is count-based, so the same
	// input always stops at the same access. A budget never changes the
	// result of a run it does not abort.
	Budget guard.Budget

	// forceMap pins the run to the map-backed state, which is otherwise
	// chosen only from the input; in-package tests use it to cross-check
	// the two state representations.
	forceMap bool
}

func (o Options) withDefaults() Options {
	if o.Machine == nil {
		o.Machine = machine.Paper48()
	}
	if o.StackDepth == 0 {
		o.StackDepth = o.Machine.PrivateCacheLines()
	}
	if o.StackDepth < 0 {
		o.StackDepth = 0 // unbounded for cache.NewFullyAssoc
	}
	if o.MaxChunkRuns > 0 {
		o.RecordPerRun = true
	}
	return o
}

// Result is the outcome of one model run.
type Result struct {
	// FSCases is the total number of false sharing cases detected
	// (the paper's N_fs / N_nfs depending on the chunk size analyzed).
	FSCases int64
	// Invalidations counts remote-copy invalidations (CountMESI only).
	Invalidations int64

	// Iterations is the total number of innermost-loop iterations
	// executed across all threads; Steps is the lockstep horizon (the
	// All_num_of_iters / num_of_threads of the paper).
	Iterations int64
	Steps      int64
	Accesses   int64

	// ColdMisses and CapacityEvictions summarize per-thread cache-state
	// behaviour (inputs to diagnostics, not to FS counting).
	ColdMisses        int64
	CapacityEvictions int64

	// ChunkRunsEvaluated is how many full team cycles were processed;
	// ChunkRunsTotal is how many the complete loop contains.
	ChunkRunsEvaluated int64
	ChunkRunsTotal     int64
	// PerRun[i] is the cumulative FS count after chunk run i+1 (present
	// when Options.RecordPerRun).
	PerRun []int64
	// Truncated reports that MaxChunkRuns stopped the run early.
	Truncated bool

	Plan sched.Plan
	Mode CountingMode
	// Extrapolated reports that the steady-state closure produced the
	// totals; SimulatedRuns is how many chunk runs were actually
	// simulated before the periodic tail was closed in O(1), and
	// ExtrapolationPeriod is the detected period in chunk runs. All three
	// are zero/false on fully simulated runs.
	Extrapolated        bool
	SimulatedRuns       int64
	ExtrapolationPeriod int64
	// SkippedRefs lists non-affine references excluded from the model.
	SkippedRefs []string
	// ByRef attributes FS cases to the source reference whose access
	// detected them, index-aligned with the nest's analyzable refs. This
	// is the "identify the victim data structure" output the paper calls
	// hard to obtain by hand (Section II-A).
	ByRef []RefAttribution
	// hotLines maps cache line -> FS count (Options.TrackHotLines).
	hotLines map[int64]int64
	// dense records which state representation the run used.
	dense bool
}

// RefAttribution is the FS share of one source-level reference.
type RefAttribution struct {
	Src     string // source text, e.g. "tid_args[j].sx"
	Symbol  string // array/struct name
	Write   bool
	FSCases int64
}

// LineAttribution is the FS share of one cache line (Options.TrackHotLines).
type LineAttribution struct {
	Line    int64  // cache-line index (address / line size)
	Symbol  string // symbol owning the line, if any
	Offset  int64  // byte offset of the line within the symbol
	FSCases int64
}

// Victims returns the attribution entries with nonzero FS counts, sorted
// by descending count (stable on ties).
func (r *Result) Victims() []RefAttribution {
	out := make([]RefAttribution, 0, len(r.ByRef))
	for _, a := range r.ByRef {
		if a.FSCases > 0 {
			out = append(out, a)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].FSCases > out[j].FSCases })
	return out
}

// HotLines returns the top-n cache lines by FS count, each resolved to
// the symbol whose storage contains it (Options.TrackHotLines must have
// been set; nil otherwise). This is the per-line view a runtime detector
// like the authors' DARWIN reports, obtained here without executing the
// program.
func (r *Result) HotLines(nest *loopir.Nest, lineSize int64, n int) []LineAttribution {
	if r.hotLines == nil {
		return nil
	}
	out := make([]LineAttribution, 0, len(r.hotLines))
	for line, cases := range r.hotLines {
		la := LineAttribution{Line: line, FSCases: cases}
		addr := line * lineSize
		for _, ref := range nest.Refs {
			if ref.Sym != nil && addr >= ref.Sym.Base && addr < ref.Sym.Base+ref.Sym.Size() {
				la.Symbol = ref.Sym.Name
				la.Offset = addr - ref.Sym.Base
				break
			}
		}
		out = append(out, la)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FSCases != out[j].FSCases {
			return out[i].FSCases > out[j].FSCases
		}
		return out[i].Line < out[j].Line
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// VictimSymbols aggregates FS counts per symbol, sorted by descending
// count.
func (r *Result) VictimSymbols() []RefAttribution {
	bySym := map[string]int64{}
	order := []string{}
	for _, a := range r.ByRef {
		if a.FSCases == 0 {
			continue
		}
		if _, seen := bySym[a.Symbol]; !seen {
			order = append(order, a.Symbol)
		}
		bySym[a.Symbol] += a.FSCases
	}
	out := make([]RefAttribution, 0, len(order))
	for _, s := range order {
		out = append(out, RefAttribution{Src: s, Symbol: s, FSCases: bySym[s]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].FSCases > out[j].FSCases })
	return out
}

// FSPerIteration returns FS cases per innermost iteration.
func (r *Result) FSPerIteration() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return float64(r.FSCases) / float64(r.Iterations)
}

// threadState abstracts the per-thread cache state so the fully
// associative stack and the set-associative ablation share the hot loop.
type threadState interface {
	Touch(line int64, write bool) cache.TouchResult
	Downgrade(line int64)
	Invalidate(line int64) bool
}

// setAssocState adapts cache.SetAssoc to the threadState interface.
type setAssocState struct{ c *cache.SetAssoc }

func (s setAssocState) Touch(line int64, write bool) cache.TouchResult {
	var res cache.TouchResult
	st := s.c.Access(line)
	if st != cache.Invalid {
		res.Hit = true
		res.WasModified = st == cache.Modified
		if write {
			s.c.SetState(line, cache.Modified)
		}
		return res
	}
	newState := cache.Shared
	if write {
		newState = cache.Modified
	}
	if ev, ok := s.c.Fill(line, newState); ok {
		res.Evicted = true
		res.EvictedLine = ev.Line
		res.EvictedDirty = ev.State == cache.Modified
	}
	return res
}

func (s setAssocState) Downgrade(line int64) {
	if s.c.State(line) == cache.Modified {
		s.c.SetState(line, cache.Shared)
	}
}

func (s setAssocState) Invalidate(line int64) bool {
	return s.c.Invalidate(line) != cache.Invalid
}

// dirEntry tracks, per cache line, which threads hold a copy (bitmask) and
// which single thread holds it Modified. Maintaining the directory
// alongside the per-thread stacks makes the 1-to-All comparison O(1) per
// access instead of O(threads). The zero value is an untouched line, so
// a fresh dense directory needs no initialization pass.
type dirEntry struct {
	holders uint64
	owner1  int8 // Modified owner's thread id + 1; 0 = no Modified copy
}

// Dense-state sizing limits. The dense window spans the contiguous line
// range covered by the nest's symbols; beyond these bounds the map path is
// cheaper than touching that much memory.
const (
	denseMaxLines = int64(1) << 26   // hard cap on the dense window span
	denseMaxBytes = int64(256) << 20 // total dense state budget (all threads)
)

// budgetCheckEvery is the amortization interval of Options.Budget checks
// in the hot loop: one full Check (including the time.Now for deadlines)
// per this many accesses, keeping measured overhead under 2% while
// bounding step-budget overrun to the same interval.
const budgetCheckEvery = 4096

// Approximate per-entry costs of the map-backed state, used only for
// Budget.MaxStateBytes accounting: a directory map entry (bucket share +
// key + dirEntry) and a FullyAssoc stack node (node + map entry).
const (
	dirMapEntryBytes = 64
	stackNodeBytes   = 80
)

// runHook, when set by a test, observes (or panics inside) every run
// Analyze starts, after its state is allocated.
var runHook func(*run)

// errDenseRange reports an access outside the precomputed dense window
// (possible only when an affine subscript strays outside its symbol's
// declared extent); Analyze restarts the run on the map state.
var errDenseRange = fmt.Errorf("fsmodel: access outside the dense line window")

// run bundles one analysis run's precomputed state. Option-dependent
// behaviour (hot-line tracking, per-run recording, counting mode) is
// resolved into flag fields once, so the per-access and per-iteration hot
// paths never consult cold Options.
type run struct {
	res  *Result
	plan sched.Plan
	nest *loopir.Nest

	mode         CountingMode
	trackHot     bool // res.hotLines is non-nil
	trackRuns    bool // chunk-run bookkeeping is needed at all
	recordPerRun bool
	maxRuns      int64
	lineSize     int64
	extrapolate  bool

	// The access-run plan the executor drives, the transposed lazy-LRU
	// state (dense state only), and the silent-mutation counter feeding
	// quiet-segment detection — it counts writes that changed owner or
	// dirtied a clean resident line without firing any other counter, so
	// "no counter moved" really means "the step left the modeled state
	// equivalent".
	ap  *accessplan.Plan
	lz  *lazyState
	mut int64

	// Budget enforcement: budgeted gates the per-access branch entirely;
	// nextCheck is the access count at which the next amortized Check
	// fires; denseBytes is the dense state's fixed size.
	budget     guard.Budget
	budgeted   bool
	nextCheck  int64
	denseBytes int64

	// Map state (sparse or unbounded address spaces, set-assoc ablation).
	dir    map[int64]dirEntry
	states []threadState

	// Dense state: the directory is a flat slice indexed by remapped line
	// id (global line − base), and the per-thread cache states live in lz
	// over the same dense id space. Allocation-free per access. mem owns
	// the large arrays of both; Analyze releases it when the run ends.
	dense bool
	base  int64 // first global line id of the dense window
	ddir  []dirEntry
	mem   offHeap
}

// denseExtent computes the contiguous cache-line window reachable through
// the nest's analyzable references: every affine reference stays inside
// its symbol's [Base, Base+Size) extent, so the union of symbol extents
// bounds the run's address space. ok is false when the nest has no
// analyzable references.
func denseExtent(nest *loopir.Nest, lineSize int64) (firstLine, span int64, ok bool) {
	var lo, hi int64
	for _, r := range nest.AnalyzableRefs() {
		if r.Sym == nil || r.Sym.Size() <= 0 {
			return 0, 0, false
		}
		base, end := r.Sym.Base, r.Sym.Base+r.Sym.Size()
		if !ok {
			lo, hi, ok = base, end, true
			continue
		}
		if base < lo {
			lo = base
		}
		if end > hi {
			hi = end
		}
	}
	if !ok {
		return 0, 0, false
	}
	firstLine = lo / lineSize
	span = (hi-1)/lineSize - firstLine + 1
	return firstLine, span, true
}

// denseStateBytes is exactly what newRun allocates for a dense window of
// span lines: the directory, and per thread the padded stamp region plus,
// when the capacity can evict, the padded recency ring and the clock,
// live, head and tail words. The figure sets the dense/map cutover
// (denseMaxBytes) and the Budget.MaxStateBytes charge.
func denseStateBytes(span int64, threads int, stackDepth int) int64 {
	spanStride, cap, ringLen := lazyLayout(span, stackDepth)
	bytes := span*int64(unsafe.Sizeof(dirEntry{})) + int64(threads)*spanStride*4
	if cap > 0 {
		bytes += int64(threads) * (ringLen*8 + 4 + 4 + 8 + 8)
	}
	return bytes
}

// denseFits reports whether a dense window of span lines stays inside the
// memory budget for the given team size and per-thread capacity.
func denseFits(span int64, threads int, stackDepth int) bool {
	if span <= 0 || span > denseMaxLines {
		return false
	}
	return denseStateBytes(span, threads, stackDepth) <= denseMaxBytes
}

// denseWindow chooses the state representation from the input alone: the
// dense state when the nest's symbol extents form a window that fits the
// size limits and the caller's state budget, the map state otherwise
// (sparse or oversized windows, and the set-associative ablation, which
// only the map state models).
func denseWindow(nest *loopir.Nest, opts Options, threads int) (base, span int64, ok bool) {
	if opts.forceMap || opts.Associativity > 0 {
		return 0, 0, false
	}
	base, span, ok = denseExtent(nest, opts.Machine.LineSize)
	if !ok || !denseFits(span, threads, opts.StackDepth) {
		return 0, 0, false
	}
	// A dense window over the caller's state budget is not an error: the
	// map state grows with touched lines only and may stay inside it (the
	// amortized hot-loop check catches it if not).
	if opts.Budget.CheckStateBytes(denseStateBytes(span, threads, opts.StackDepth)) != nil {
		return 0, 0, false
	}
	return base, span, true
}

// newRun builds the per-run state for one Analyze call. dense selects the
// state representation; the caller has already checked it is
// representable.
func newRun(nest *loopir.Nest, opts Options, plan sched.Plan, skipped []string, ap *accessplan.Plan, dense bool, base, span int64) (*run, error) {
	res := &Result{Plan: plan, Mode: opts.Counting, SkippedRefs: skipped, dense: dense}
	res.ChunkRunsTotal = totalChunkRuns(nest, plan)
	if opts.TrackHotLines {
		res.hotLines = make(map[int64]int64)
	}
	for _, r := range nest.AnalyzableRefs() {
		res.ByRef = append(res.ByRef, RefAttribution{Src: r.Src, Symbol: r.Sym.Name, Write: r.Write})
	}

	r := &run{
		res:          res,
		plan:         plan,
		nest:         nest,
		mode:         opts.Counting,
		trackHot:     opts.TrackHotLines,
		trackRuns:    opts.RecordPerRun || opts.MaxChunkRuns > 0,
		recordPerRun: opts.RecordPerRun,
		maxRuns:      opts.MaxChunkRuns,
		lineSize:     opts.Machine.LineSize,
		extrapolate:  opts.Extrapolate,
		ap:           ap,
		budget:       opts.Budget,
		budgeted:     !opts.Budget.Zero(),
		nextCheck:    budgetCheckEvery,
	}

	if dense {
		r.denseBytes = denseStateBytes(span, plan.NumThreads, opts.StackDepth)
		r.dense = true
		r.base = base
		r.ddir = alloc[dirEntry](&r.mem, span)
		r.lz = newLazyState(&r.mem, span, plan.NumThreads, opts.StackDepth)
		return r, nil
	}

	r.dir = make(map[int64]dirEntry)
	r.states = make([]threadState, plan.NumThreads)
	for t := range r.states {
		if opts.Associativity > 0 {
			geom := cache.Geometry{
				SizeBytes: int64(opts.StackDepth) * opts.Machine.LineSize,
				LineSize:  opts.Machine.LineSize,
				Assoc:     opts.Associativity,
			}
			sa, err := cache.NewSetAssoc(geom)
			if err != nil {
				return nil, fmt.Errorf("fsmodel: set-associative ablation: %w", err)
			}
			r.states[t] = setAssocState{c: sa}
		} else {
			r.states[t] = cache.NewFullyAssoc(opts.StackDepth)
		}
	}
	return r, nil
}

// Analyze runs the false-sharing cost model over the nest: the nest is
// compiled into an access-run plan (internal/accessplan) and driven by
// the block-structured executor (compiled.go).
func Analyze(nest *loopir.Nest, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	plan, gen, err := prepare(nest, opts)
	if err != nil {
		return nil, err
	}
	ap, err := accessplan.Compile(nest, plan, opts.Machine.LineSize)
	if err != nil {
		return nil, fmt.Errorf("fsmodel: %w", err)
	}
	base, span, dense := denseWindow(nest, opts, plan.NumThreads)
	r, err := newRun(nest, opts, plan, gen.Skipped, ap, dense, base, span)
	if err != nil {
		return nil, err
	}
	// Every exit releases the mapped dense state: success, a budget or
	// deadline stop, and a panic on its way to a guard recover. The
	// Result never points into it.
	defer r.mem.release()
	if runHook != nil {
		runHook(r)
	}
	res, err := r.executeCompiled()
	if err == errDenseRange {
		// A reference strayed outside its symbol's extent: restart on the
		// map state, which handles arbitrary line ids.
		r.mem.release()
		if r, err = newRun(nest, opts, plan, gen.Skipped, ap, false, 0, 0); err != nil {
			return nil, err
		}
		res, err = r.executeCompiled()
	}
	return res, err
}

// addAccesses credits n logical accesses against the budget, firing the
// amortized Check at every crossed budgetCheckEvery boundary with the
// exact boundary value — so a run-batched executor aborts with the same
// BudgetError.Used as a per-access evaluation, no matter how many
// accesses one batch amortizes.
func (r *run) addAccesses(n int64) error {
	r.res.Accesses += n
	if !r.budgeted {
		return nil
	}
	for r.res.Accesses >= r.nextCheck {
		chk := r.nextCheck
		r.nextCheck = chk + budgetCheckEvery
		if err := r.budget.Check(chk, r.estimateStateBytes()); err != nil {
			return err
		}
	}
	return nil
}

// estimateStateBytes approximates the run's live modeled state for
// Budget.MaxStateBytes: the dense state's size is fixed at setup; the
// map state is priced per directory entry plus per-thread stack nodes
// (the set-associative ablation is capacity-bounded and counted via its
// fixed geometry at worst).
func (r *run) estimateStateBytes() int64 {
	if r.dense {
		return r.denseBytes
	}
	bytes := int64(len(r.dir)) * dirMapEntryBytes
	for _, st := range r.states {
		if fa, ok := st.(*cache.FullyAssoc); ok {
			bytes += int64(fa.Len()) * stackNodeBytes
		}
	}
	return bytes
}

// accessMap performs steps 3–4 of the model for one (thread, line) access
// on the map state: the 1-to-All ϕ comparison against the directory,
// coherence bookkeeping per the counting mode, and the threadState update
// (pointer-based FullyAssoc or the set-associative ablation). accessLazy
// is its dense twin.
func (r *run) accessMap(t int, line int64, write bool, refIdx int) {
	res := r.res
	e := r.dir[line]
	ownerBefore := e.owner1
	self := int8(t + 1)
	tBit := uint64(1) << uint(t)

	// ϕ with mask: another thread holds this line Modified.
	if e.owner1 != 0 && e.owner1 != self {
		res.FSCases++
		if refIdx >= 0 && refIdx < len(res.ByRef) {
			res.ByRef[refIdx].FSCases++
		}
		if r.trackHot {
			res.hotLines[line]++
		}
		r.states[e.owner1-1].Downgrade(line)
		e.owner1 = 0
	}

	if r.mode == CountMESI && write {
		others := e.holders &^ tBit
		for others != 0 {
			u := bits.TrailingZeros64(others)
			others &^= 1 << uint(u)
			r.states[u].Invalidate(line)
			e.holders &^= 1 << uint(u)
			res.Invalidations++
		}
	}

	tr := r.states[t].Touch(line, write)
	if !tr.Hit {
		res.ColdMisses++
		e.holders |= tBit
	}
	if tr.Evicted {
		res.CapacityEvictions++
		// Update the looked-up entry in place (never inserting one for a
		// line the directory does not track) and drop it once no thread
		// holds a copy.
		if evicted, ok := r.dir[tr.EvictedLine]; ok {
			evicted.holders &^= tBit
			if evicted.owner1 == self {
				evicted.owner1 = 0
			}
			if evicted.holders == 0 {
				delete(r.dir, tr.EvictedLine)
			} else {
				r.dir[tr.EvictedLine] = evicted
			}
		}
	}
	if write {
		if ownerBefore != self || (tr.Hit && !tr.WasModified) {
			r.mut++
		}
		e.owner1 = self
	}
	r.dir[line] = e
}

// prepare validates the machine, resolves the scheduling plan and builds
// the trace generator (which also lists the non-affine references the
// model skips).
func prepare(nest *loopir.Nest, opts Options) (sched.Plan, *trace.Generator, error) {
	if err := opts.Machine.Validate(); err != nil {
		return sched.Plan{}, nil, fmt.Errorf("fsmodel: %w", err)
	}
	par := nest.Parallelized()
	if par == nil {
		return sched.Plan{}, nil, fmt.Errorf("fsmodel: nest has no parallel loop (missing omp pragma)")
	}
	// Explicit options win over the source pragma: the analysis explores
	// schedules the compiler might substitute. The pragma supplies
	// defaults when options leave a knob unset.
	threads := opts.NumThreads
	if threads <= 0 && par.Parallel.NumThreads > 0 {
		threads = par.Parallel.NumThreads
	}
	if threads <= 0 {
		threads = opts.Machine.Cores
	}
	chunk := opts.Chunk
	if chunk <= 0 && par.Parallel.Chunk > 0 {
		chunk = par.Parallel.Chunk
	}
	kind, err := sched.KindFromString(par.Parallel.Schedule)
	if err != nil {
		return sched.Plan{}, nil, err
	}
	trip, _ := par.ConstTripCount()
	plan, err := sched.Resolve(kind, threads, chunk, trip)
	if err != nil {
		return sched.Plan{}, nil, err
	}
	if plan.NumThreads > 64 {
		return sched.Plan{}, nil, fmt.Errorf("fsmodel: at most 64 threads supported, got %d", plan.NumThreads)
	}
	gen, err := trace.NewGenerator(nest, plan)
	if err != nil {
		return sched.Plan{}, nil, err
	}
	return plan, gen, nil
}

// totalChunkRuns computes how many full team cycles the complete loop
// contains: the paper's x_max. For a rectangular nest this is
// instances(outer loops) × ceil(parallel trips / (chunk·threads)).
func totalChunkRuns(nest *loopir.Nest, plan sched.Plan) int64 {
	instances := int64(1)
	for i := 0; i < nest.ParLevel; i++ {
		t, ok := nest.Loops[i].ConstTripCount()
		if !ok {
			return 0 // unknown bounds: the model reports per-cycle rates only
		}
		instances *= t
	}
	parTrips, ok := nest.Loops[nest.ParLevel].ConstTripCount()
	if !ok {
		return 0
	}
	return instances * plan.Cycles(parTrips)
}
