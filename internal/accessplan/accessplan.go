// Package accessplan compiles a lowered loop nest plus a work-sharing
// plan into per-thread block descriptors: maximal runs of consecutive
// innermost iterations whose reference addresses advance by a constant
// byte stride per iteration. The false-sharing model's compiled
// evaluation path consumes these blocks instead of re-evaluating affine
// index expressions through a trace.ThreadCursor once per iteration —
// bounds and base addresses are evaluated once per block, and the hot
// loop advances addresses with one add per reference per step.
//
// Block shapes by nest structure:
//
//   - Parallel innermost loop (the paper's heat and DFT kernels): one
//     block per instantiation of the outer loops, covering every trip
//     the thread owns. Within one owned chunk consecutive trips are
//     consecutive, so addresses advance by Strides(); crossing to the
//     thread's next chunk jumps by Skips() (the other threads' chunks in
//     between). The executor drives this with ChunkLen().
//   - Parallel outer loop (linear regression): one block per innermost
//     instantiation; the parallel and middle levels are enumerated
//     block-by-block exactly like trace.ThreadCursor enumerates them.
//
// The enumeration order of iterations within and across blocks is
// bit-identical to trace.ThreadCursor's order; accessplan_test verifies
// this differentially over a corpus of nests.
package accessplan

import (
	"fmt"
	"math/bits"

	"repro/internal/affine"
	"repro/internal/loopir"
	"repro/internal/sched"
)

// Ref is the static shape of one analyzable reference, index-aligned
// with the nest's AnalyzableRefs (and therefore with the model's ByRef
// attribution slots).
type Ref struct {
	Size  int32
	Write bool
}

type compiledLoop struct {
	first affine.Compiled
	limit affine.Compiled
	step  int64
}

type compiledRef struct {
	offset affine.Compiled
	base   int64
}

// Plan is a compiled access plan for one nest under one schedule.
type Plan struct {
	Refs []Ref
	// LineShift is log2 of the cache-line size the plan was compiled for.
	LineShift uint

	sched    sched.Plan
	loops    []compiledLoop
	refs     []compiledRef
	parLevel int
	parInner bool

	stride    []int64 // per-ref byte stride between consecutive steps of a block
	skip      []int64 // per-ref jump across an owned-chunk boundary (parallel-innermost)
	chunkLen  int64   // steps per owned chunk segment (parallel-innermost; else 0)
	batchable bool
}

// Compile lowers the nest against the plan. It fails on non-power-of-two
// line sizes and on anything trace.NewGenerator would reject; fsmodel
// reports such a failure as an analysis error.
func Compile(nest *loopir.Nest, plan sched.Plan, lineSize int64) (*Plan, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("accessplan: line size %d is not a power of two", lineSize)
	}
	if len(nest.Loops) == 0 {
		return nil, fmt.Errorf("accessplan: empty nest")
	}
	parLevel := nest.ParLevel
	if parLevel < 0 {
		if plan.NumThreads != 1 {
			return nil, fmt.Errorf("accessplan: nest has no parallel level but plan has %d threads", plan.NumThreads)
		}
		parLevel = 0
	}
	vars := nest.Vars()
	p := &Plan{
		LineShift: uint(bits.TrailingZeros64(uint64(lineSize))),
		sched:     plan,
		parLevel:  parLevel,
	}
	for _, l := range nest.Loops {
		first, err := l.First.Compile(vars)
		if err != nil {
			return nil, fmt.Errorf("accessplan: loop %q lower bound: %w", l.Var, err)
		}
		limit, err := l.Limit.Compile(vars)
		if err != nil {
			return nil, fmt.Errorf("accessplan: loop %q limit: %w", l.Var, err)
		}
		if l.Step == 0 {
			return nil, fmt.Errorf("accessplan: loop %q has zero step", l.Var)
		}
		p.loops = append(p.loops, compiledLoop{first: first, limit: limit, step: l.Step})
	}
	for _, r := range nest.AnalyzableRefs() {
		off, err := r.Offset.Compile(vars)
		if err != nil {
			return nil, fmt.Errorf("accessplan: ref %s: %w", r.Src, err)
		}
		p.refs = append(p.refs, compiledRef{offset: off, base: r.Sym.Base})
		p.Refs = append(p.Refs, Ref{Size: int32(r.Size), Write: r.Write})
	}
	inner := len(p.loops) - 1
	p.parInner = parLevel == inner
	innerStep := p.loops[inner].step
	p.stride = make([]int64, len(p.refs))
	p.skip = make([]int64, len(p.refs))
	for i := range p.refs {
		p.stride[i] = innerStep * p.refs[i].offset.Coeffs[inner]
	}
	if p.parInner {
		p.chunkLen = plan.Chunk
		// From the last trip of one owned chunk to the first of the next:
		// (threads-1) whole foreign chunks plus one trip.
		delta := (int64(plan.NumThreads)-1)*plan.Chunk + 1
		for i := range p.refs {
			p.skip[i] = delta * p.stride[i]
		}
	}
	// A block is worth run-batching when every reference stays on one
	// cache line for several consecutive steps.
	p.batchable = len(p.refs) > 0
	for i := range p.refs {
		s := p.stride[i]
		if s < 0 {
			s = -s
		}
		if s != 0 && s*4 > lineSize {
			p.batchable = false
			break
		}
	}
	return p, nil
}

// Threads returns the plan's team size.
func (p *Plan) Threads() int { return p.sched.NumThreads }

// NumRefs returns the number of analyzable references per iteration.
func (p *Plan) NumRefs() int { return len(p.refs) }

// ParInnermost reports whether the parallelized loop is the innermost
// one, in which case every step of every block begins a new parallel
// trip (the chunk-run bookkeeping fast path).
func (p *Plan) ParInnermost() bool { return p.parInner }

// ParLevel returns the parallelized loop level the plan was compiled
// against (0 for a pragma-free single-thread nest).
func (p *Plan) ParLevel() int { return p.parLevel }

// Depth returns the nest depth.
func (p *Plan) Depth() int { return len(p.loops) }

// Batchable reports whether quiet-segment run batching can ever pay off
// for this plan (every reference revisits its line for several steps).
func (p *Plan) Batchable() bool { return p.batchable }

// Strides returns the per-ref byte stride between consecutive steps
// within a chunk segment. The slice is shared; do not mutate.
func (p *Plan) Strides() []int64 { return p.stride }

// Skips returns the per-ref byte jump across an owned-chunk boundary
// (meaningful only when ParInnermost). The slice is shared; do not
// mutate.
func (p *Plan) Skips() []int64 { return p.skip }

// ChunkLen returns the steps per owned-chunk segment of a block when
// ParInnermost, else 0 (blocks have a single uniform-stride segment).
func (p *Plan) ChunkLen() int64 { return p.chunkLen }

// LoopStep returns the step of loop level i.
func (p *Plan) LoopStep(level int) int64 { return p.loops[level].step }

// TripByteStride returns how many bytes ref r's address moves per trip
// of loop level, i.e. step(level) × the level variable's coefficient in
// the ref's byte-offset function. The steady-state extrapolation uses it
// to translate cache states across chunk runs.
func (p *Plan) TripByteStride(r, level int) int64 {
	return p.loops[level].step * p.refs[r].offset.Coeffs[level]
}

type levelState struct {
	first int64 // lower bound value at current instantiation
	n     int64 // trip count at current instantiation
	trip  int64 // current trip (sequential levels)
	j     int64 // owned-trip counter (parallel level, non-innermost)
	k     int64 // current global trip (parallel level)
}

// Cursor enumerates one thread's blocks in execution order.
type Cursor struct {
	p          *Plan
	thread     int
	vals       []int64
	lv         []levelState
	started    bool
	done       bool
	minChanged int
}

// Cursor returns a fresh block cursor for thread t.
func (p *Plan) Cursor(t int) *Cursor {
	return &Cursor{p: p, thread: t, vals: make([]int64, len(p.loops)), lv: make([]levelState, len(p.loops))}
}

// Thread returns the thread id this cursor enumerates.
func (c *Cursor) Thread() int { return c.thread }

// instantiate positions level i at its first valid state given the outer
// values; it reports false if the level contributes nothing for this
// thread.
func (c *Cursor) instantiate(i int) bool {
	cl := &c.p.loops[i]
	st := &c.lv[i]
	st.first = cl.first.Eval(c.vals)
	limit := cl.limit.Eval(c.vals)
	st.n = tripCount(st.first, limit, cl.step)
	inner := len(c.p.loops) - 1
	if i == inner && c.p.parInner {
		// The whole instantiation is one block spanning every trip the
		// thread owns; position at the thread's first owned trip.
		k0 := c.p.sched.OwnedTrip(c.thread, 0)
		if k0 >= st.n {
			return false
		}
		st.k = k0
		c.vals[i] = st.first + k0*cl.step
		return true
	}
	if i == c.p.parLevel {
		st.j = 0
		st.k = c.p.sched.OwnedTrip(c.thread, 0)
		if st.k >= st.n {
			return false
		}
		c.vals[i] = st.first + st.k*cl.step
		return true
	}
	if st.n == 0 {
		return false
	}
	st.trip = 0
	c.vals[i] = st.first
	return true
}

// step advances level i; it reports false on exhaustion. The innermost
// level is consumed a whole block at a time, so stepping it always
// exhausts it.
func (c *Cursor) step(i int) bool {
	cl := &c.p.loops[i]
	st := &c.lv[i]
	inner := len(c.p.loops) - 1
	if i == inner {
		return false
	}
	if i == c.p.parLevel {
		st.j++
		st.k = c.p.sched.OwnedTrip(c.thread, st.j)
		if st.k >= st.n {
			return false
		}
		c.vals[i] = st.first + st.k*cl.step
		if i < c.minChanged {
			c.minChanged = i
		}
		return true
	}
	st.trip++
	if st.trip >= st.n {
		return false
	}
	c.vals[i] += cl.step
	if i < c.minChanged {
		c.minChanged = i
	}
	return true
}

// seek makes levels i..depth-1 all valid, backtracking through outer
// levels when an inner one is empty.
func (c *Cursor) seek(i int) bool {
	d := len(c.p.loops)
	for i < d {
		if c.instantiate(i) {
			i++
			continue
		}
		k := i - 1
		for {
			if k < 0 {
				return false
			}
			if c.step(k) {
				break
			}
			k--
		}
		i = k + 1
	}
	return true
}

// NextBlock advances to the thread's next block and fills addr (len
// NumRefs) with each reference's byte address at the block's first step.
// steps is the block length in lockstep steps; newKey reports whether
// the block's first step begins a new (outer-prefix, parallel-trip)
// chunk-run key — when the plan is ParInnermost every step does and
// newKey is always true.
func (c *Cursor) NextBlock(addr []int64) (steps int64, newKey bool, ok bool) {
	if c.done {
		return 0, false, false
	}
	d := len(c.p.loops)
	c.minChanged = d
	if !c.started {
		c.started = true
		c.minChanged = 0
		if !c.seek(0) {
			c.done = true
			return 0, false, false
		}
	} else {
		k := d - 1
		for {
			if k < 0 {
				c.done = true
				return 0, false, false
			}
			if c.step(k) {
				break
			}
			k--
		}
		if !c.seek(k + 1) {
			c.done = true
			return 0, false, false
		}
	}
	inner := d - 1
	st := &c.lv[inner]
	if c.p.parInner {
		steps = c.p.sched.ThreadTrips(st.n, c.thread)
	} else {
		steps = st.n
	}
	for r := range c.p.refs {
		cr := &c.p.refs[r]
		addr[r] = cr.base + cr.offset.Eval(c.vals)
	}
	return steps, c.minChanged <= c.p.parLevel, true
}

func tripCount(first, limit, step int64) int64 {
	if step > 0 {
		if first >= limit {
			return 0
		}
		return (limit - first + step - 1) / step
	}
	if first <= limit {
		return 0
	}
	return (first - limit + (-step) - 1) / (-step)
}
