package fsmodel

import (
	"math/bits"

	"repro/internal/accessplan"
	"repro/internal/cache"
)

// This file is the model's executor: the block-structured enumeration
// over internal/accessplan plans, the transposed lazy-stamp LRU state of
// the dense representation, and the quiet-segment run batching that
// advances the whole team several lockstep steps at once when no
// coherence state can change. Every piece is bit-identical to the
// per-iteration reference interpreter kept as a test oracle (see
// oracle_test.go).

// lazyState is the dense representation's per-thread cache state. It
// avoids a doubly linked LRU list (three scattered writes per touch)
// with a timestamp scheme: residency is a per-(thread,line) stamp
// — each thread owns a contiguous span-sized region, so a thread walking
// nearby lines stays within a few hardware cache lines — and LRU order
// is an append-only per-thread ring of (line, stamp) records in one flat
// array. A touch is one stamp write plus one sequential ring append; the
// exact LRU victim is recovered on eviction by popping ring entries
// whose stamp no longer matches (stale re-touches). Rings are compacted
// in place when full, renumbering live stamps 1..m so the clock can
// never overflow int32.
type lazyState struct {
	threads int
	span    int64
	// spanStride is span padded so consecutive threads' regions sit an
	// odd multiple of 64 bytes apart modulo 4096: region strides that are
	// multiples of the page/way size put every thread's stamp for the
	// same line into the same hardware cache set, and ~50 concurrent
	// lockstep streams then thrash an 8-way set. Same story for ringLen.
	spanStride int64
	cap        int32    // per-thread capacity in lines; 0 = never evicts
	stamp      []int32  // stamp[t*spanStride+idx]; 0 = absent
	clock      []int32  // per-thread stamp clock
	live       []int32  // per-thread resident-line count
	ring       []uint64 // recency logs, thread t owns [t*ringLen, (t+1)*ringLen)
	ringLen    int64
	head       []int64 // absolute ring cursors within thread t's region
	tail       []int64
}

// The modified bit rides in the stamp word itself (one array access per
// touch instead of two). Staleness comparisons mask it off, so downgrade
// — which flips the bit in place without a ring append — cannot make a
// resident line look stale to eviction.
const lazyMod = int32(1) << 30

// lazyLayout is the lazy state's geometry for a window of span lines:
// the padded per-thread stamp stride and, when the per-thread capacity
// can evict, that capacity and the padded per-thread ring length (both
// zero otherwise). newLazyState allocates from it and denseStateBytes
// prices it.
func lazyLayout(span int64, stackDepth int) (spanStride int64, cap int32, ringLen int64) {
	// spanStride*4 ≡ 64 (mod 4096): spanStride ≡ 16 (mod 1024).
	spanStride = span + ((16-span)%1024+1024)%1024
	// A non-positive or span-covering capacity never evicts, so no
	// recency bookkeeping is needed at all.
	if stackDepth > 0 && int64(stackDepth) < span {
		cap = int32(stackDepth)
		// ringLen*8 ≡ 64 (mod 4096): ringLen ≡ 8 (mod 512).
		rl := int64(4*stackDepth + 64)
		ringLen = rl + ((8-rl)%512+512)%512
	}
	return spanStride, cap, ringLen
}

// newLazyState builds the lazy state, taking its stamp and ring arrays
// from h (see alloc).
func newLazyState(h *offHeap, span int64, threads, stackDepth int) *lazyState {
	spanStride, cap, ringLen := lazyLayout(span, stackDepth)
	s := &lazyState{
		threads:    threads,
		span:       span,
		spanStride: spanStride,
		cap:        cap,
		stamp:      alloc[int32](h, spanStride*int64(threads)),
		ringLen:    ringLen,
	}
	if cap > 0 {
		s.clock = make([]int32, threads)
		s.live = make([]int32, threads)
		s.ring = alloc[uint64](h, ringLen*int64(threads))
		s.head = make([]int64, threads)
		s.tail = make([]int64, threads)
		for t := 0; t < threads; t++ {
			s.head[t] = int64(t) * s.ringLen
			s.tail[t] = int64(t) * s.ringLen
		}
	}
	return s
}

// compact drops stale ring entries and renumbers live stamps 1..m in
// recency order, resetting the clock. Live entries number at most cap,
// far below the ring length, so the ring is never full after compaction.
func (s *lazyState) compact(t int) {
	base := int64(t) * s.ringLen
	sbase := int64(t) * s.spanStride
	m := int32(0)
	for i := s.head[t]; i < s.tail[t]; i++ {
		e := s.ring[i]
		idx := int64(e >> 32)
		p := sbase + idx
		if s.stamp[p]&^lazyMod == int32(uint32(e))&^lazyMod && s.stamp[p] != 0 {
			m++
			c := m | (s.stamp[p] & lazyMod)
			s.stamp[p] = c
			s.ring[base+int64(m)-1] = uint64(idx)<<32 | uint64(uint32(c))
		}
	}
	s.head[t] = base
	s.tail[t] = base + int64(m)
	s.clock[t] = m
}

func (s *lazyState) downgrade(t int, idx int64) {
	p := int64(t)*s.spanStride + idx
	if s.stamp[p] != 0 {
		s.stamp[p] &^= lazyMod
	}
}

func (s *lazyState) invalidate(t int, idx int64) {
	p := int64(t)*s.spanStride + idx
	if s.stamp[p] == 0 {
		return
	}
	s.stamp[p] = 0
	if s.cap != 0 {
		s.live[t]--
	}
}

// accessLazy is accessMap's twin over the dense directory and the lazy
// state; same counting, same eviction bookkeeping, same silent-mutation
// count. The stamp/ring update is written inline: this is the hot path
// of the whole model, and a call plus TouchResult traffic costs more
// than the state update itself.
func (r *run) accessLazy(t int, line int64, write bool, refIdx int) bool {
	idx := line - r.base
	if idx < 0 || idx >= int64(len(r.ddir)) {
		return false
	}
	res := r.res
	e := &r.ddir[idx]
	ownerBefore := e.owner1
	self := int8(t + 1)
	tBit := uint64(1) << uint(t)
	lz := r.lz

	if e.owner1 != 0 && e.owner1 != self {
		res.FSCases++
		if refIdx >= 0 && refIdx < len(res.ByRef) {
			res.ByRef[refIdx].FSCases++
		}
		if r.trackHot {
			res.hotLines[line]++
		}
		lz.downgrade(int(e.owner1)-1, idx)
		e.owner1 = 0
	}

	if r.mode == CountMESI && write {
		others := e.holders &^ tBit
		for others != 0 {
			u := bits.TrailingZeros64(others)
			others &^= 1 << uint(u)
			lz.invalidate(u, idx)
			e.holders &^= 1 << uint(u)
			res.Invalidations++
		}
	}

	p := int64(t)*lz.spanStride + idx
	sp := lz.stamp[p]
	var mod int32
	if write {
		mod = lazyMod
	}
	hit := sp != 0
	wasMod := sp&lazyMod != 0
	if lz.cap == 0 {
		if hit {
			lz.stamp[p] = sp | mod
		} else {
			lz.stamp[p] = 1 | mod
			res.ColdMisses++
			e.holders |= tBit
		}
	} else {
		if !hit {
			res.ColdMisses++
			e.holders |= tBit
			if lz.live[t] >= lz.cap {
				// Pop ring entries until a live, unsuperseded record
				// surfaces: the true LRU resident line.
				sbase := int64(t) * lz.spanStride
				h := lz.head[t]
				var v int64
				for {
					rec := lz.ring[h]
					h++
					v = int64(rec >> 32)
					vsp := lz.stamp[sbase+v]
					if vsp != 0 && vsp&^lazyMod == int32(uint32(rec))&^lazyMod {
						break
					}
				}
				lz.head[t] = h
				lz.stamp[sbase+v] = 0
				lz.live[t]--
				res.CapacityEvictions++
				ev := &r.ddir[v]
				ev.holders &^= tBit
				if ev.owner1 == self || ev.holders == 0 {
					ev.owner1 = 0
				}
			}
			lz.live[t]++
		} else {
			mod |= sp & lazyMod
		}
		if lz.tail[t] == int64(t+1)*lz.ringLen {
			// compact renumbers live stamps but preserves each line's mod
			// bit, so mod (derived from the pre-compact stamp) stays right.
			lz.compact(t)
		}
		lz.clock[t]++
		c := lz.clock[t] | mod
		lz.stamp[p] = c
		lz.ring[lz.tail[t]] = uint64(idx)<<32 | uint64(uint32(c))
		lz.tail[t]++
	}
	if write {
		if ownerBefore != self || (hit && !wasMod) {
			r.mut++
		}
		e.owner1 = self
	}
	return true
}

// cthread is one thread's position in its block stream.
type cthread struct {
	cur       *accessplan.Cursor
	addr      []int64
	blockLeft int64
	chunkLeft int64 // parallel-innermost plans only
	newKey    bool  // the current block's first step starts a new chunk-run key
	atStart   bool  // the next step is the current block's first
	done      bool
}

// lineWindow returns the cache-line window [first,last] of a size-byte
// access at a. Shifts require a floor division, which matches the
// cache.LinesTouched truncating division only for non-negative
// addresses; negative ones take the slow path.
func lineWindow(a, size, lineSize int64, shift uint) (first, last int64) {
	if a >= 0 {
		return a >> shift, (a + size - 1) >> shift
	}
	return cache.LinesTouched(a, int32(size), lineSize)
}

// stepRefs models one lockstep step of thread t at the given reference
// addresses: consecutive references resolving to the same single cache
// line are coalesced into one state operation (write = OR of the group,
// ϕ attribution to the group's first reference — identical counting, see
// the equivalence proof in DESIGN.md §13), while the logical access
// count still credits every (reference, line) pair against the budget.
func (r *run) stepRefs(t int, addr []int64) error {
	ap := r.ap
	refs := ap.Refs
	nr := len(refs)
	lineSize := r.lineSize
	shift := ap.LineShift
	dense := r.dense
	for i := 0; i < nr; {
		first, last := lineWindow(addr[i], int64(refs[i].Size), lineSize, shift)
		if first == last {
			write := refs[i].Write
			g := int64(1)
			j := i + 1
			for j < nr {
				f2, l2 := lineWindow(addr[j], int64(refs[j].Size), lineSize, shift)
				if f2 != first || l2 != first {
					break
				}
				write = write || refs[j].Write
				g++
				j++
			}
			if err := r.addAccesses(g); err != nil {
				return err
			}
			if dense {
				if !r.accessLazy(t, first, write, i) {
					return errDenseRange
				}
			} else {
				r.accessMap(t, first, write, i)
			}
			i = j
			continue
		}
		for line := first; line <= last; line++ {
			if err := r.addAccesses(1); err != nil {
				return err
			}
			if dense {
				if !r.accessLazy(t, line, refs[i].Write, i) {
					return errDenseRange
				}
			} else {
				r.accessMap(t, line, refs[i].Write, i)
			}
		}
		i++
	}
	return nil
}

// sameLineSteps counts how many consecutive steps (including the current
// one) keep a size-byte access at a, advancing by stride per step, on
// exactly the same cache-line window.
func sameLineSteps(a, size, stride, lineSize int64, shift uint) int64 {
	if stride == 0 {
		return int64(1) << 62
	}
	if a < 0 {
		return 1
	}
	first := a >> shift
	last := (a + size - 1) >> shift
	if stride > 0 {
		k1 := (((first + 1) << shift) - 1 - a) / stride
		k2 := (((last + 1) << shift) - 1 - (a + size - 1)) / stride
		if k2 < k1 {
			k1 = k2
		}
		return k1 + 1
	}
	k1 := (a - (first << shift)) / (-stride)
	k2 := (a + size - 1 - (last << shift)) / (-stride)
	if k2 < k1 {
		k1 = k2
	}
	return k1 + 1
}

// batchWindow computes, before a step is processed, the largest L such
// that every active thread touches exactly the same cache-line windows
// for the next L steps (bounded to stay inside each thread's current
// block and, on parallel-innermost plans, its current owned chunk, so a
// batch can never cross a chunk-run boundary). It also fills batchAcc
// with each thread's logical accesses per step. Returns 0 when any
// thread is between blocks.
func (r *run) batchWindow(ts []cthread, batchAcc []int64) int64 {
	ap := r.ap
	refs := ap.Refs
	strides := ap.Strides()
	lineSize := r.lineSize
	shift := ap.LineShift
	parInner := ap.ParInnermost()
	L := int64(1) << 62
	for t := range ts {
		st := &ts[t]
		if st.done {
			batchAcc[t] = 0
			continue
		}
		if st.blockLeft == 0 {
			return 0
		}
		if st.blockLeft < L {
			L = st.blockLeft
		}
		if parInner && st.chunkLeft < L {
			L = st.chunkLeft
		}
		var acc int64
		for i := range refs {
			sz := int64(refs[i].Size)
			k := sameLineSteps(st.addr[i], sz, strides[i], lineSize, shift)
			if k < L {
				L = k
			}
			first, last := lineWindow(st.addr[i], sz, lineSize, shift)
			acc += last - first + 1
		}
		batchAcc[t] = acc
		if L <= 1 {
			return L
		}
	}
	return L
}

// executeCompiled drives the lockstep enumeration of the thread team:
// each thread walks precomputed access-run blocks instead of evaluating
// affine subscripts per iteration, with same-line coalescing and
// quiet-segment batching layered on top. Counters, attribution, budget
// aborts and chunk-run bookkeeping are bit-identical to the reference
// interpreter's (oracle_test.go).
func (r *run) executeCompiled() (*Result, error) {
	res := r.res
	ap := r.ap
	numThreads := r.plan.NumThreads
	parInner := ap.ParInnermost()
	strides := ap.Strides()
	skips := ap.Skips()
	chunkLen := ap.ChunkLen()
	nr := ap.NumRefs()

	ts := make([]cthread, numThreads)
	for t := range ts {
		ts[t] = cthread{cur: ap.Cursor(t), addr: make([]int64, nr)}
	}
	active := numThreads

	ex := newExtrapolator(r)
	trackBoundaries := r.trackRuns || ex != nil
	var t0Trips int64

	if r.budgeted {
		if err := r.budget.Check(0, r.estimateStateBytes()); err != nil {
			return nil, err
		}
	}

	batchable := ap.Batchable()
	batchAcc := make([]int64, numThreads)
	quietStreak := 0

	for active > 0 {
		res.Steps++
		var batchL int64
		if batchable && quietStreak >= 2 {
			batchL = r.batchWindow(ts, batchAcc)
		}
		evBefore := res.FSCases + res.Invalidations + res.ColdMisses + res.CapacityEvictions + r.mut
		for t := 0; t < numThreads; t++ {
			st := &ts[t]
			if st.done {
				continue
			}
			if st.blockLeft == 0 {
				steps, newKey, ok := st.cur.NextBlock(st.addr)
				if !ok {
					st.done = true
					active--
					continue
				}
				st.blockLeft = steps
				st.newKey = newKey
				st.chunkLeft = chunkLen
				st.atStart = true
			}
			res.Iterations++
			if t == 0 && trackBoundaries && (parInner || (st.atStart && st.newKey)) {
				t0Trips++
				if r.trackRuns {
					for completed := (t0Trips - 1) / r.plan.Chunk; res.ChunkRunsEvaluated < completed; {
						res.ChunkRunsEvaluated++
						if r.recordPerRun {
							res.PerRun = append(res.PerRun, res.FSCases)
						}
						if r.maxRuns > 0 && res.ChunkRunsEvaluated >= r.maxRuns {
							res.Truncated = true
							return res, nil
						}
					}
				}
				if ex != nil && (t0Trips-1)%r.plan.Chunk == 0 {
					closed, err := ex.boundary(r)
					if err != nil {
						return nil, err
					}
					if closed {
						return res, nil
					}
				}
			}
			st.atStart = false
			if err := r.stepRefs(t, st.addr); err != nil {
				return nil, err
			}
			st.blockLeft--
			if parInner {
				st.chunkLeft--
				if st.chunkLeft == 0 && st.blockLeft > 0 {
					st.chunkLeft = chunkLen
					for i := range st.addr {
						st.addr[i] += skips[i]
					}
				} else {
					for i := range st.addr {
						st.addr[i] += strides[i]
					}
				}
			} else {
				for i := range st.addr {
					st.addr[i] += strides[i]
				}
			}
		}
		if res.FSCases+res.Invalidations+res.ColdMisses+res.CapacityEvictions+r.mut == evBefore {
			quietStreak++
			if batchL > 1 {
				if err := r.replayQuiet(ts, batchL-1, batchAcc, &t0Trips, trackBoundaries); err != nil {
					return nil, err
				}
			}
		} else {
			quietStreak = 0
		}
	}
	if r.recordPerRun && r.plan.Chunk > 0 {
		finalRuns := (t0Trips + r.plan.Chunk - 1) / r.plan.Chunk
		for res.ChunkRunsEvaluated < finalRuns {
			res.ChunkRunsEvaluated++
			res.PerRun = append(res.PerRun, res.FSCases)
		}
	}
	return res, nil
}

// replayQuiet advances the whole team k further lockstep steps after a
// quiet probe step: every thread re-touches exactly the cache lines it
// touched in the probe with the same write sets, and the probe moved no
// counter, so each replayed step leaves the modeled state equivalent
// (resident lines stay resident — no evictions are possible — per-thread
// LRU order is restored by the identical touch sequence, and directory
// owners/holders are already absorbing). Only the counters and cursor
// positions advance; budget boundaries still fire at their exact values
// through addAccesses.
func (r *run) replayQuiet(ts []cthread, k int64, batchAcc []int64, t0Trips *int64, trackBoundaries bool) error {
	res := r.res
	ap := r.ap
	parInner := ap.ParInnermost()
	strides := ap.Strides()
	skips := ap.Skips()
	chunkLen := ap.ChunkLen()
	res.Steps += k
	var total int64
	for t := range ts {
		st := &ts[t]
		if st.done {
			continue
		}
		res.Iterations += k
		total += batchAcc[t] * k
		st.blockLeft -= k
		if parInner {
			st.chunkLeft -= k
			if st.chunkLeft == 0 && st.blockLeft > 0 {
				st.chunkLeft = chunkLen
				for i := range st.addr {
					st.addr[i] += strides[i]*(k-1) + skips[i]
				}
			} else {
				for i := range st.addr {
					st.addr[i] += strides[i] * k
				}
			}
		} else {
			for i := range st.addr {
				st.addr[i] += strides[i] * k
			}
		}
	}
	// The batch never crosses a chunk-run boundary (it is bounded by
	// thread 0's remaining chunk), so trip bookkeeping is a pure count.
	if trackBoundaries && parInner && !ts[0].done {
		*t0Trips += k
	}
	return r.addAccesses(total)
}
