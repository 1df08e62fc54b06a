// Package costmodel implements the Open64-style loop-nest cost models the
// paper builds on (Section II-B): the processor model (machine cycles per
// iteration from resource and dependence constraints), the footprint-based
// cache and TLB models, the loop-overhead model, and the parallel model
// (OpenMP fork/join, scheduling and barrier overheads). Equation 1 of the
// paper combines them with the false-sharing term:
//
//	Total_c = FalseSharing_c + Machine_c + Cache_c + TLB_c
//	        + Parallel_Overhead_c + Loop_Overhead_c
//
// The models are deliberately analytical (no simulation): they consume
// only the loop IR and a machine description, exactly like a compiler.
package costmodel

import (
	"fmt"
	"math"

	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Breakdown is the per-component cost estimate for one parallel loop.
// Per-iteration components are cycles per innermost iteration; totals are
// wall-clock cycles for the whole loop executed by the thread team.
type Breakdown struct {
	// Processor model (Machine_c_per_iter).
	MachinePerIter   float64
	ResourceCycles   float64 // the resource-constrained bound
	DependencyCycles float64 // the dependence-latency bound

	// Cache and TLB models.
	CachePerIter float64
	TLBPerIter   float64

	// Loop overhead model.
	LoopOverheadPerIter float64

	// Parallel model totals (cycles, whole loop).
	ParallelOverhead float64

	// Iteration geometry.
	TotalIterations     int64 // innermost iterations over all threads
	IterationsPerThread float64
	ParallelInstances   int64 // how many times the parallel region is entered

	// BaseWallCycles is the FS-free wall-clock estimate:
	// perIter × itersPerThread + ParallelOverhead.
	BaseWallCycles float64
}

// PerIter returns the summed per-iteration cycle cost (without FS).
func (b Breakdown) PerIter() float64 {
	return b.MachinePerIter + b.CachePerIter + b.TLBPerIter + b.LoopOverheadPerIter
}

// TotalWithFS applies Equation 1: base cost plus the false-sharing term.
// fsCases is the modeled N_fs (FSWallCycles prices it).
func (b Breakdown) TotalWithFS(fsCases int64, m *machine.Desc, threads int) float64 {
	return b.BaseWallCycles + FSWallCycles(fsCases, m, threads)
}

// Work is the loop's aggregate cost in cycles summed over the thread
// team: the per-iteration cost of every iteration plus the parallel
// overhead. It is Total_c before the FS term in the aggregate form that
// FSShare and the experiment tables' normalization use.
func (b Breakdown) Work() float64 {
	return b.PerIter()*float64(b.TotalIterations) + b.ParallelOverhead
}

// FSShare is the FS term's share of Total_c in aggregate form: fsCases
// undivided coherence penalties over Work plus those penalties, or 0 when
// both are zero.
func (b Breakdown) FSShare(fsCases int64, m *machine.Desc) float64 {
	fsWork := float64(fsCases) * float64(m.CoherenceLatency)
	total := b.Work() + fsWork
	if total <= 0 {
		return 0
	}
	return fsWork / total
}

// FSWallCycles is Equation 1's FS term in wall cycles: one cache-to-cache
// coherence transfer per case, spread over the thread team (FS misses are
// incurred concurrently on different cores). fsvet (internal/govet) uses
// it directly to price a closed-form straddle count.
func FSWallCycles(fsCases int64, m *machine.Desc, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	return float64(fsCases) * float64(m.CoherenceLatency) / float64(threads)
}

// String renders the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf(
		"machine=%.2f cache=%.2f tlb=%.2f loop=%.2f cyc/iter; parallel=%.0f cyc; base wall=%.0f cyc (%d iters, %d instances)",
		b.MachinePerIter, b.CachePerIter, b.TLBPerIter, b.LoopOverheadPerIter,
		b.ParallelOverhead, b.BaseWallCycles, b.TotalIterations, b.ParallelInstances)
}

// Estimate computes the full cost breakdown for a nest under a plan.
func Estimate(nest *loopir.Nest, m *machine.Desc, plan sched.Plan) (Breakdown, error) {
	if err := m.Validate(); err != nil {
		return Breakdown{}, err
	}
	if err := plan.Validate(); err != nil {
		return Breakdown{}, err
	}
	var b Breakdown
	b.ResourceCycles, b.DependencyCycles, b.MachinePerIter = ProcessorModel(nest.Ops, m)
	b.CachePerIter, b.TLBPerIter = CacheModel(nest, m)
	b.LoopOverheadPerIter = LoopOverheadModel(nest, m)

	total, ok := nest.TotalIterations()
	if !ok {
		return Breakdown{}, fmt.Errorf("costmodel: nest has non-constant bounds; cannot estimate totals")
	}
	b.TotalIterations = total
	b.IterationsPerThread = float64(total) / float64(plan.NumThreads)

	b.ParallelInstances = parallelInstances(nest)
	b.ParallelOverhead = ParallelModel(nest, m, plan, b.ParallelInstances)

	b.BaseWallCycles = b.PerIter()*b.IterationsPerThread + b.ParallelOverhead
	return b, nil
}

// ProcessorModel estimates Machine_c_per_iter: the cycles to execute one
// innermost iteration, as the maximum of the resource-constrained
// throughput bound and the dependence-latency bound (paper Fig. 3).
func ProcessorModel(ops loopir.OpCounts, m *machine.Desc) (resource, dependency, machineC float64) {
	memOps := float64(ops.Loads + ops.Stores)
	// Divides occupy the FP unit for multiple cycles.
	fpOps := float64(ops.FPAdds+ops.FPMuls) + float64(ops.FPDivs)*float64(m.FPDivLat)
	intOps := float64(ops.IntOps)
	totalOps := memOps + float64(ops.FPAdds+ops.FPMuls+ops.FPDivs) + intOps

	resource = memOps / float64(max(1, m.MemUnits))
	if v := fpOps / float64(max(1, m.FPUnits)); v > resource {
		resource = v
	}
	if v := intOps / float64(max(1, m.IntUnits)); v > resource {
		resource = v
	}
	if v := totalOps / float64(max(1, m.IssueWidth)); v > resource {
		resource = v
	}

	// Dependence latency: the longest chain of dependent FP operations in
	// one statement (e.g. the add of a multiply-accumulate waiting on the
	// multiply), fed by one load.
	dependency = 0
	if ops.MaxChain > 0 {
		dependency = float64(m.LoadLat) + float64(ops.MaxChain)*float64(m.FPAddLat)
	}
	// Loop-carried accumulator recurrences serialize on the add latency,
	// but unroll-and-reassociate hides most of it; the resource bound
	// usually dominates on balanced kernels.
	machineC = math.Max(resource, dependency/float64(max(1, ops.Assigns)))
	if machineC < 1 {
		machineC = 1
	}
	return resource, dependency, machineC
}

// refGroup is a set of references with identical variable coefficients on
// the same array whose constant offsets fall within one cache line — the
// Open64 notion of a reference group: members share footprints (a[i] and
// a[i+1] count once, paper Section II-B2).
type refGroup struct {
	stride    int64 // bytes advanced per innermost iteration
	footBytes int64 // span of the group's region across the whole nest
	write     bool
}

// CacheModel estimates Cache_c and TLB_c per innermost iteration using the
// footprint method: new cache lines consumed per iteration, served by the
// shallowest cache level whose capacity holds the loop's working set.
func CacheModel(nest *loopir.Nest, m *machine.Desc) (cachePerIter, tlbPerIter float64) {
	groups := referenceGroups(nest, m.LineSize)

	var newLinesPerIter float64
	var newPagesPerIter float64
	var workingSet int64
	for _, g := range groups {
		stride := g.stride
		if stride < 0 {
			stride = -stride
		}
		if stride > m.LineSize {
			stride = m.LineSize // one access touches at most one new line
		}
		newLinesPerIter += float64(stride) / float64(m.LineSize)
		pstride := stride
		if pstride > m.PageSize {
			pstride = m.PageSize
		}
		newPagesPerIter += float64(pstride) / float64(m.PageSize)
		workingSet += g.footBytes
	}

	// The provider of a new line is the shallowest level that holds the
	// working set (so lines evicted between reuses are refetched from the
	// next level out).
	provider := float64(m.MemLatency)
	switch {
	case m.L1.SizeBytes > 0 && workingSet <= m.L1.SizeBytes:
		// Working set is cache resident: only cold misses, amortized to ~0
		// per steady-state iteration.
		provider = 0
	case m.L2.SizeBytes > 0 && workingSet <= m.L2.SizeBytes:
		provider = float64(m.L2Latency)
	case m.L3.SizeBytes > 0 && workingSet <= m.L3.SizeBytes:
		provider = float64(m.L3Latency)
	}
	cachePerIter = newLinesPerIter * provider

	tlbReach := m.TLBEntries * m.PageSize
	if workingSet > tlbReach {
		tlbPerIter = newPagesPerIter * float64(m.TLBLatency)
	}
	return cachePerIter, tlbPerIter
}

// referenceGroups clusters the nest's affine references per Open64's
// spatial-reuse rule.
func referenceGroups(nest *loopir.Nest, lineSize int64) []refGroup {
	inner := nest.Innermost().Var
	type key struct {
		sym    string
		coeffs string
	}
	byKey := map[key][]loopir.Ref{}
	for _, r := range nest.AnalyzableRefs() {
		coeffSig := ""
		for _, v := range r.Offset.Vars() {
			coeffSig += fmt.Sprintf("%s*%d;", v, r.Offset.Coeff(v))
		}
		k := key{sym: r.Sym.Name, coeffs: coeffSig}
		byKey[k] = append(byKey[k], r)
	}
	var out []refGroup
	for _, refs := range byKey {
		// Split the cluster into line-sized constant-offset groups.
		used := make([]bool, len(refs))
		for i := range refs {
			if used[i] {
				continue
			}
			g := refGroup{stride: refs[i].Offset.Coeff(inner) * strideOf(nest, inner)}
			base := refs[i].Offset.ConstTerm
			lo, hi := base, base
			used[i] = true
			g.write = refs[i].Write
			for j := i + 1; j < len(refs); j++ {
				if used[j] {
					continue
				}
				d := refs[j].Offset.ConstTerm - base
				if d < 0 {
					d = -d
				}
				if d < lineSize {
					used[j] = true
					g.write = g.write || refs[j].Write
					if refs[j].Offset.ConstTerm < lo {
						lo = refs[j].Offset.ConstTerm
					}
					if refs[j].Offset.ConstTerm > hi {
						hi = refs[j].Offset.ConstTerm
					}
				}
			}
			g.footBytes = footprintBytes(nest, refs[i]) + (hi - lo)
			out = append(out, g)
		}
	}
	return out
}

func strideOf(nest *loopir.Nest, v string) int64 {
	for _, l := range nest.Loops {
		if l.Var == v {
			return l.Step
		}
	}
	return 1
}

// footprintBytes estimates the byte span a reference sweeps over the whole
// nest: sum over loop variables of |coeff| × (trips-1) × |step|, plus the
// element itself.
func footprintBytes(nest *loopir.Nest, r loopir.Ref) int64 {
	span := r.Size
	for _, l := range nest.Loops {
		c := r.Offset.Coeff(l.Var)
		if c < 0 {
			c = -c
		}
		if c == 0 {
			continue
		}
		trips, ok := l.ConstTripCount()
		if !ok || trips <= 0 {
			trips = 1
		}
		step := l.Step
		if step < 0 {
			step = -step
		}
		span += c * (trips - 1) * step
	}
	return span
}

// LoopOverheadModel estimates Loop_overhead_per_iter: index increment and
// bound test, charged per innermost iteration with the outer levels
// amortized over their inner trip counts.
func LoopOverheadModel(nest *loopir.Nest, m *machine.Desc) float64 {
	per := float64(m.LoopOverheadPerIter)
	total := per // innermost level
	amort := 1.0
	for i := len(nest.Loops) - 1; i > 0; i-- {
		trips, ok := nest.Loops[i].ConstTripCount()
		if !ok || trips < 1 {
			trips = 1
		}
		amort *= float64(trips)
		total += per / amort
	}
	return total
}

// ParallelModel estimates the OpenMP overhead (cycles) for the whole loop:
// per entered parallel region a fork/join startup and a barrier whose cost
// grows with the team size, plus a dispatch cost per scheduled chunk.
func ParallelModel(nest *loopir.Nest, m *machine.Desc, plan sched.Plan, instances int64) float64 {
	if instances < 1 {
		instances = 1
	}
	parTrips := int64(0)
	if p := nest.Parallelized(); p != nil {
		if t, ok := p.ConstTripCount(); ok {
			parTrips = t
		}
	}
	chunksPerThread := float64(0)
	if parTrips > 0 {
		totalChunks := float64(parTrips) / float64(plan.Chunk)
		chunksPerThread = totalChunks / float64(plan.NumThreads)
	}
	barrier := float64(m.BarrierPerThread) * math.Log2(float64(plan.NumThreads)+1)
	perInstance := float64(m.ParallelStartup) + barrier + float64(m.ChunkDispatch)*chunksPerThread
	return float64(instances) * perInstance
}

func parallelInstances(nest *loopir.Nest) int64 {
	n := int64(1)
	for i := 0; i < nest.ParLevel; i++ {
		if t, ok := nest.Loops[i].ConstTripCount(); ok && t > 0 {
			n *= t
		}
	}
	return n
}
