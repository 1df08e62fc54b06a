package costmodel

import (
	"testing"

	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/sched"
)

func loadNest(t *testing.T, src string) *loopir.Nest {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	unit, err := loopir.Lower(prog, loopir.LowerOptions{})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return unit.Nests[0]
}

func TestProcessorModelBounds(t *testing.T) {
	m := machine.Paper48()
	// 4 loads + 1 store = 5 mem ops on 2 ports → resource ≥ 2.5;
	// 3 FP adds + 1 mul = 4 FP ops on 1 unit → resource ≥ 4.
	ops := loopir.OpCounts{Loads: 4, Stores: 1, FPAdds: 3, FPMuls: 1, Assigns: 1, MaxChain: 4}
	resource, dep, mc := ProcessorModel(ops, m)
	if resource < 4 {
		t.Fatalf("resource = %f, want >= 4 (FP bound)", resource)
	}
	if dep <= 0 {
		t.Fatalf("dependency = %f", dep)
	}
	if mc < resource {
		t.Fatalf("machine cycles %f below resource bound %f", mc, resource)
	}
	// Empty body still costs at least a cycle.
	_, _, mc0 := ProcessorModel(loopir.OpCounts{}, m)
	if mc0 < 1 {
		t.Fatalf("empty body cost = %f", mc0)
	}
}

func TestProcessorModelDivExpensive(t *testing.T) {
	m := machine.Paper48()
	_, _, noDiv := ProcessorModel(loopir.OpCounts{FPAdds: 1, Assigns: 1, MaxChain: 1}, m)
	_, _, withDiv := ProcessorModel(loopir.OpCounts{FPDivs: 1, Assigns: 1, MaxChain: 1}, m)
	if withDiv <= noDiv {
		t.Fatalf("division should dominate: %f vs %f", withDiv, noDiv)
	}
}

func TestCacheModelStreamVsResident(t *testing.T) {
	m := machine.Paper48()
	// Large streaming array: working set >> L3 → lines from memory.
	big := loadNest(t, `
#define N 4000000
double a[N];
#pragma omp parallel for
for (i = 0; i < N; i++) a[i] = 1.0;
`)
	cBig, _ := CacheModel(big, m)
	// Tiny array: resident in L1 → ~0 steady-state.
	small := loadNest(t, `
#define N 64
double a[N];
#pragma omp parallel for
for (i = 0; i < N; i++) a[i] = 1.0;
`)
	cSmall, _ := CacheModel(small, m)
	if cBig <= cSmall {
		t.Fatalf("streaming cost %f should exceed resident cost %f", cBig, cSmall)
	}
	if cSmall != 0 {
		t.Fatalf("L1-resident cost = %f, want 0", cSmall)
	}
	// Stride-1 doubles: 1/8 of a line per iteration.
	wantLines := 1.0 / 8.0
	if got := cBig / float64(m.MemLatency); got < wantLines*0.9 || got > wantLines*1.1 {
		t.Fatalf("lines/iter = %f, want ~%f", got, wantLines)
	}
}

func TestCacheModelReferenceGroups(t *testing.T) {
	m := machine.Paper48()
	// a[i], a[i+1], a[i-1] are one reference group (same line): the cost
	// must match a single reference, not triple it.
	grouped := loadNest(t, `
#define N 4000000
double a[N];
double b[N];
#pragma omp parallel for
for (i = 1; i < N - 1; i++) b[i] = a[i - 1] + a[i] + a[i + 1];
`)
	single := loadNest(t, `
#define N 4000000
double a[N];
double b[N];
#pragma omp parallel for
for (i = 1; i < N - 1; i++) b[i] = a[i];
`)
	cGrouped, _ := CacheModel(grouped, m)
	cSingle, _ := CacheModel(single, m)
	if diff := cGrouped - cSingle; diff > 0.1*cSingle {
		t.Fatalf("reference grouping failed: %f vs %f", cGrouped, cSingle)
	}
}

func TestTLBModel(t *testing.T) {
	m := machine.Paper48()
	// Working set beyond TLB reach (512 entries × 4 KiB = 2 MiB).
	big := loadNest(t, `
#define N 4000000
double a[N];
#pragma omp parallel for
for (i = 0; i < N; i++) a[i] = 1.0;
`)
	_, tlbBig := CacheModel(big, m)
	if tlbBig <= 0 {
		t.Fatalf("TLB cost = %f, want > 0 for 32 MB working set", tlbBig)
	}
	small := loadNest(t, `
#define N 1024
double a[N];
#pragma omp parallel for
for (i = 0; i < N; i++) a[i] = 1.0;
`)
	_, tlbSmall := CacheModel(small, m)
	if tlbSmall != 0 {
		t.Fatalf("TLB cost = %f for TLB-resident set", tlbSmall)
	}
}

func TestLoopOverheadAmortization(t *testing.T) {
	m := machine.Paper48()
	deep := loadNest(t, `
#define N 100
double a[N][N];
#pragma omp parallel for
for (j = 0; j < N; j++)
  for (i = 0; i < N; i++)
    a[j][i] = 1.0;
`)
	ov := LoopOverheadModel(deep, m)
	per := float64(m.LoopOverheadPerIter)
	if ov < per || ov > per*1.5 {
		t.Fatalf("overhead = %f, want within [%f, %f] (outer level amortized)", ov, per, per*1.5)
	}
}

func TestParallelModelScalesWithInstancesAndThreads(t *testing.T) {
	m := machine.Paper48()
	nest := loadNest(t, `
#define N 1000
double a[N];
#pragma omp parallel for
for (i = 0; i < N; i++) a[i] = 1.0;
`)
	// Large chunks make per-chunk dispatch negligible, isolating the
	// barrier term, which grows with team size.
	p2 := sched.Plan{Kind: sched.Static, NumThreads: 2, Chunk: 500}
	p32 := sched.Plan{Kind: sched.Static, NumThreads: 32, Chunk: 500}
	if ParallelModel(nest, m, p32, 1) <= ParallelModel(nest, m, p2, 1) {
		t.Fatal("barrier cost should grow with team size")
	}
	if ParallelModel(nest, m, p2, 10) <= ParallelModel(nest, m, p2, 1) {
		t.Fatal("cost should grow with instance count")
	}
	// At chunk=1 the dispatch term dominates and shrinks per thread: the
	// model must reflect that work-sharing amortizes scheduling.
	c2 := ParallelModel(nest, m, sched.Plan{Kind: sched.Static, NumThreads: 2, Chunk: 1}, 1)
	c32 := ParallelModel(nest, m, sched.Plan{Kind: sched.Static, NumThreads: 32, Chunk: 1}, 1)
	if c32 >= c2 {
		t.Fatal("per-thread dispatch cost should shrink with team size")
	}
}

func TestEstimateBreakdown(t *testing.T) {
	m := machine.Paper48()
	nest := loadNest(t, `
#define N 10000
double a[N];
double b[N];
#pragma omp parallel for schedule(static,8) num_threads(8)
for (i = 0; i < N; i++) a[i] += b[i];
`)
	plan := sched.Plan{Kind: sched.Static, NumThreads: 8, Chunk: 8}
	bd, err := Estimate(nest, m, plan)
	if err != nil {
		t.Fatal(err)
	}
	if bd.TotalIterations != 10000 {
		t.Fatalf("iterations = %d", bd.TotalIterations)
	}
	if bd.IterationsPerThread != 1250 {
		t.Fatalf("iters/thread = %f", bd.IterationsPerThread)
	}
	if bd.ParallelInstances != 1 {
		t.Fatalf("instances = %d", bd.ParallelInstances)
	}
	if bd.PerIter() <= 0 || bd.BaseWallCycles <= 0 {
		t.Fatalf("degenerate breakdown: %+v", bd)
	}
	// Equation 1: adding FS strictly increases the total.
	if bd.TotalWithFS(1000, m, 8) <= bd.BaseWallCycles {
		t.Fatal("FS term should increase Total_c")
	}
	if bd.String() == "" {
		t.Fatal("String empty")
	}
}

func TestEstimateInnerParallelInstances(t *testing.T) {
	m := machine.Paper48()
	nest := loadNest(t, `
#define M 10
#define N 100
double a[M][N];
for (j = 0; j < M; j++)
  #pragma omp parallel for
  for (i = 0; i < N; i++)
    a[j][i] = 1.0;
`)
	plan := sched.Plan{Kind: sched.Static, NumThreads: 4, Chunk: 1}
	bd, err := Estimate(nest, m, plan)
	if err != nil {
		t.Fatal(err)
	}
	if bd.ParallelInstances != 10 {
		t.Fatalf("instances = %d, want 10 (one per outer iteration)", bd.ParallelInstances)
	}
}

func TestEstimateErrors(t *testing.T) {
	m := machine.Paper48()
	nest := loadNest(t, `
#define N 8
double a[N][N];
#pragma omp parallel for
for (j = 0; j < N; j++)
  for (i = j; i < N; i++)
    a[j][i] = 1.0;
`)
	plan := sched.Plan{Kind: sched.Static, NumThreads: 2, Chunk: 1}
	if _, err := Estimate(nest, m, plan); err == nil {
		t.Fatal("non-constant bounds must be rejected for totals")
	}
	good := loadNest(t, `
double a[8];
#pragma omp parallel for
for (i = 0; i < 8; i++) a[i] = 1.0;
`)
	if _, err := Estimate(good, m, sched.Plan{}); err == nil {
		t.Fatal("invalid plan must be rejected")
	}
}

// TestWorkAndFSShare pins Equation 1's aggregate form: Work is the
// per-iteration cost of every iteration plus the parallel overhead, and
// FSShare is N_fs undivided coherence penalties over Work plus those
// penalties.
func TestWorkAndFSShare(t *testing.T) {
	m := *machine.Paper48()
	m.CoherenceLatency = 100
	b := Breakdown{
		MachinePerIter:      2,
		CachePerIter:        1.5,
		TLBPerIter:          0.25,
		LoopOverheadPerIter: 0.25,
		ParallelOverhead:    1000,
		TotalIterations:     1000,
		BaseWallCycles:      1e9, // the wall form plays no part
	}
	if got := b.Work(); got != 5000 {
		t.Fatalf("Work = %v, want 4 cycles/iter × 1000 iters + 1000 = 5000", got)
	}
	if got := b.FSShare(50, &m); got != 0.5 {
		t.Fatalf("FSShare(50) = %v, want 5000/(5000+5000) = 0.5", got)
	}
	if got := b.FSShare(0, &m); got != 0 {
		t.Fatalf("FSShare(0) = %v, want 0", got)
	}
	if got := (Breakdown{}).FSShare(0, &m); got != 0 {
		t.Fatalf("empty FSShare = %v, want 0", got)
	}

	// On a real estimate the share grows with N_fs and stays below 1.
	nest := loadNest(t, `
#define N 10000
double a[N];
#pragma omp parallel for
for (i = 0; i < N; i++) a[i] += 1.0;
`)
	bd, err := Estimate(nest, machine.Paper48(), sched.Plan{Kind: sched.Static, NumThreads: 8, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := bd.FSShare(100, machine.Paper48()), bd.FSShare(9000, machine.Paper48())
	if lo <= 0 || hi <= lo || hi >= 1 {
		t.Fatalf("FSShare(100) = %v, FSShare(9000) = %v, want 0 < lo < hi < 1", lo, hi)
	}
}

func TestReuseDistanceStreamingMatchesFootprint(t *testing.T) {
	m := machine.Paper48()
	// A streaming loop whose working set exceeds the L3: both cache
	// models must converge on "one memory fetch per line", i.e.
	// MemLatency/8 cycles per iteration for stride-1 doubles. (For
	// L3-resident single-pass streams the models legitimately differ:
	// the footprint model assumes steady-state reuse, the reuse-distance
	// model charges the cold pass to memory.)
	nest := loadNest(t, `
#define N 4000000
double a[N];
#pragma omp parallel for
for (i = 0; i < N; i++) a[i] = 1.0;
`)
	foot, _ := CacheModel(nest, m)
	rd, err := CacheModelReuseDistance(nest, m, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Truncated {
		t.Fatal("expected truncation at 500k iterations")
	}
	ratio := rd.CachePerIter / foot
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("reuse-dist %.3f vs footprint %.3f cycles/iter (ratio %.2f)",
			rd.CachePerIter, foot, ratio)
	}
}

func TestReuseDistanceResidentIsCheap(t *testing.T) {
	m := machine.Paper48()
	// Small working set revisited many times: only cold misses, amortized
	// to ~0 per iteration.
	nest := loadNest(t, `
#define N 512
#define R 64
double a[N];
#pragma omp parallel for
for (r = 0; r < R; r++)
  for (i = 0; i < N; i++)
    a[i] += 1.0;
`)
	rd, err := CacheModelReuseDistance(nest, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 512 doubles = 64 lines of cold misses over 32768 iterations.
	if rd.L1Misses != 64 {
		t.Fatalf("L1 misses = %d, want 64 cold", rd.L1Misses)
	}
	if rd.CachePerIter > 0.5 {
		t.Fatalf("resident cost = %.3f cycles/iter", rd.CachePerIter)
	}
}

func TestReuseDistanceCapacityBehaviour(t *testing.T) {
	// Working set between L1 (64KB = 1024 lines) and L2: repeated sweeps
	// must miss L1 every pass but hit L2.
	m := machine.Paper48()
	nest := loadNest(t, `
#define N 16384
#define R 4
double a[N];
#pragma omp parallel for
for (r = 0; r < R; r++)
  for (i = 0; i < N; i++)
    a[i] += 1.0;
`)
	rd, err := CacheModelReuseDistance(nest, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := int64(16384 * 8 / 64) // 2048 lines > L1's 1024
	if rd.L1Misses < 3*lines {
		t.Fatalf("L1 misses = %d, want ~%d (miss every pass)", rd.L1Misses, 4*lines)
	}
	if rd.L2Misses != lines {
		t.Fatalf("L2 misses = %d, want %d (cold only)", rd.L2Misses, lines)
	}
}

func TestReuseDistanceTruncation(t *testing.T) {
	m := machine.Paper48()
	nest := loadNest(t, `
#define N 100000
double a[N];
#pragma omp parallel for
for (i = 0; i < N; i++) a[i] = 1.0;
`)
	rd, err := CacheModelReuseDistance(nest, m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Truncated || rd.Iterations != 1000 {
		t.Fatalf("truncation failed: %+v", rd)
	}
}
