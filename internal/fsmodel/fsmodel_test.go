package fsmodel

import (
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
)

func loadNest(t *testing.T, src string) *loopir.Nest {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	unit, err := loopir.Lower(prog, loopir.LowerOptions{AllowNonAffine: true})
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return unit.Nests[0]
}

func analyze(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := Analyze(loadNest(t, src), opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

// Two threads ping-ponging one cache line: every write after the first
// finds the line Modified in the other thread's cache state.
func TestPingPongHandComputed(t *testing.T) {
	src := `
#define N 8
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(2)
for (i = 0; i < N; i++) a[i] = 1.0;
`
	res := analyze(t, src, Options{Machine: machine.Paper48()})
	// 8 writes to one line, alternating threads in lockstep: the very
	// first write finds no Modified copy; each of the remaining 7 does.
	if res.FSCases != 7 {
		t.Fatalf("FS cases = %d, want 7", res.FSCases)
	}
	if res.Iterations != 8 || res.Accesses != 8 {
		t.Fatalf("iterations/accesses = %d/%d", res.Iterations, res.Accesses)
	}
	if res.Plan.NumThreads != 2 || res.Plan.Chunk != 1 {
		t.Fatalf("plan = %+v", res.Plan)
	}
}

// One line per element: no two threads ever share a line.
func TestNoSharingWhenElementsPadded(t *testing.T) {
	src := `
#define N 16
struct Padded { double v; double p1; double p2; double p3;
                double p4; double p5; double p6; double p7; };
struct Padded a[N];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < N; i++) a[i].v = 1.0;
`
	res := analyze(t, src, Options{Machine: machine.Paper48()})
	if res.FSCases != 0 {
		t.Fatalf("FS cases = %d, want 0 (64-byte elements)", res.FSCases)
	}
}

// Chunk alignment: chunk 8 doubles = exactly one line per chunk.
func TestChunkAlignedToLineEliminatesFS(t *testing.T) {
	src := `
#define N 64
double a[N];
#pragma omp parallel for num_threads(4)
for (i = 0; i < N; i++) a[i] = 1.0;
`
	nest := loadNest(t, src)
	for _, c := range []struct {
		chunk int64
		zero  bool
	}{{1, false}, {2, false}, {8, true}, {16, true}} {
		res, err := Analyze(nest, Options{Machine: machine.Paper48(), NumThreads: 4, Chunk: c.chunk})
		if err != nil {
			t.Fatal(err)
		}
		if c.zero && res.FSCases != 0 {
			t.Errorf("chunk %d: FS = %d, want 0", c.chunk, res.FSCases)
		}
		if !c.zero && res.FSCases == 0 {
			t.Errorf("chunk %d: FS = 0, want > 0", c.chunk)
		}
	}
}

// Read-only sharing must never count as false sharing.
func TestReadOnlySharingIsFree(t *testing.T) {
	src := `
#define N 64
double a[N];
double out[N];
#pragma omp parallel for schedule(static,8) num_threads(4)
for (i = 0; i < N; i++) out[i] = a[0] + a[i];
`
	res := analyze(t, src, Options{Machine: machine.Paper48()})
	if res.FSCases != 0 {
		t.Fatalf("FS cases = %d, want 0 (reads only on shared lines)", res.FSCases)
	}
}

// A read of a line another thread has modified IS a false-sharing case
// (paper's ϕ does not require the new access to be a write).
func TestReadOfRemotelyModifiedCounts(t *testing.T) {
	// Thread 0 writes w[0] (line W); all threads read w[0]? That would be
	// true sharing of the same element. Instead: thread writes w[i] for
	// its own i, neighbours read w[i+1] — classic read/write false
	// sharing on adjacent elements.
	src := `
#define N 8
double w[N];
double out[N];
#pragma omp parallel for schedule(static,4) num_threads(2)
for (i = 0; i < N; i++) {
    w[i] = 1.0;
    out[i] = w[7 - i];
}
`
	res := analyze(t, src, Options{Machine: machine.Paper48()})
	if res.FSCases == 0 {
		t.Fatal("expected FS from reads of remotely modified line")
	}
}

func TestFSChunkMonotonicityLinReg(t *testing.T) {
	kern, err := kernels.LinReg(64, 512, 4)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, chunk := range []int64{1, 2, 4, 8} {
		res, err := Analyze(kern.Nest, Options{Machine: machine.Paper48(), NumThreads: 4, Chunk: chunk})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.FSCases > prev {
			t.Fatalf("FS not non-increasing in chunk: %d then %d", prev, res.FSCases)
		}
		prev = res.FSCases
	}
	if prev != 0 {
		t.Fatalf("chunk 8 (320B = 5 lines) should eliminate FS, got %d", prev)
	}
}

func TestHeatDensityNearSevenEighths(t *testing.T) {
	kern, err := kernels.Heat(16, 512)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(kern.Nest, Options{Machine: machine.Paper48(), NumThreads: 8, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	density := res.FSPerIteration()
	// Eight consecutive doubles per line, eight threads writing them in
	// lockstep: ~7 of 8 stores hit a remotely modified line.
	if density < 0.8 || density > 0.92 {
		t.Fatalf("heat FS density = %.3f, want ~0.875", density)
	}
}

func TestMESIModeCountsInvalidations(t *testing.T) {
	src := `
#define N 32
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < N; i++) a[i] += 1.0;
`
	nest := loadNest(t, src)
	paper, err := Analyze(nest, Options{Machine: machine.Paper48(), Counting: CountPaperPhi})
	if err != nil {
		t.Fatal(err)
	}
	mesi, err := Analyze(nest, Options{Machine: machine.Paper48(), Counting: CountMESI})
	if err != nil {
		t.Fatal(err)
	}
	if paper.Invalidations != 0 {
		t.Fatalf("paper mode invalidations = %d", paper.Invalidations)
	}
	if mesi.Invalidations == 0 {
		t.Fatal("MESI mode should record invalidations")
	}
	if paper.FSCases == 0 || mesi.FSCases == 0 {
		t.Fatal("both modes should detect FS")
	}
}

func TestSetAssociativeAblationAgrees(t *testing.T) {
	kern, err := kernels.LinReg(64, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Analyze(kern.Nest, Options{Machine: machine.Paper48(), NumThreads: 4, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	assoc, err := Analyze(kern.Nest, Options{Machine: machine.Paper48(), NumThreads: 4, Chunk: 1, Associativity: 16})
	if err != nil {
		t.Fatal(err)
	}
	// For working sets far below capacity the two cache-state organizations
	// must agree closely (the paper's justification for modeling
	// fully-associative caches).
	ratio := float64(assoc.FSCases) / float64(full.FSCases)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("set-assoc FS %d vs fully-assoc %d (ratio %.3f)", assoc.FSCases, full.FSCases, ratio)
	}
}

func TestTinyStackDepthDropsState(t *testing.T) {
	// Each thread writes its own slot of the shared w line and then
	// streams through a scratch buffer. With an unbounded stack the w
	// line stays Modified between iterations and the neighbour's next
	// write is an FS case; with a one-line stack the scratch write evicts
	// (writes back) the w line first, so ϕ finds nothing — capacity
	// changes what the model can see, which is the point of the paper's
	// stack-depth parameter.
	src := `
#define N 8
#define K 64
double w[N];
double buf[N][K];
#pragma omp parallel for schedule(static,1) num_threads(2)
for (j = 0; j < N; j++)
  for (i = 0; i < K; i++) {
    w[j] = 1.0;
    buf[j][i] = 2.0;
  }
`
	nest := loadNest(t, src)
	deep, err := Analyze(nest, Options{Machine: machine.Paper48()})
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := Analyze(nest, Options{Machine: machine.Paper48(), StackDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if shallow.FSCases >= deep.FSCases {
		t.Fatalf("stack depth 1 should reduce detected FS: %d vs %d", shallow.FSCases, deep.FSCases)
	}
	if shallow.CapacityEvictions == 0 {
		t.Fatal("expected capacity evictions with depth 1")
	}
}

func TestChunkRunsTotalInnerParallel(t *testing.T) {
	// 6 outer instances × ceil(30/(2*3)) = 6 × 5 = 30 chunk runs.
	src := `
#define M 6
#define N 30
double a[M][N];
for (j = 0; j < M; j++)
  #pragma omp parallel for schedule(static,3) num_threads(2)
  for (i = 0; i < N; i++)
    a[j][i] = 1.0;
`
	res := analyze(t, src, Options{Machine: machine.Paper48()})
	if res.ChunkRunsTotal != 30 {
		t.Fatalf("chunk runs = %d, want 30", res.ChunkRunsTotal)
	}
}

func TestPerRunSeriesMonotoneAndComplete(t *testing.T) {
	src := `
#define N 256
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < N; i++) a[i] += 1.0;
`
	res := analyze(t, src, Options{Machine: machine.Paper48(), RecordPerRun: true})
	if int64(len(res.PerRun)) != res.ChunkRunsEvaluated {
		t.Fatalf("series length %d != runs %d", len(res.PerRun), res.ChunkRunsEvaluated)
	}
	if res.ChunkRunsEvaluated != res.ChunkRunsTotal {
		t.Fatalf("evaluated %d != total %d", res.ChunkRunsEvaluated, res.ChunkRunsTotal)
	}
	for i := 1; i < len(res.PerRun); i++ {
		if res.PerRun[i] < res.PerRun[i-1] {
			t.Fatal("cumulative series must be non-decreasing")
		}
	}
	if res.PerRun[len(res.PerRun)-1] != res.FSCases {
		t.Fatal("final series value must equal the total")
	}
}

func TestMaxChunkRunsTruncates(t *testing.T) {
	src := `
#define N 256
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < N; i++) a[i] += 1.0;
`
	res := analyze(t, src, Options{Machine: machine.Paper48(), MaxChunkRuns: 10})
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if res.ChunkRunsEvaluated != 10 {
		t.Fatalf("evaluated %d runs, want 10", res.ChunkRunsEvaluated)
	}
	if len(res.PerRun) != 10 {
		t.Fatalf("series = %d points", len(res.PerRun))
	}
}

func TestPredictAccuracyUniformPattern(t *testing.T) {
	src := `
#define N 4096
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < N; i++) a[i] += 1.0;
`
	nest := loadNest(t, src)
	full, err := Analyze(nest, Options{Machine: machine.Paper48()})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(nest, Options{Machine: machine.Paper48()}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rel := float64(pred.PredictedFS-full.FSCases) / float64(full.FSCases)
	if rel < -0.02 || rel > 0.02 {
		t.Fatalf("prediction %d vs full %d (%.2f%% error)", pred.PredictedFS, full.FSCases, rel*100)
	}
	if pred.Fit.R2 < 0.999 {
		t.Fatalf("R2 = %f", pred.Fit.R2)
	}
	if pred.IterationsEvaluated >= full.Iterations {
		t.Fatal("prediction should evaluate fewer iterations than the full model")
	}
}

func TestPredictErrors(t *testing.T) {
	src := `
#define N 64
double a[N];
#pragma omp parallel for num_threads(2)
for (i = 0; i < N; i++) a[i] = 1.0;
`
	nest := loadNest(t, src)
	if _, err := Predict(nest, Options{Machine: machine.Paper48()}, 1); err == nil {
		t.Fatal("sampleRuns < 2 must error")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	seq := loadNest(t, `
double a[8];
for (i = 0; i < 8; i++) a[i] = 1.0;
`)
	if _, err := Analyze(seq, Options{Machine: machine.Paper48()}); err == nil ||
		!strings.Contains(err.Error(), "no parallel loop") {
		t.Fatal("sequential nest must be rejected")
	}

	par := loadNest(t, `
double a[8];
#pragma omp parallel for
for (i = 0; i < 8; i++) a[i] = 1.0;
`)
	if _, err := Analyze(par, Options{Machine: machine.Paper48(), NumThreads: 65}); err == nil ||
		!strings.Contains(err.Error(), "64") {
		t.Fatal(">64 threads must be rejected")
	}
}

// TestAnalyzeValidatesMachine pins that Analyze checks its machine before
// any work: a hand-built description with a 48-byte line (not a power of
// two, so no access-run plan exists for it) is refused with the machine's
// own validation error.
func TestAnalyzeValidatesMachine(t *testing.T) {
	par := loadNest(t, `
double a[64];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < 64; i++) a[i] = 1.0;
`)
	d := *machine.Paper48()
	d.Name = "paper48-l48"
	d.LineSize = 48
	_, err := Analyze(par, Options{Machine: &d})
	if err == nil || !strings.Contains(err.Error(), "line size 48 not a power of two") {
		t.Fatalf("48-byte line: err = %v, want the machine validation error", err)
	}
	if _, err := analyzeOracle(par, Options{Machine: &d}); err == nil {
		t.Fatal("oracle accepted a 48-byte line")
	}
}

func TestNonAffineRefsReported(t *testing.T) {
	src := `
#define N 16
double a[N][N];
double b[N][N];
#pragma omp parallel for num_threads(2)
for (i = 0; i < N; i++)
  for (j = 0; j < N; j++)
    b[i][j] = a[i][i * j];
`
	res := analyze(t, src, Options{Machine: machine.Paper48()})
	if len(res.SkippedRefs) != 1 {
		t.Fatalf("skipped = %v", res.SkippedRefs)
	}
}

func TestDefaultsResolution(t *testing.T) {
	// Pragma-specified threads/chunk hold when options leave them unset.
	src := `
#define N 32
double a[N];
#pragma omp parallel for schedule(static,2) num_threads(4)
for (i = 0; i < N; i++) a[i] = 1.0;
`
	res := analyze(t, src, Options{Machine: machine.Paper48()})
	if res.Plan.NumThreads != 4 || res.Plan.Chunk != 2 {
		t.Fatalf("pragma defaults not honored: %+v", res.Plan)
	}
	// Explicit options override the pragma.
	res = analyze(t, src, Options{Machine: machine.Paper48(), NumThreads: 2, Chunk: 8})
	if res.Plan.NumThreads != 2 || res.Plan.Chunk != 8 {
		t.Fatalf("options should override pragma: %+v", res.Plan)
	}
}

func TestCountingModeString(t *testing.T) {
	if CountPaperPhi.String() != "paper-phi" || CountMESI.String() != "mesi" {
		t.Fatal("mode names wrong")
	}
}

// The FS total must not depend on which thread id observes which chunk —
// analyzing twice must be deterministic.
func TestDeterminism(t *testing.T) {
	kern, err := kernels.DFT(96)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(kern.Nest, Options{Machine: machine.Paper48(), NumThreads: 6, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(kern.Nest, Options{Machine: machine.Paper48(), NumThreads: 6, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.FSCases != b.FSCases || a.Accesses != b.Accesses {
		t.Fatal("analysis is not deterministic")
	}
}

func TestVictimAttribution(t *testing.T) {
	// Writes to w[] false-share; reads of r[] do not. Attribution must
	// point the finger exclusively at w.
	src := `
#define N 64
double w[N];
double r[N];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < N; i++) w[i] = r[i];
`
	res := analyze(t, src, Options{Machine: machine.Paper48()})
	if res.FSCases == 0 {
		t.Fatal("expected FS")
	}
	victims := res.Victims()
	if len(victims) != 1 || victims[0].Symbol != "w" || !victims[0].Write {
		t.Fatalf("victims = %+v", victims)
	}
	if victims[0].FSCases != res.FSCases {
		t.Fatalf("attribution %d != total %d", victims[0].FSCases, res.FSCases)
	}
	syms := res.VictimSymbols()
	if len(syms) != 1 || syms[0].Symbol != "w" {
		t.Fatalf("victim symbols = %+v", syms)
	}
}

func TestVictimAttributionSumsToTotal(t *testing.T) {
	kern, err := kernels.LinReg(64, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(kern.Nest, Options{Machine: machine.Paper48(), NumThreads: 4, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, a := range res.ByRef {
		sum += a.FSCases
	}
	if sum != res.FSCases {
		t.Fatalf("attribution sum %d != total %d", sum, res.FSCases)
	}
	// All FS must land on the accumulator struct, none on the points.
	for _, v := range res.VictimSymbols() {
		if v.Symbol != "tid_args" {
			t.Fatalf("unexpected victim %q", v.Symbol)
		}
	}
}

// TestPerRunDifferencesConstant is the property behind the paper's Fig. 6
// and Section III-E: for a uniform access pattern, the FS increment per
// chunk run is constant after warm-up, which is exactly what makes linear
// extrapolation sound.
func TestPerRunDifferencesConstant(t *testing.T) {
	src := `
#define N 2048
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(8)
for (i = 0; i < N; i++) a[i] += 1.0;
`
	// Eight threads at chunk 1 cover exactly one 64-byte line per chunk
	// run, so the steady-state increment is the same every run.
	res := analyze(t, src, Options{Machine: machine.Paper48(), RecordPerRun: true})
	if len(res.PerRun) < 10 {
		t.Fatalf("runs = %d", len(res.PerRun))
	}
	// Skip the first (cold) run; every subsequent increment must be equal.
	inc := res.PerRun[2] - res.PerRun[1]
	for i := 3; i < len(res.PerRun); i++ {
		if got := res.PerRun[i] - res.PerRun[i-1]; got != inc {
			t.Fatalf("run %d increment %d != %d", i, got, inc)
		}
	}
}

// TestDynamicScheduleModeledAsStatic documents the paper's assumption:
// dynamic and guided schedules parse but are modeled with the static
// round-robin distribution (Section III: "chunks of a loop are
// distributed to threads in a round-robin fashion").
func TestDynamicScheduleModeledAsStatic(t *testing.T) {
	mk := func(kind string) string {
		return `
#define N 128
double a[N];
#pragma omp parallel for schedule(` + kind + `,1) num_threads(4)
for (i = 0; i < N; i++) a[i] = 1.0;
`
	}
	static := analyze(t, mk("static"), Options{Machine: machine.Paper48()})
	dynamic := analyze(t, mk("dynamic"), Options{Machine: machine.Paper48()})
	guided := analyze(t, mk("guided"), Options{Machine: machine.Paper48()})
	if dynamic.FSCases != static.FSCases || guided.FSCases != static.FSCases {
		t.Fatalf("schedule kinds modeled differently: %d / %d / %d",
			static.FSCases, dynamic.FSCases, guided.FSCases)
	}
}

func TestHotLines(t *testing.T) {
	src := `
#define N 32
double w[N];
double r[N];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < N; i++) w[i] = r[i];
`
	nest := loadNest(t, src)
	res, err := Analyze(nest, Options{Machine: machine.Paper48(), TrackHotLines: true})
	if err != nil {
		t.Fatal(err)
	}
	hot := res.HotLines(nest, 64, 10)
	if len(hot) != 4 { // 32 doubles = 4 lines, all contended
		t.Fatalf("hot lines = %d: %+v", len(hot), hot)
	}
	var sum int64
	for _, h := range hot {
		if h.Symbol != "w" {
			t.Fatalf("hot line attributed to %q", h.Symbol)
		}
		if h.Offset%64 != 0 || h.Offset >= 32*8 {
			t.Fatalf("offset = %d", h.Offset)
		}
		sum += h.FSCases
	}
	if sum != res.FSCases {
		t.Fatalf("hot line sum %d != total %d", sum, res.FSCases)
	}
	// Top-n truncation and sorting.
	top := res.HotLines(nest, 64, 2)
	if len(top) != 2 || top[0].FSCases < top[1].FSCases {
		t.Fatalf("top-2 = %+v", top)
	}
	// Without the option, no line data.
	res2, err := Analyze(nest, Options{Machine: machine.Paper48()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.HotLines(nest, 64, 10) != nil {
		t.Fatal("hot lines tracked without the option")
	}
}
