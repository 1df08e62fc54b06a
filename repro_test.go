package repro

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/fsmodel"
	"repro/internal/kernels"
)

const victim = `
#define N 1024

double sums[N];
double data[N];

#pragma omp parallel for private(i) schedule(static,1) num_threads(4)
for (i = 0; i < N; i++)
    sums[i] += data[i] * data[i];
`

func TestParseAndNestInfo(t *testing.T) {
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumNests() != 1 {
		t.Fatalf("nests = %d", prog.NumNests())
	}
	info, err := prog.Nest(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Depth != 1 || info.ParallelLevel != 0 || info.Iterations != 1024 {
		t.Fatalf("info = %+v", info)
	}
	if info.References != 4 { // read data, read sums, write sums... plus data again? R data, R sums, W sums = 3? data read twice.
		t.Logf("references = %d", info.References)
	}
	if !strings.Contains(info.Description, "parallel") {
		t.Fatal("description should mention parallelization")
	}
	if _, err := prog.Nest(5); err == nil {
		t.Fatal("out-of-range nest index should fail")
	}
}

func TestParseErrorsSurface(t *testing.T) {
	if _, err := Parse("for (i = 0; j < 4; i++) x = 1;"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.Analyze(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Threads != 4 || a.Chunk != 1 {
		t.Fatalf("pragma not honored: %+v", a)
	}
	if a.FSCases == 0 || a.FSShare <= 0 || a.FSShare >= 1 {
		t.Fatalf("analysis degenerate: %+v", a)
	}
	if a.Iterations != 1024 {
		t.Fatalf("iterations = %d", a.Iterations)
	}

	// Chunk override eliminates FS (8 doubles per line).
	a8, err := prog.Analyze(0, Options{Chunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a8.FSCases != 0 {
		t.Fatalf("chunk=8 FS = %d", a8.FSCases)
	}
	if a8.FSShare != 0 {
		t.Fatalf("chunk=8 share = %f", a8.FSShare)
	}
}

// TestModelMatchesSimulator is the repository's central claim in one test:
// the compile-time count equals the simulator's coherence-miss count for
// the write-ping-pong victim.
func TestModelMatchesSimulator(t *testing.T) {
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.Analyze(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := prog.Simulate(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.FSCases != s.CoherenceMisses {
		t.Fatalf("model %d vs simulator %d coherence misses", a.FSCases, s.CoherenceMisses)
	}
	if s.Seconds <= 0 || s.Accesses == 0 {
		t.Fatalf("sim stats degenerate: %+v", s)
	}
}

func TestPredictEndToEnd(t *testing.T) {
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	full, err := prog.Analyze(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := prog.Predict(0, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.R2 < 0.99 {
		t.Fatalf("R2 = %f", p.R2)
	}
	rel := math.Abs(float64(p.PredictedFS-full.FSCases)) / float64(full.FSCases)
	if rel > 0.05 {
		t.Fatalf("prediction %d vs %d (%.1f%%)", p.PredictedFS, full.FSCases, rel*100)
	}
	if p.SpeedupFactor <= 1 {
		t.Fatalf("speedup = %f", p.SpeedupFactor)
	}
	if p.TotalRuns != 256 { // 1024 iters / (4 threads × chunk 1)
		t.Fatalf("total runs = %d", p.TotalRuns)
	}
}

func TestEstimateCost(t *testing.T) {
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.EstimateCost(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalWallCycles <= c.BaseWallCycles {
		t.Fatal("FS term missing from Total_c")
	}
	if c.FSCycles <= 0 || c.MachinePerIter <= 0 {
		t.Fatalf("cost report degenerate: %+v", c)
	}
	// Without FS, total == base.
	c8, err := prog.EstimateCost(0, Options{Chunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c8.FSCycles != 0 {
		t.Fatalf("chunk=8 FS cycles = %f", c8.FSCycles)
	}
}

func TestRecommendChunk(t *testing.T) {
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := prog.RecommendChunk(0, Options{}, []int64{1, 2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Chunk < 8 {
		t.Fatalf("recommended chunk %d still false-shares", rec.Chunk)
	}
	if rec.FSCases != 0 {
		t.Fatalf("recommended FS = %d", rec.FSCases)
	}
	if len(rec.Evaluated) != 5 {
		t.Fatalf("evaluated = %d", len(rec.Evaluated))
	}
	// The recommendation must actually be the cheapest evaluated.
	for _, c := range rec.Evaluated {
		if c.TotalCycles < rec.TotalCycles {
			t.Fatalf("candidate %d cheaper than recommendation", c.Chunk)
		}
	}
}

// TestRecommendChunkClosedForm pins the closed-form advice against the
// sweep-based recommendation on the same victim: the linter must flag the
// nest, propose an aligning chunk the cost sweep also accepts, and judge
// that chunk clean when re-analyzed.
func TestRecommendChunkClosedForm(t *testing.T) {
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := prog.RecommendChunkClosedForm(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Prone || adv.Race {
		t.Fatalf("advice = %+v, want prone without race", adv)
	}
	if !adv.Exact || adv.Findings == 0 {
		t.Fatalf("advice = %+v, want exact with findings", adv)
	}
	if adv.Chunk != 8 {
		t.Fatalf("suggested chunk = %d, want 8 (64-byte lines / 8-byte doubles)", adv.Chunk)
	}
	// The suggested schedule must be clean under its own analysis and FS
	// free under the simulator-backed model.
	fixed, err := prog.RecommendChunkClosedForm(0, Options{Chunk: adv.Chunk})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Prone || fixed.Findings != 0 {
		t.Fatalf("suggested chunk still flagged: %+v", fixed)
	}
	a, err := prog.Analyze(0, Options{Chunk: adv.Chunk})
	if err != nil {
		t.Fatal(err)
	}
	if a.FSCases != 0 {
		t.Fatalf("suggested chunk has %d FS cases under the model", a.FSCases)
	}
	if _, err := prog.RecommendChunkClosedForm(5, Options{}); err == nil {
		t.Fatal("out-of-range nest must error")
	}
}

func TestMESICountingOption(t *testing.T) {
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.Analyze(0, Options{MESICounting: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.FSCases == 0 {
		t.Fatal("MESI counting found nothing")
	}
}

func TestMachineSelection(t *testing.T) {
	if Paper48().Name() != "paper48" || Paper48().Cores() != 48 {
		t.Fatal("Paper48 accessor wrong")
	}
	if SmallTest().Name() != "smalltest" || SmallTest().Cores() != 4 {
		t.Fatal("SmallTest accessor wrong")
	}
	var zero Machine
	if zero.Name() != "paper48" || zero.Cores() != 48 {
		t.Fatal("zero Machine should default to paper48")
	}
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Analyze(0, Options{Machine: SmallTest()}); err != nil {
		t.Fatal(err)
	}
}

func TestInterpretThroughFacade(t *testing.T) {
	prog, err := Parse(`
#define N 4
double a[N];
double s;
for (i = 0; i < N; i++) a[i] = i;
for (i = 0; i < N; i++) s += a[i];
`)
	if err != nil {
		t.Fatal(err)
	}
	it, err := prog.Interpret()
	if err != nil {
		t.Fatal(err)
	}
	got, err := it.Read("s")
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("s = %f", got)
	}
}

func TestWarningsExposed(t *testing.T) {
	prog, err := Parse(`
#define N 8
double a[N][N];
#pragma omp parallel for num_threads(2)
for (i = 0; i < N; i++)
  for (j = 0; j < N; j++)
    a[i][i * j] = 1.0;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Warnings()) == 0 {
		t.Fatal("non-affine subscript should warn")
	}
	a, err := prog.Analyze(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SkippedRefs) == 0 {
		t.Fatal("skipped refs should be reported")
	}
}

func TestEvaluatePaddingFacade(t *testing.T) {
	prog, err := Parse(`
#define N 512
struct Acc { double a; double b; double c; };
struct Acc acc[N];
double v[N];
#pragma omp parallel for schedule(static,1) num_threads(8)
for (i = 0; i < N; i++)
  for (r = 0; r < 16; r++)
    acc[i].a += v[i];
`)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := prog.EvaluatePadding(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Changes) != 1 || !strings.Contains(adv.Changes[0], "Acc") {
		t.Fatalf("changes = %v", adv.Changes)
	}
	if adv.NewFSCases != 0 || adv.OrigFSCases == 0 {
		t.Fatalf("FS %d -> %d", adv.OrigFSCases, adv.NewFSCases)
	}
	if !adv.Apply {
		t.Fatalf("padding should be profitable: %.0f -> %.0f", adv.OrigCycles, adv.NewCycles)
	}
}

func TestModernMachineAgreesOnVerdicts(t *testing.T) {
	// The FS verdicts (victim vs clean) must hold on the modern machine
	// too — the phenomenon is geometric (64-byte lines), not a 2012
	// artifact.
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	if Modern16().Cores() != 16 {
		t.Fatal("Modern16 accessor wrong")
	}
	bad, err := prog.Analyze(0, Options{Machine: Modern16()})
	if err != nil {
		t.Fatal(err)
	}
	if bad.FSCases == 0 {
		t.Fatal("victim must false-share on modern machine")
	}
	good, err := prog.Analyze(0, Options{Machine: Modern16(), Chunk: 8})
	if err != nil {
		t.Fatal(err)
	}
	if good.FSCases != 0 {
		t.Fatal("aligned chunk must stay clean on modern machine")
	}
	if _, err := prog.Simulate(0, Options{Machine: Modern16(), Threads: 16}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeRateFacade(t *testing.T) {
	// The paper's unknown-bounds fallback through the public API.
	prog, err := Parse(`
double a[65536];
#pragma omp parallel for schedule(static,1) num_threads(8)
for (i = 0; i < n; i++) a[i] += 1.0;
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := prog.Nest(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.SymbolicParams) != 1 || info.SymbolicParams[0] != "n" {
		t.Fatalf("params = %v", info.SymbolicParams)
	}
	if info.Iterations != 0 {
		t.Fatalf("iterations should be unknown, got %d", info.Iterations)
	}
	rate, err := prog.AnalyzeRate(0, Options{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rate.FSPerChunkRun != 7 {
		t.Fatalf("rate = %f, want 7", rate.FSPerChunkRun)
	}
	if rate.Assumed["n"] == 0 || rate.RunsEvaluated != 16 {
		t.Fatalf("report = %+v", rate)
	}
	// The full-model entry points must reject the symbolic nest cleanly.
	if _, err := prog.Analyze(0, Options{}); err == nil {
		t.Fatal("Analyze should fail on unknown bounds")
	}
}

func TestMachineByName(t *testing.T) {
	for _, name := range MachineNames() {
		m, err := MachineByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("MachineByName(%q).Name() = %q", name, m.Name())
		}
	}
	if m, err := MachineByName(""); err != nil || m.Name() != "paper48" {
		t.Errorf("empty name: m=%v err=%v, want paper48 default", m.Name(), err)
	}
	_, err := MachineByName("cray1")
	if err == nil {
		t.Fatal("expected error for unknown machine")
	}
	for _, name := range MachineNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestCanonicalKey pins that the key covers every semantic option (so
// cache entries never collide across configurations) and excludes the
// scheduling-only Jobs knob.
func TestCanonicalKey(t *testing.T) {
	base := Options{Threads: 8, Chunk: 4}
	variants := []Options{
		{Threads: 16, Chunk: 4},
		{Threads: 8, Chunk: 8},
		{Threads: 8, Chunk: 4, MESICounting: true},
		{Threads: 8, Chunk: 4, StackDepth: 3},
		{Threads: 8, Chunk: 4, BusContention: true},
		{Threads: 8, Chunk: 4, TrackHotLines: true},
		{Threads: 8, Chunk: 4, Machine: SmallTest()},
	}
	seen := map[string]int{base.CanonicalKey(): -1}
	for i, v := range variants {
		k := v.CanonicalKey()
		if j, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: %q", i, j, k)
		}
		seen[k] = i
	}
	withJobs := base
	withJobs.Jobs = 7
	if withJobs.CanonicalKey() != base.CanonicalKey() {
		t.Error("Jobs must not affect the canonical key (scheduling-only)")
	}
}

func TestRecommendChunkCtx(t *testing.T) {
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	// A live context matches the plain API.
	rec, err := prog.RecommendChunkCtx(context.Background(), 0, Options{}, []int64{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Chunk != 8 {
		t.Fatalf("recommended chunk = %d", rec.Chunk)
	}
	// Equal costs go to the first candidate, even when its chunk is 0:
	// both select the pragma's chunk 1 here.
	rec, err = prog.RecommendChunk(0, Options{}, []int64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if e := rec.Evaluated; e[0].FSCases != e[1].FSCases || e[0].TotalCycles != e[1].TotalCycles {
		t.Fatalf("candidates 0 and 1 differ: %+v", e)
	}
	if rec.Chunk != 0 {
		t.Fatalf("tie went to chunk %d, want the first candidate (0)", rec.Chunk)
	}
	// A cancelled context aborts the sweep with the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prog.RecommendChunkCtx(ctx, 0, Options{}, []int64{1, 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOneModelRunPerAnswer counts model runs: Analyze and EstimateCost
// each run the FS model and Equation 1 once, and RecommendChunk once per
// candidate.
func TestOneModelRunPerAnswer(t *testing.T) {
	prog, err := Parse(victim)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable()
	defer faultinject.Reset()
	for _, c := range []struct {
		name string
		call func() error
		want int64
	}{
		{"Analyze", func() error { _, err := prog.Analyze(0, Options{}); return err }, 1},
		{"EstimateCost", func() error { _, err := prog.EstimateCost(0, Options{}); return err }, 1},
		{"RecommendChunk", func() error { _, err := prog.RecommendChunk(0, Options{}, nil); return err }, 8},
	} {
		faultinject.Arm("repro.evaluate", faultinject.Fault{Kind: faultinject.KindDelay})
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := faultinject.Fired("repro.evaluate"); got != c.want {
			t.Errorf("%s ran the model %d times, want %d", c.name, got, c.want)
		}
	}
}

// TestViewsAgree checks that Analysis, CostReport and ChunkCandidate
// report the same evaluation: Analyze's TotalCycles is EstimateCost's
// TotalWallCycles, every candidate equals Analyze and EstimateCost at its
// chunk, and FSShare is costmodel's FSShare of the same run.
func TestViewsAgree(t *testing.T) {
	sources := map[string]string{
		"heat":   kernels.HeatSource(16, 64),
		"dft":    kernels.DFTSource(64),
		"linreg": kernels.LinRegSource(32, 64, 8),
	}
	variants := []Options{
		{Threads: 8, Chunk: 1},
		{Threads: 8, Chunk: 1, MESICounting: true},
		{Threads: 8, Chunk: 2, StackDepth: 64},
		{Threads: 8, Chunk: 1, Extrapolate: true},
		{Threads: 4, Chunk: 3, Extrapolate: true, TrackHotLines: true},
	}
	for _, name := range kernels.Names() {
		prog, err := Parse(sources[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range variants {
			a, err := prog.Analyze(0, opts)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := prog.EstimateCost(0, opts)
			if err != nil {
				t.Fatal(err)
			}
			if a.CostErr != nil || a.TotalCycles != cost.TotalWallCycles {
				t.Errorf("%s %+v: Analysis.TotalCycles = %v (cost err %v), EstimateCost = %v",
					name, opts, a.TotalCycles, a.CostErr, cost.TotalWallCycles)
			}

			n, _ := prog.nest(0)
			m := opts.Machine.resolve()
			res, err := fsmodel.Analyze(n, opts.model())
			if err != nil {
				t.Fatal(err)
			}
			base, err := costmodel.Estimate(n, m, res.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if want := base.FSShare(res.FSCases, m); a.FSShare != want {
				t.Errorf("%s %+v: FSShare = %v, costmodel FSShare = %v", name, opts, a.FSShare, want)
			}

			rec, err := prog.RecommendChunk(0, opts, []int64{1, 4, 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, cand := range rec.Evaluated {
				o := opts
				o.Chunk = cand.Chunk
				ca, err := prog.Analyze(0, o)
				if err != nil {
					t.Fatal(err)
				}
				cc, err := prog.EstimateCost(0, o)
				if err != nil {
					t.Fatal(err)
				}
				if cand.FSCases != ca.FSCases || cand.TotalCycles != cc.TotalWallCycles {
					t.Errorf("%s %+v chunk %d: candidate fs=%d cycles=%v, Analyze fs=%d, EstimateCost cycles=%v",
						name, opts, cand.Chunk, cand.FSCases, cand.TotalCycles, ca.FSCases, cc.TotalWallCycles)
				}
			}
		}
	}
}

// TestCostModelRejection: a nest the FS model can run but the base cost
// models cannot price (an inner bound depending on the outer variable)
// still gets its FS answer from Analyze, which records the rejection
// that EstimateCost and RecommendChunk fail with.
func TestCostModelRejection(t *testing.T) {
	prog, err := Parse(`
double a[64][64];

#pragma omp parallel for private(i,j) schedule(static,1) num_threads(8)
for (i = 0; i < 64; i++)
    for (j = i; j < 64; j++)
        a[i][j] += 1.0;
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.Analyze(0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.CostErr == nil || a.Iterations != 2080 || a.FSShare != 0 || a.TotalCycles != 0 {
		t.Fatalf("analysis = %+v, want FS results with a cost error and no share", a)
	}
	if _, err := prog.EstimateCost(0, Options{}); err == nil || err.Error() != a.CostErr.Error() {
		t.Fatalf("EstimateCost err = %v, want %v", err, a.CostErr)
	}
	if _, err := prog.RecommendChunk(0, Options{}, []int64{1}); err == nil || !strings.Contains(err.Error(), a.CostErr.Error()) {
		t.Fatalf("RecommendChunk err = %v, want it to wrap %v", err, a.CostErr)
	}
}
