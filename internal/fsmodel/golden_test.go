package fsmodel

import (
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/machine"
)

// goldenKernels loads the three paper kernels at reduced-but-nontrivial
// scale for backend cross-checking.
func goldenKernels(t *testing.T) map[string]*loopir.Nest {
	t.Helper()
	heat, err := kernels.Heat(12, 1024)
	if err != nil {
		t.Fatal(err)
	}
	dft, err := kernels.DFT(96)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := kernels.LinReg(128, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*loopir.Nest{"heat": heat.Nest, "dft": dft.Nest, "linreg": lr.Nest}
}

// requireIdentical checks the two runs used the dense and the map state
// respectively, and compares every other externally observable field.
func requireIdentical(t *testing.T, label string, dense, mapped *Result) {
	t.Helper()
	if !dense.dense {
		t.Fatalf("%s: dense run used the map state", label)
	}
	if mapped.dense {
		t.Fatalf("%s: map run used the dense state", label)
	}
	type counters struct {
		FSCases, Invalidations, Iterations, Steps, Accesses int64
		ColdMisses, CapacityEvictions                       int64
		ChunkRunsEvaluated, ChunkRunsTotal                  int64
		Truncated                                           bool
	}
	d := counters{dense.FSCases, dense.Invalidations, dense.Iterations, dense.Steps, dense.Accesses,
		dense.ColdMisses, dense.CapacityEvictions, dense.ChunkRunsEvaluated, dense.ChunkRunsTotal, dense.Truncated}
	m := counters{mapped.FSCases, mapped.Invalidations, mapped.Iterations, mapped.Steps, mapped.Accesses,
		mapped.ColdMisses, mapped.CapacityEvictions, mapped.ChunkRunsEvaluated, mapped.ChunkRunsTotal, mapped.Truncated}
	if d != m {
		t.Fatalf("%s: counters differ:\ndense: %+v\nmap:   %+v", label, d, m)
	}
	if !reflect.DeepEqual(dense.PerRun, mapped.PerRun) {
		t.Fatalf("%s: PerRun differs:\ndense: %v\nmap:   %v", label, dense.PerRun, mapped.PerRun)
	}
	if !reflect.DeepEqual(dense.ByRef, mapped.ByRef) {
		t.Fatalf("%s: ByRef differs:\ndense: %+v\nmap:   %+v", label, dense.ByRef, mapped.ByRef)
	}
	if !reflect.DeepEqual(dense.hotLines, mapped.hotLines) {
		t.Fatalf("%s: hot lines differ:\ndense: %v\nmap:   %v", label, dense.hotLines, mapped.hotLines)
	}
}

// TestBackendsBitIdentical is the golden cross-check the dense rewrite
// must satisfy: on every paper kernel, under both counting modes, with FS
// and FS-free chunks, with per-run recording and hot-line tracking on, the
// dense and map states produce identical results in every field.
func TestBackendsBitIdentical(t *testing.T) {
	nests := goldenKernels(t)
	chunks := map[string][2]int64{
		"heat":   {kernels.HeatFSChunk, kernels.HeatNFSChunk},
		"dft":    {kernels.DFTFSChunk, kernels.DFTNFSChunk},
		"linreg": {kernels.LinRegFSChunk, kernels.LinRegNFSChunk},
	}
	for name, nest := range nests {
		for _, chunk := range chunks[name] {
			for _, mode := range []CountingMode{CountPaperPhi, CountMESI} {
				opts := Options{
					Machine: machine.Paper48(), NumThreads: 8, Chunk: chunk,
					Counting: mode, RecordPerRun: true, TrackHotLines: true,
				}
				dense, err := Analyze(nest, opts)
				if err != nil {
					t.Fatalf("%s chunk=%d mode=%v dense: %v", name, chunk, mode, err)
				}
				opts.forceMap = true
				mapped, err := Analyze(nest, opts)
				if err != nil {
					t.Fatalf("%s chunk=%d mode=%v map: %v", name, chunk, mode, err)
				}
				label := name
				requireIdentical(t, label, dense, mapped)
			}
		}
	}
}

// TestBackendsIdenticalSmallStack repeats the cross-check with a tiny
// stack depth so capacity evictions (the subtlest bookkeeping difference
// between the two directory representations) dominate.
func TestBackendsIdenticalSmallStack(t *testing.T) {
	nests := goldenKernels(t)
	for name, nest := range nests {
		for _, depth := range []int{1, 2, 7} {
			opts := Options{
				Machine: machine.Paper48(), NumThreads: 4, Chunk: 1,
				StackDepth: depth, Counting: CountMESI, RecordPerRun: true, TrackHotLines: true,
			}
			dense, err := Analyze(nest, opts)
			if err != nil {
				t.Fatalf("%s depth=%d dense: %v", name, depth, err)
			}
			opts.forceMap = true
			mapped, err := Analyze(nest, opts)
			if err != nil {
				t.Fatalf("%s depth=%d map: %v", name, depth, err)
			}
			requireIdentical(t, name, dense, mapped)
		}
	}
}

// TestAutoSelectsDenseOnPaperKernels checks every paper kernel runs on
// the dense state (their symbol extents are contiguous and comfortably
// within budget).
func TestAutoSelectsDenseOnPaperKernels(t *testing.T) {
	for name, nest := range goldenKernels(t) {
		res, err := Analyze(nest, Options{Machine: machine.Paper48(), NumThreads: 8, Chunk: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.dense {
			t.Errorf("%s: ran on the map state, want dense", name)
		}
	}
}

// TestSetAssocForcesMapBackend checks the set-associative ablation always
// runs on the map state.
func TestSetAssocForcesMapBackend(t *testing.T) {
	nest := goldenKernels(t)["linreg"]
	opts := Options{Machine: machine.Paper48(), NumThreads: 4, Chunk: 1, Associativity: 8}
	res, err := Analyze(nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.dense {
		t.Fatal("set-assoc ablation ran on the dense state, want map")
	}
}

// TestDenseRangeFallsBackToMap drives an affine reference outside its
// symbol's declared extent: the dense window cannot contain it, so the
// run must restart on the map state and still count correctly.
func TestDenseRangeFallsBackToMap(t *testing.T) {
	src := `
#define N 8
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(2)
for (i = 0; i < N; i++) a[i + 63] = 1.0;
`
	nest := loadNest(t, src)
	res, err := Analyze(nest, Options{Machine: machine.Paper48()})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if res.dense {
		t.Fatal("ran on the dense state, want map fallback")
	}
	forced, err := Analyze(nest, Options{Machine: machine.Paper48(), forceMap: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FSCases != forced.FSCases || res.Accesses != forced.Accesses {
		t.Fatalf("fallback result differs from map run: %d/%d vs %d/%d",
			res.FSCases, res.Accesses, forced.FSCases, forced.Accesses)
	}
}
