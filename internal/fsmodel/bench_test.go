package fsmodel

import (
	"testing"

	"repro/internal/guard"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/machine"
)

// BenchmarkAnalyzeHotPath measures the model on the heat-diffusion
// kernel at paper-scale trip counts, the FS-inducing chunk, and the
// paper's 48-thread team: Analyze on the dense state (the production
// path for this input), Analyze pinned to the map state, and the
// per-iteration reference oracle for comparison. allocs/op on the dense
// path is the per-run setup only — the per-access path allocates nothing.
func BenchmarkAnalyzeHotPath(b *testing.B) {
	kern, err := kernels.Heat(kernels.DefaultHeatRows, kernels.DefaultHeatCols)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		forceMap bool
		eval     func(*loopir.Nest, Options) (*Result, error)
	}{
		{"compiled", false, Analyze},
		{"map", true, Analyze},
		{"oracle", false, analyzeOracle},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := Options{
				Machine: machine.Paper48(), NumThreads: 48, Chunk: kernels.HeatFSChunk,
				forceMap: bc.forceMap,
			}
			var accesses int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := bc.eval(kern.Nest, opts)
				if err != nil {
					b.Fatal(err)
				}
				accesses = res.Accesses
			}
			b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}

// BenchmarkAnalyzeSteadyState measures the chunk-run closure on a
// uniform kernel (dft at the FS chunk divides evenly over the team): the
// extrapolated run simulates until the per-run deltas are provably
// periodic and closes the rest in O(period), against full simulation.
func BenchmarkAnalyzeSteadyState(b *testing.B) {
	kern, err := kernels.DFT(768)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name        string
		extrapolate bool
	}{
		{"full", false},
		{"extrapolated", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := Options{
				Machine: machine.Paper48(), NumThreads: 48, Chunk: kernels.DFTFSChunk,
				Extrapolate: bc.extrapolate,
			}
			var accesses int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Analyze(kern.Nest, opts)
				if err != nil {
					b.Fatal(err)
				}
				if bc.extrapolate && !res.Extrapolated {
					b.Fatal("closure did not fire")
				}
				accesses = res.Accesses
			}
			b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}

// BenchmarkAnalyzeBudgetOverhead measures the cost of the amortized
// budget check on the paper-scale hot path: the same workload as
// BenchmarkAnalyzeHotPath/compiled, once with no budget (the single
// r.budgeted branch per access) and once with generous limits that
// never trip (branch plus a guard.Budget.Check every budgetCheckEvery
// accesses). The acceptance bar is <2% slowdown versus off.
func BenchmarkAnalyzeBudgetOverhead(b *testing.B) {
	kern, err := kernels.Heat(kernels.DefaultHeatRows, kernels.DefaultHeatCols)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		budget guard.Budget
	}{
		{"off", guard.Budget{}},
		{"on", guard.Budget{MaxSteps: 1 << 40, MaxStateBytes: 1 << 40}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := Options{
				Machine: machine.Paper48(), NumThreads: 48, Chunk: kernels.HeatFSChunk,
				Budget: bc.budget,
			}
			var accesses int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Analyze(kern.Nest, opts)
				if err != nil {
					b.Fatal(err)
				}
				accesses = res.Accesses
			}
			b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}

// BenchmarkAnalyzeHotPathMESI exercises the invalidation loop too.
func BenchmarkAnalyzeHotPathMESI(b *testing.B) {
	kern, err := kernels.DFT(256)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name     string
		forceMap bool
	}{
		{"dense", false},
		{"map", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := Options{
				Machine: machine.Paper48(), NumThreads: 16, Chunk: kernels.DFTFSChunk,
				Counting: CountMESI, forceMap: bc.forceMap,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(kern.Nest, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
