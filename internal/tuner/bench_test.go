package tuner

// Benchmarks for BENCH_tune.json: candidate throughput of the fast
// (closed-form) tier versus the exact (simulator) tier, and the full
// search end to end. Run via the CI tune job:
//
//	go test -bench=. -benchmem -run=NONE ./internal/tuner/

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/minic"
)

func benchSearch(b *testing.B, file string) (*search, Plan) {
	b.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "tune", file))
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{}.withDefaults()
	prog, err := minic.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	unit, err := lowerFor(prog, opts.Machine)
	if err != nil {
		b.Fatal(err)
	}
	return newSearch(prog, unit, opts), Plan{Actions: []Action{{Kind: ActionChunk, Chunk: 8}}}
}

// BenchmarkClosedFormTier measures one fast-tier candidate evaluation:
// apply + print + re-parse + lower + closed-form FS + Equation 1.
func BenchmarkClosedFormTier(b *testing.B) {
	s, plan := benchSearch(b, "heat.c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.scoreOne(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorTier measures one exact-tier candidate verification:
// the compiled fsmodel simulation plus Equation 1.
func BenchmarkSimulatorTier(b *testing.B) {
	s, plan := benchSearch(b, "heat.c")
	sp, err := s.scoreOne(plan)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.cand.Verified = false
		sp.verifyErr = nil
		s.verify(ctx, sp)
		if sp.verifyErr != nil {
			b.Fatal(sp.verifyErr)
		}
	}
}

// BenchmarkTuneEndToEnd measures the whole search on each corpus kernel.
func BenchmarkTuneEndToEnd(b *testing.B) {
	for _, file := range []string{"heat.c", "dft.c", "linreg.c"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "tune", file))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(file, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Tune(context.Background(), string(src), Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
