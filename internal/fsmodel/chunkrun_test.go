package fsmodel

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
)

// TestPerRunMonotoneMultiInstance checks PerRun is a cumulative (monotone
// nondecreasing) series covering every chunk run of a multi-instance nest
// (heat: the sequential row loop re-runs the parallel column loop per row,
// so ParLevel > 0), on both state representations.
func TestPerRunMonotoneMultiInstance(t *testing.T) {
	kern, err := kernels.Heat(10, 512)
	if err != nil {
		t.Fatal(err)
	}
	if kern.Nest.ParLevel <= 0 {
		t.Fatalf("heat ParLevel = %d, want > 0", kern.Nest.ParLevel)
	}
	for _, backend := range []string{"dense", "map"} {
		res, err := Analyze(kern.Nest, Options{
			Machine: machine.Paper48(), NumThreads: 4, Chunk: 1,
			RecordPerRun: true, forceMap: backend == "map",
		})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if res.Truncated {
			t.Fatalf("%v: untruncated run reports Truncated", backend)
		}
		if res.ChunkRunsEvaluated != res.ChunkRunsTotal {
			t.Fatalf("%v: evaluated %d of %d chunk runs", backend, res.ChunkRunsEvaluated, res.ChunkRunsTotal)
		}
		if int64(len(res.PerRun)) != res.ChunkRunsEvaluated {
			t.Fatalf("%v: len(PerRun) = %d, evaluated = %d", backend, len(res.PerRun), res.ChunkRunsEvaluated)
		}
		for i := 1; i < len(res.PerRun); i++ {
			if res.PerRun[i] < res.PerRun[i-1] {
				t.Fatalf("%v: PerRun not monotone at %d: %v", backend, i, res.PerRun)
			}
		}
		if last := res.PerRun[len(res.PerRun)-1]; last != res.FSCases {
			t.Fatalf("%v: PerRun final %d != FSCases %d", backend, last, res.FSCases)
		}
	}
}

// TestMaxChunkRunsTruncation checks the Truncated/ChunkRunsEvaluated
// contract on a multi-instance nest: a truncated run evaluates exactly
// MaxChunkRuns runs, its PerRun series is a prefix of the full series, and
// MaxChunkRuns >= total runs to completion untruncated.
func TestMaxChunkRunsTruncation(t *testing.T) {
	kern, err := kernels.Heat(10, 512)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Machine: machine.Paper48(), NumThreads: 4, Chunk: 1, RecordPerRun: true}
	full, err := Analyze(kern.Nest, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.ChunkRunsTotal < 8 {
		t.Fatalf("test wants >= 8 chunk runs, total = %d", full.ChunkRunsTotal)
	}

	for _, backend := range []string{"dense", "map"} {
		// Truncation strictly inside the run, crossing instance borders.
		for _, maxRuns := range []int64{1, 3, full.ChunkRunsTotal / 2, full.ChunkRunsTotal - 1} {
			opts := base
			opts.forceMap = backend == "map"
			opts.MaxChunkRuns = maxRuns
			res, err := Analyze(kern.Nest, opts)
			if err != nil {
				t.Fatalf("%v maxRuns=%d: %v", backend, maxRuns, err)
			}
			if !res.Truncated {
				t.Fatalf("%v maxRuns=%d: not truncated", backend, maxRuns)
			}
			if res.ChunkRunsEvaluated != maxRuns {
				t.Fatalf("%v maxRuns=%d: evaluated %d", backend, maxRuns, res.ChunkRunsEvaluated)
			}
			if int64(len(res.PerRun)) != maxRuns {
				t.Fatalf("%v maxRuns=%d: len(PerRun) = %d", backend, maxRuns, len(res.PerRun))
			}
			for i, v := range res.PerRun {
				if v != full.PerRun[i] {
					t.Fatalf("%v maxRuns=%d: PerRun[%d] = %d, full has %d", backend, maxRuns, i, v, full.PerRun[i])
				}
			}
		}
		// MaxChunkRuns at or above the total must not truncate.
		for _, maxRuns := range []int64{full.ChunkRunsTotal, full.ChunkRunsTotal + 5} {
			opts := base
			opts.forceMap = backend == "map"
			opts.MaxChunkRuns = maxRuns
			res, err := Analyze(kern.Nest, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatalf("%v maxRuns=%d: truncated with total %d", backend, maxRuns, full.ChunkRunsTotal)
			}
			if res.ChunkRunsEvaluated != full.ChunkRunsTotal || res.FSCases != full.FSCases {
				t.Fatalf("%v maxRuns=%d: evaluated %d FS %d, want %d/%d",
					backend, maxRuns, res.ChunkRunsEvaluated, res.FSCases, full.ChunkRunsTotal, full.FSCases)
			}
		}
	}
}

// TestPlainRunSkipsChunkTracking checks that without RecordPerRun or
// MaxChunkRuns the chunk-run machinery stays fully off: no runs counted,
// no snapshots, identical FS counts — this is the hoisted-branch contract.
func TestPlainRunSkipsChunkTracking(t *testing.T) {
	kern, err := kernels.Heat(10, 512)
	if err != nil {
		t.Fatal(err)
	}
	tracked, err := Analyze(kern.Nest, Options{Machine: machine.Paper48(), NumThreads: 4, Chunk: 1, RecordPerRun: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Analyze(kern.Nest, Options{Machine: machine.Paper48(), NumThreads: 4, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ChunkRunsEvaluated != 0 || plain.PerRun != nil || plain.Truncated {
		t.Fatalf("plain run tracked chunk runs: %+v", plain)
	}
	if plain.FSCases != tracked.FSCases || plain.Accesses != tracked.Accesses {
		t.Fatalf("plain/tracked disagree: %d/%d vs %d/%d",
			plain.FSCases, plain.Accesses, tracked.FSCases, tracked.Accesses)
	}
}
