package fsmodel

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/machine"
)

// exCase is one cell of the extrapolation differential matrix. closed is
// a tri-state expectation: +1 = the closure must fire, -1 = it must fall
// back to full simulation, 0 = either is acceptable (equality is still
// asserted).
type exCase struct {
	name    string
	nest    func(t *testing.T) *loopir.Nest
	threads int
	chunk   int64
	closed  int
	period  int64 // pinned ExtrapolationPeriod when closed = +1
}

func heatNest(rows, cols int64) func(t *testing.T) *loopir.Nest {
	return func(t *testing.T) *loopir.Nest {
		t.Helper()
		k, err := kernels.Heat(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		return k.Nest
	}
}

func dftNest(n int64) func(t *testing.T) *loopir.Nest {
	return func(t *testing.T) *loopir.Nest {
		t.Helper()
		k, err := kernels.DFT(n)
		if err != nil {
			t.Fatal(err)
		}
		return k.Nest
	}
}

func linregNest(tasks, points int64, threads int) func(t *testing.T) *loopir.Nest {
	return func(t *testing.T) *loopir.Nest {
		t.Helper()
		k, err := kernels.LinReg(tasks, points, threads)
		if err != nil {
			t.Fatal(err)
		}
		return k.Nest
	}
}

// requireSameTotals compares the counter totals of a fully simulated and
// a (possibly) extrapolated run of the same configuration.
func requireSameTotals(t *testing.T, label string, full, ex *Result) {
	t.Helper()
	type counters struct {
		FSCases, Invalidations, Iterations, Steps, Accesses int64
		ColdMisses, CapacityEvictions                       int64
	}
	f := counters{full.FSCases, full.Invalidations, full.Iterations, full.Steps, full.Accesses,
		full.ColdMisses, full.CapacityEvictions}
	e := counters{ex.FSCases, ex.Invalidations, ex.Iterations, ex.Steps, ex.Accesses,
		ex.ColdMisses, ex.CapacityEvictions}
	if f != e {
		t.Fatalf("%s: totals differ:\nfull:         %+v\nextrapolated: %+v", label, f, e)
	}
	if len(full.ByRef) != len(ex.ByRef) {
		t.Fatalf("%s: ByRef length differs", label)
	}
	for i := range full.ByRef {
		if full.ByRef[i].FSCases != ex.ByRef[i].FSCases {
			t.Fatalf("%s: ByRef[%d] (%s) differs: full %d, extrapolated %d",
				label, i, full.ByRef[i].Src, full.ByRef[i].FSCases, ex.ByRef[i].FSCases)
		}
	}
}

// TestExtrapolateMatchesFullSimulation is the differential gate the
// closure must pass: for every matrix cell, Options.Extrapolate produces
// totals bit-identical to full simulation — whether the closure fires
// (uniform steady state reached) or the run correctly falls back.
//
// dft at chunk 1 is the alignment regression: its x[k] reference moves 8
// bytes per outer trip and crosses a cache line only every 8th trip, so a
// naive runs-per-instantiation period (16 at 48 threads) passes three
// confirmation windows and then breaks; the line-crossing alignment in
// newExtrapolator forces the true period (128) instead.
func TestExtrapolateMatchesFullSimulation(t *testing.T) {
	cases := []exCase{
		// Ragged ownership: 4094 trips over 48 threads. Ineligible by
		// construction (see the drift analysis in extrapolate.go).
		{name: "heat96x4096", nest: heatNest(96, 4096), threads: 48, chunk: 1, closed: -1},
		{name: "heat16x2048", nest: heatNest(16, 2048), threads: 8, chunk: 1, closed: -1},
		// Uniform: 768 % (48·1) == 0; closes at the aligned period.
		{name: "dft768c1", nest: dftNest(768), threads: 48, chunk: 1, closed: +1, period: 128},
		{name: "dft768c8", nest: dftNest(768), threads: 16, chunk: 8, closed: +1, period: 48},
		// Uniform but the private caches never fill at this scale: the
		// warm-up guard must keep the closure off.
		{name: "dft768c4", nest: dftNest(768), threads: 48, chunk: 4, closed: -1},
		{name: "dft256c1", nest: dftNest(256), threads: 16, chunk: 1, closed: -1},
		{name: "linreg512c1", nest: linregNest(512, 256, 48), threads: 48, chunk: 1, closed: -1},
	}
	for _, mode := range []CountingMode{CountPaperPhi, CountMESI} {
		for _, tc := range cases {
			if tc.closed == +1 && mode == CountMESI {
				// MESI invalidation deltas settle more slowly; whether the
				// bounded detection effort reaches the period is not part of
				// the contract — only equality (asserted below) is.
				tc.closed = 0
			}
			label := fmt.Sprintf("%s t=%d mode=%v", tc.name, tc.threads, mode)
			nest := tc.nest(t)
			opts := Options{Machine: machine.Paper48(), NumThreads: tc.threads, Chunk: tc.chunk, Counting: mode}
			full, err := Analyze(nest, opts)
			if err != nil {
				t.Fatalf("%s full: %v", label, err)
			}
			if full.Extrapolated {
				t.Fatalf("%s: extrapolation fired without Options.Extrapolate", label)
			}
			opts.Extrapolate = true
			ex, err := Analyze(nest, opts)
			if err != nil {
				t.Fatalf("%s extrapolated: %v", label, err)
			}
			requireSameTotals(t, label, full, ex)
			switch tc.closed {
			case +1:
				if !ex.Extrapolated {
					t.Fatalf("%s: closure did not fire", label)
				}
				if ex.ExtrapolationPeriod != tc.period {
					t.Fatalf("%s: period = %d, want %d", label, ex.ExtrapolationPeriod, tc.period)
				}
				if ex.SimulatedRuns <= 0 || ex.SimulatedRuns >= ex.ChunkRunsTotal {
					t.Fatalf("%s: simulated %d of %d runs", label, ex.SimulatedRuns, ex.ChunkRunsTotal)
				}
			case -1:
				if ex.Extrapolated {
					t.Fatalf("%s: closure fired on an ineligible/never-periodic run", label)
				}
			}
		}
	}
}

// TestExtrapolateRespectsTrackingModes pins that per-run recording and
// hot-line tracking disable the closure (their outputs are inherently
// per-run) while still producing correct totals.
func TestExtrapolateRespectsTrackingModes(t *testing.T) {
	nest := dftNest(768)(t)
	base := Options{Machine: machine.Paper48(), NumThreads: 48, Chunk: 1, Extrapolate: true}
	for _, tc := range []struct {
		name string
		mut  func(*Options)
	}{
		{"per-run", func(o *Options) { o.RecordPerRun = true }},
		{"hot-lines", func(o *Options) { o.TrackHotLines = true }},
		{"map-backend", func(o *Options) { o.forceMap = true }},
	} {
		opts := base
		tc.mut(&opts)
		ex, err := Analyze(nest, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ex.Extrapolated {
			t.Fatalf("%s: closure fired despite %s", tc.name, tc.name)
		}
		opts.Extrapolate = false
		full, err := Analyze(nest, opts)
		if err != nil {
			t.Fatal(err)
		}
		if full.FSCases != ex.FSCases || full.Accesses != ex.Accesses {
			t.Fatalf("%s: totals differ: %d/%d vs %d/%d", tc.name,
				full.FSCases, full.Accesses, ex.FSCases, ex.Accesses)
		}
	}
}

// TestExtrapolateUnboundedStack exercises the cap == 0 warm-instantly
// path: with an unbounded stack depth there are no evictions, the run is
// warm from the first boundary, and eligible uniform kernels close.
func TestExtrapolateUnboundedStack(t *testing.T) {
	nest := dftNest(768)(t)
	opts := Options{Machine: machine.Paper48(), NumThreads: 48, Chunk: 1,
		StackDepth: -1, Extrapolate: true}
	ex, err := Analyze(nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Extrapolate = false
	full, err := Analyze(nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTotals(t, "dft768 unbounded", full, ex)
	if !ex.Extrapolated {
		t.Fatal("unbounded uniform run did not close")
	}
}
