package fsmodel

import (
	"errors"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// heatOpts is the budget tests' workload: the heat kernel at its
// FS-inducing chunk, small enough to run fast, large enough that a step
// budget can interrupt it mid-flight.
func heatOpts(t *testing.T) (*kernels.Kernel, Options) {
	t.Helper()
	kern, err := kernels.Heat(16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	return kern, Options{Machine: machine.Paper48(), NumThreads: 8, Chunk: 1}
}

func TestBudgetMaxStepsStopsDeterministically(t *testing.T) {
	kern, opts := heatOpts(t)
	full, err := Analyze(kern.Nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Budget = guard.Budget{MaxSteps: full.Accesses / 2}
	var used []int64
	for i := 0; i < 2; i++ {
		_, err := Analyze(kern.Nest, opts)
		var be *guard.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("run %d: err = %v, want *guard.BudgetError", i, err)
		}
		if !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatal("BudgetError does not match guard.ErrBudgetExceeded")
		}
		if be.Resource != "steps" {
			t.Fatalf("tripped on %q, want steps", be.Resource)
		}
		// Amortization bounds the overrun to one check interval.
		if be.Used <= be.Limit || be.Used > be.Limit+budgetCheckEvery {
			t.Fatalf("stopped at %d accesses for limit %d (interval %d)", be.Used, be.Limit, budgetCheckEvery)
		}
		used = append(used, be.Used)
	}
	if used[0] != used[1] {
		t.Fatalf("same input stopped at different accesses: %d vs %d", used[0], used[1])
	}
}

// TestBudgetDoesNotPerturbResults pins the contract that a budget which
// never trips changes nothing: FS counts and every other field match the
// unbudgeted run exactly, on both state representations.
func TestBudgetDoesNotPerturbResults(t *testing.T) {
	kern, opts := heatOpts(t)
	for _, backend := range []string{"dense", "map"} {
		opts.forceMap = backend == "map"
		base, err := Analyze(kern.Nest, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Budget = guard.Budget{
			MaxSteps:      base.Accesses + 1,
			MaxStateBytes: 1 << 40,
			Deadline:      time.Now().Add(time.Hour),
		}
		got, err := Analyze(kern.Nest, opts)
		if err != nil {
			t.Fatalf("%v: budgeted run failed: %v", backend, err)
		}
		if got.FSCases != base.FSCases || got.Accesses != base.Accesses ||
			got.Iterations != base.Iterations || got.ColdMisses != base.ColdMisses {
			t.Fatalf("%v: budgeted run diverged: %+v vs %+v", backend, got, base)
		}
		opts.Budget = guard.Budget{}
	}
}

func TestBudgetStateBytesFallsBackThenTrips(t *testing.T) {
	kern, opts := heatOpts(t)
	// Small enough that the dense window cannot be allocated and the map
	// path's growth trips too.
	opts.Budget = guard.Budget{MaxStateBytes: 16 << 10}
	_, err := Analyze(kern.Nest, opts)
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "state-bytes" {
		t.Fatalf("err = %v, want *guard.BudgetError{state-bytes}", err)
	}
}

func TestBudgetGenerousStateBytesKeepsDense(t *testing.T) {
	kern, opts := heatOpts(t)
	opts.Budget = guard.Budget{MaxStateBytes: 1 << 40}
	res, err := Analyze(kern.Nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.dense {
		t.Fatal("generous state budget demoted the run to the map state")
	}
}

func TestBudgetDeadline(t *testing.T) {
	kern, opts := heatOpts(t)
	opts.Budget = guard.Budget{Deadline: time.Now().Add(-time.Second)}
	_, err := Analyze(kern.Nest, opts)
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "deadline" {
		t.Fatalf("err = %v, want *guard.BudgetError{deadline}", err)
	}
}

// TestBudgetPropagatesThroughRateAndPredict checks the budget reaches
// the sampled-evaluation entry points. Sampled runs may be shorter than
// one amortized check interval, so the expired-deadline dimension (which
// the run-start check catches) is the reliable probe.
func TestBudgetPropagatesThroughRateAndPredict(t *testing.T) {
	kern, opts := heatOpts(t)
	opts.Budget = guard.Budget{Deadline: time.Now().Add(-time.Second)}
	if _, err := Predict(kern.Nest, opts, 4); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("Predict under expired deadline = %v, want budget exceeded", err)
	}
	if _, err := AnalyzeRate(kern.Nest, opts, 4); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("AnalyzeRate under expired deadline = %v, want budget exceeded", err)
	}
}
