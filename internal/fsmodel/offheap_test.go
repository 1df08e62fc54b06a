package fsmodel

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/guard"
	"repro/internal/loopir"
	"repro/internal/machine"
)

// straySrc is a dense-eligible nest with a window well above
// offHeapMinBytes whose one reference runs past its symbol's extent, so
// the dense run fails with errDenseRange and Analyze restarts on the map
// state.
const straySrc = `
#define N 262144
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(2)
for (i = 0; i < N; i++) a[i + 64] = 1.0;
`

// TestOffHeapReleasedOnEveryExit pins the release rule of the mapped
// dense state: whatever way a run ends, Analyze leaves no mapping
// behind, and a run whose arrays are all below offHeapMinBytes maps
// nothing at all.
func TestOffHeapReleasedOnEveryExit(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("dense state is mapped only on Linux")
	}
	kern, heat := heatOpts(t)
	small := loadNest(t, `
#define N 64
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(2)
for (i = 0; i < N; i++) a[i] = 1.0;
`)
	errPanic := errors.New("injected panic")
	cases := []struct {
		name    string
		nest    *loopir.Nest
		opts    func() Options
		panics  bool
		mapped  bool // the first run maps its dense state
		restart bool // the dense run strays and Analyze restarts on the map state
		wantErr func(error) bool
	}{
		{"dense run", kern.Nest, func() Options { return heat }, false, true, false, isNil},
		{"budget stop", kern.Nest, func() Options {
			o := heat
			o.Budget = guard.Budget{MaxSteps: 1}
			return o
		}, false, true, false, isBudget("steps")},
		{"deadline stop", kern.Nest, func() Options {
			o := heat
			o.Budget = guard.Budget{Deadline: time.Now().Add(-time.Second)}
			return o
		}, false, true, false, isBudget("deadline")},
		{"dense-range restart", loadNest(t, straySrc), func() Options {
			return Options{Machine: machine.Paper48()}
		}, false, true, true, isNil},
		{"recovered panic", kern.Nest, func() Options { return heat }, true, true, false, func(err error) bool {
			var pe *guard.EvalPanicError
			return errors.As(err, &pe) && pe.Value == errPanic
		}},
		{"below threshold", small, func() Options { return Options{Machine: machine.Paper48()} }, false, false, false, isNil},
	}
	defer func() { runHook = nil }()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			during := int64(-1) // live mappings seen inside the run
			runHook = func(r *run) {
				during = liveMappings.Load()
				if tc.panics {
					panic(errPanic)
				}
			}
			res, err := guard.Do1(func() (*Result, error) { return Analyze(tc.nest, tc.opts()) })
			if !tc.wantErr(err) {
				t.Fatalf("err = %v", err)
			}
			if during < 0 {
				t.Fatal("run hook never fired")
			}
			if tc.restart && res.dense {
				t.Fatal("the stray reference did not restart the run on the map state")
			}
			if got := during > 0; got != tc.mapped {
				t.Fatalf("live mappings during the run = %d, want mapped = %v", during, tc.mapped)
			}
			if n := liveMappings.Load(); n != 0 {
				t.Fatalf("%d mappings still live after Analyze returned", n)
			}
		})
	}
}

func isNil(err error) bool { return err == nil }

func isBudget(resource string) func(error) bool {
	return func(err error) bool {
		var be *guard.BudgetError
		return errors.As(err, &be) && be.Resource == resource
	}
}

// TestDenseStateBytesIsAllocated pins the Budget.MaxStateBytes charge of
// a dense run to the bytes newRun actually allocates, for evicting,
// non-evicting and unbounded per-thread capacities.
func TestDenseStateBytesIsAllocated(t *testing.T) {
	kern, heat := heatOpts(t)
	for _, depth := range []int{0, 1024, -1} {
		opts := heat
		opts.StackDepth = depth
		var got, allocated int64
		runHook = func(r *run) {
			lz := r.lz
			got = r.denseBytes
			allocated = int64(len(r.ddir))*int64(unsafe.Sizeof(dirEntry{})) + int64(len(lz.stamp))*4 + int64(len(lz.ring))*8 +
				int64(len(lz.clock)+len(lz.live))*4 + int64(len(lz.head)+len(lz.tail))*8
		}
		res, err := Analyze(kern.Nest, opts)
		runHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if !res.dense {
			t.Fatalf("depth %d: run was not dense", depth)
		}
		if got != allocated || got == 0 {
			t.Errorf("depth %d: charged %d bytes, allocated %d", depth, got, allocated)
		}
	}
}
