package tuner

// The golden-plan gate: the examples/tune corpus must tune to exactly the
// plans recorded in examples/tune/golden.json. The corpus encodes the
// three paper kernels in FS-inducing form plus an already-padded kernel
// that must come back as a verified no-op; a change to the search space,
// scoring, or decision rule that shifts any chosen plan has to update the
// goldens deliberately.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type goldenPlan struct {
	Plan string `json:"plan"`
	NoOp bool   `json:"no_op"`
}

func loadGolden(t *testing.T) map[string]goldenPlan {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "tune", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]goldenPlan
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if len(g) < 4 {
		t.Fatalf("golden file lists only %d kernels", len(g))
	}
	return g
}

func tuneExample(t *testing.T, name string, opts Options) *Result {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "tune", name))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(context.Background(), string(src), opts)
	if err != nil {
		t.Fatalf("Tune(%s): %v", name, err)
	}
	return res
}

func TestGoldenPlans(t *testing.T) {
	golden := loadGolden(t)
	for name, want := range golden {
		t.Run(name, func(t *testing.T) {
			res := tuneExample(t, name, Options{})
			if res.PlanSummary != want.Plan {
				t.Errorf("chosen plan %q, want %q", res.PlanSummary, want.Plan)
			}
			if res.NoOp != want.NoOp {
				t.Errorf("no_op = %v, want %v", res.NoOp, want.NoOp)
			}
			if !res.Baseline.Verified || !res.Chosen.Verified {
				t.Errorf("baseline/chosen not simulator-verified: %v/%v",
					res.Baseline.Verified, res.Chosen.Verified)
			}
			if want.NoOp && res.Baseline.SimulatedFS != 0 {
				t.Errorf("no-op kernel has baseline simulated FS %d", res.Baseline.SimulatedFS)
			}
		})
	}
	// Every corpus kernel must be covered by a golden entry.
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "tune", "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := golden[filepath.Base(f)]; !ok {
			t.Errorf("corpus kernel %s has no golden plan", filepath.Base(f))
		}
	}
}

// TestGoldenReportStability: tuning the same kernel twice must produce
// byte-identical reports (modulo the wall-clock phase timings) — the
// property the service cache's byte-identical replay rests on.
func TestGoldenReportStability(t *testing.T) {
	strip := func(r *Result) {
		r.Phases = nil
	}
	for _, name := range []string{"heat.c", "linreg.c"} {
		a := tuneExample(t, name, Options{})
		b := tuneExample(t, name, Options{})
		strip(a)
		strip(b)
		ja, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(ja) != string(jb) {
			t.Errorf("%s: tuning reports differ across identical runs\n--- a ---\n%s\n--- b ---\n%s", name, ja, jb)
		}
	}
}
