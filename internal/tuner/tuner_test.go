package tuner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
)

const fsSource = `
struct Acc { double v; };
struct Acc acc[64];

#pragma omp parallel for schedule(static,1) num_threads(8)
for (i = 0; i < 64; i++) {
    acc[i].v += 1.0;
}
`

func TestTuneInputErrors(t *testing.T) {
	cases := []struct {
		name, src string
		opts      Options
	}{
		{"unparsable", "for (", Options{}},
		{"nest out of range", fsSource, Options{Nest: 5}},
		{"sequential nest", "double a[8];\nfor (i = 0; i < 8; i++) a[i] = 0.0;\n", Options{}},
		{"symbolic bounds", "double a[8];\n#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = 0.0;\n", Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Tune(context.Background(), tc.src, tc.opts)
			var ie *InputError
			if !errors.As(err, &ie) {
				t.Fatalf("want InputError, got %v", err)
			}
		})
	}
}

func TestTuneRemovesAccumulatorFS(t *testing.T) {
	res, err := Tune(context.Background(), fsSource, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.SimulatedFS == 0 {
		t.Fatal("test kernel unexpectedly has no baseline FS")
	}
	if res.NoOp || res.Chosen.SimulatedFS != 0 {
		t.Fatalf("expected a fully clean plan, got %q with FS %d (warnings %v)",
			res.PlanSummary, res.Chosen.SimulatedFS, res.Warnings)
	}
	if _, err := Tune(context.Background(), res.Source, Options{}); err != nil {
		t.Fatalf("emitted source does not re-tune: %v", err)
	}
	// Rank invariants: chosen cycles never exceed any other verified
	// improving candidate's.
	for _, c := range res.Candidates {
		if c.Verified && c.SimulatedFS == 0 && c.SimulatedCycles < res.Chosen.SimulatedCycles {
			t.Errorf("candidate %q (%.0f cycles) beats chosen %q (%.0f cycles)",
				c.PlanSummary, c.SimulatedCycles, res.PlanSummary, res.Chosen.SimulatedCycles)
		}
	}
	// The report must carry the phases the service histogram observes.
	for _, phase := range []string{"enumerate", "score", "verify", "apply"} {
		if res.PhaseSeconds(phase) < 0 {
			t.Errorf("phase %s has negative duration", phase)
		}
		found := false
		for _, p := range res.Phases {
			if p.Name == phase {
				found = true
			}
		}
		if !found {
			t.Errorf("phase %s missing from report", phase)
		}
	}
}

// TestTuneChunkOverride: an explicit baseline chunk override must shape
// the baseline but not shadow candidate schedule rewrites.
func TestTuneChunkOverride(t *testing.T) {
	res, err := Tune(context.Background(), fsSource, Options{Chunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineChunk != 2 {
		t.Fatalf("baseline chunk %d, want 2", res.BaselineChunk)
	}
	if res.Chosen.Plan.hasChunk() && res.Chosen.SimulatedFS != 0 {
		t.Fatalf("chunk rewrite did not take effect under override: FS %d", res.Chosen.SimulatedFS)
	}
}

// TestTuneBudgetExceeded: an exhausted budget during baseline
// verification must surface as a budget error the service can map to its
// degraded fallback, not a hang or panic.
func TestTuneBudgetExceeded(t *testing.T) {
	// The budget check is amortized (every 4096 modeled accesses), so use
	// the heat corpus kernel — large enough to cross a check boundary.
	src, rerr := os.ReadFile(filepath.Join("..", "..", "examples", "tune", "heat.c"))
	if rerr != nil {
		t.Fatal(rerr)
	}
	_, err := Tune(context.Background(), string(src), Options{
		Budget: guard.Budget{MaxSteps: 1},
	})
	if err == nil {
		t.Fatal("expected a budget error")
	}
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// TestTuneContextDeadline: an already-expired context stops the search.
func TestTuneContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Tune(ctx, fsSource, Options{})
	if err == nil {
		t.Fatal("expected an error from the expired deadline")
	}
}

// TestTuneNoImprovementWarns: when no candidate can improve (a single
// 8-byte-stride write with too few trips for any aligned chunk and
// nothing to pad or interchange), the tuner emits a verified no-op with
// a warning instead of a bogus plan.
func TestTuneNoImprovement(t *testing.T) {
	src := `
double a[8];

#pragma omp parallel for schedule(static,1) num_threads(8)
for (i = 0; i < 8; i++) {
    a[i] = 1.0;
}
`
	res, err := Tune(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoOp {
		t.Fatalf("expected no-op, got %q", res.PlanSummary)
	}
	if res.Baseline.SimulatedFS > 0 && len(res.Warnings) == 0 {
		t.Error("no-op on an FS-positive input must carry a warning")
	}
	if _, err := Tune(context.Background(), res.Source, Options{}); err != nil {
		t.Fatalf("no-op source does not re-tune: %v", err)
	}
}

// TestTuneRejectsRacyInterchange pins the soundness rule: a reduction
// nest whose interchange would move the accumulation onto the parallel
// loop must reject those candidates with an RC001 reason, never choose
// them.
func TestTuneRejectsRacyInterchange(t *testing.T) {
	src := `
double x[64];
double out[64];
double tab[64][64];

for (k = 0; k < 64; k++) {
    #pragma omp parallel for private(n) schedule(static,1) num_threads(8)
    for (n = 0; n < 64; n++) {
        out[n] += x[k] * tab[k][n];
    }
}
`
	res, err := Tune(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Plan.Actions {
		if a.Kind == ActionInterchange {
			t.Fatalf("racy interchange chosen: %q", res.PlanSummary)
		}
	}
	sawRaceRejection := false
	for _, r := range res.Rejected {
		if strings.Contains(r.PlanSummary, "interchange") && strings.Contains(r.Reason, "RC001") {
			sawRaceRejection = true
		}
	}
	if !sawRaceRejection {
		t.Errorf("interchange not rejected as unsound; rejections: %+v", res.Rejected)
	}
}
