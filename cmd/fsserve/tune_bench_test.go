package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/service"
	"repro/internal/tuner"
)

// TestGenerateTuneBench measures the auto-tuner for BENCH_tune.json:
// candidate throughput of the fast (closed-form) tier versus the exact
// (simulator) tier, derived from the tuner's own phase timings over the
// examples/tune corpus, and cache-hit vs cache-miss throughput of
// POST /v1/tune over loopback HTTP. Gated behind the output path:
//
//	FSTUNE_BENCH_OUT=BENCH_tune.json go test ./cmd/fsserve -run TestGenerateTuneBench -v
func TestGenerateTuneBench(t *testing.T) {
	out := os.Getenv("FSTUNE_BENCH_OUT")
	if out == "" {
		t.Skip("set FSTUNE_BENCH_OUT=path to run the tune benchmark")
	}

	// Tier throughput: run the full search repeatedly with Jobs=1 (so the
	// verify phase is sequential and its wall time is per-candidate cost)
	// and divide candidates by phase seconds. The score phase is the fast
	// tier over every enumerated plan; the verify phase is the simulator
	// over the beam finalists plus the baseline.
	const tuneRuns = 20
	var scoreSec, verifySec float64
	var scored, verified int
	tiers := map[string]any{}
	for _, file := range []string{"heat.c", "dft.c", "linreg.c"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "tune", file))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tuneRuns; i++ {
			res, err := tuner.Tune(context.Background(), string(src), tuner.Options{Jobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			scoreSec += res.PhaseSeconds("score")
			verifySec += res.PhaseSeconds("verify")
			scored += len(res.Candidates)
			nVerified := 1 // baseline
			for _, c := range res.Candidates {
				if c.Verified {
					nVerified++
				}
			}
			verified += nVerified
		}
	}
	cfPerS := float64(scored) / scoreSec
	simPerS := float64(verified) / verifySec
	tiers["closed_form_candidates_per_s"] = cfPerS
	tiers["simulator_candidates_per_s"] = simPerS
	tiers["fast_vs_exact_x"] = cfPerS / simPerS
	t.Logf("fast tier %.0f cand/s, exact tier %.0f cand/s (%.1fx)", cfPerS, simPerS, cfPerS/simPerS)

	// Service throughput: distinct heat geometries miss the cache and run
	// the full search; one repeated request replays the cached bytes.
	base, stop := startE2E(t, service.Config{})
	defer stop()
	const (
		missN = 12
		hitN  = 400
	)
	miss := measureTune(t, base, missN, func(i int) string {
		body, _ := json.Marshal(map[string]any{"source": kernels.HeatSource(16, int64(512+64*i)), "threads": 8})
		return string(body)
	})
	miss.Kernel, miss.Mode = "heat", "cache-miss"
	hitBody := `{"kernel":"heat","threads":8}`
	postJSON(t, base+"/v1/tune", hitBody) // warm the cache
	hit := measureTune(t, base, hitN, func(int) string { return hitBody })
	hit.Kernel, hit.Mode = "heat", "cache-hit"
	t.Logf("tune miss p50 %.1fms, hit %.0f req/s, hit/miss %.0fx", miss.P50Ms, hit.ReqPerS, hit.ReqPerS/miss.ReqPerS)
	if hit.ReqPerS < 10*miss.ReqPerS {
		t.Errorf("cache-hit throughput only %.1fx cache-miss, want >= 10x", hit.ReqPerS/miss.ReqPerS)
	}

	doc := map[string]any{
		"date": time.Now().Format("2006-01-02"),
		"host": map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cores":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
		},
		"config": map[string]any{
			"note": "tier rows: tuner.Tune with Jobs=1 over examples/tune (heat, dft, linreg), " +
				"candidates divided by the report's own score/verify phase seconds; service rows: " +
				"sequential client over loopback HTTP against cmd/fsserve POST /v1/tune, cache-miss " +
				"varies the heat geometry per request, cache-hit repeats one identical request",
			"tune_runs_per_kernel": tuneRuns,
			"miss_requests":        missN,
			"hit_requests":         hitN,
		},
		"tiers":           tiers,
		"service":         []benchResult{miss, hit},
		"hit_vs_miss_x":   hit.ReqPerS / miss.ReqPerS,
		"acceptance_note": "cache-hit >= 10x cache-miss /v1/tune throughput; fast tier must out-throughput the simulator tier",
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// measureTune issues n sequential /v1/tune requests and reports
// throughput and latency percentiles.
func measureTune(t *testing.T, base string, n int, body func(i int) string) benchResult {
	t.Helper()
	lat := make([]float64, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		reqStart := time.Now()
		status, b := postJSON(t, base+"/v1/tune", body(i))
		if status != 200 {
			t.Fatalf("request %d: status %d: %s", i, status, b)
		}
		lat[i] = float64(time.Since(reqStart).Microseconds()) / 1000
	}
	total := time.Since(start).Seconds()
	sort.Float64s(lat)
	return benchResult{
		Requests: n,
		ReqPerS:  float64(n) / total,
		P50Ms:    lat[n/2],
		P99Ms:    lat[min(n-1, (99*n+99)/100-1)],
	}
}
