package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/service"
)

// benchResult is one (kernel, mode) row of BENCH_service.json.
type benchResult struct {
	Kernel   string  `json:"kernel"`
	Mode     string  `json:"mode"` // "cache-miss" or "cache-hit"
	Requests int     `json:"requests"`
	ReqPerS  float64 `json:"req_per_s"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// TestGenerateServiceBench measures service throughput and latency for
// cache-miss (every request a distinct source, full model evaluation) vs
// cache-hit (repeated identical request) on the three paper kernels, and
// writes BENCH_service.json. A full run evaluates the cost model dozens
// of times (~30s), so it only runs when FSSERVE_BENCH_OUT names the
// output path:
//
//	FSSERVE_BENCH_OUT=BENCH_service.json go test ./cmd/fsserve -run TestGenerateServiceBench -v
func TestGenerateServiceBench(t *testing.T) {
	out := os.Getenv("FSSERVE_BENCH_OUT")
	if out == "" {
		t.Skip("set FSSERVE_BENCH_OUT=path to run the service benchmark")
	}
	base, stop := startE2E(t, service.Config{})
	defer stop()

	// Distinct sources per kernel: each request varies one dimension a
	// little, so every analysis stays at paper scale but misses the cache.
	missSource := map[string]func(i int) string{
		"heat":   func(i int) string { return kernels.HeatSource(96, int64(4096+64*i)) },
		"dft":    func(i int) string { return kernels.DFTSource(int64(256 + i)) },
		"linreg": func(i int) string { return kernels.LinRegSource(int64(48+i), 1<<17, 8) },
	}

	const (
		missN = 12
		hitN  = 400
	)
	var results []benchResult
	speedup := map[string]float64{}
	for _, kernel := range kernels.Names() {
		missBody := func(i int) string {
			body, _ := json.Marshal(map[string]any{"source": missSource[kernel](i), "threads": 8, "chunk": 1})
			return string(body)
		}
		miss := measure(t, base, missN, missBody)
		miss.Kernel, miss.Mode = kernel, "cache-miss"

		hitBody := fmt.Sprintf(`{"kernel":%q,"threads":8,"chunk":1}`, kernel)
		postJSON(t, base+"/v1/analyze", hitBody) // warm the cache
		hit := measure(t, base, hitN, func(int) string { return hitBody })
		hit.Kernel, hit.Mode = kernel, "cache-hit"

		results = append(results, miss, hit)
		speedup[kernel] = hit.ReqPerS / miss.ReqPerS
		t.Logf("%s: miss p50 %.1fms p99 %.1fms, hit %.0f req/s (p50 %.3fms), hit/miss %.0fx",
			kernel, miss.P50Ms, miss.P99Ms, hit.ReqPerS, hit.P50Ms, speedup[kernel])
		if speedup[kernel] < 10 {
			t.Errorf("%s: cache-hit throughput only %.1fx cache-miss, want >= 10x", kernel, speedup[kernel])
		}
	}

	// Warm-restart: a server evaluates the three kernels, drains (writing
	// its snapshot), and a fresh process on the same -cache-dir serves the
	// same requests from the restored cache. The rows quantify what the
	// snapshot buys: first-request latency collapses from a full model
	// evaluation to a cache hit, with zero evaluations in the second life.
	dir := t.TempDir()
	coldFirstMs := map[string]float64{}
	baseWarm, stopWarm := startE2E(t, service.Config{CacheDir: dir, SnapshotInterval: time.Hour})
	for _, kernel := range kernels.Names() {
		body := fmt.Sprintf(`{"kernel":%q,"threads":8,"chunk":1}`, kernel)
		start := time.Now()
		if status, b := postJSON(t, baseWarm+"/v1/analyze", body); status != 200 {
			t.Fatalf("%s cold request: status %d: %s", kernel, status, b)
		}
		coldFirstMs[kernel] = float64(time.Since(start).Microseconds()) / 1000
	}
	if err := stopWarm(); err != nil {
		t.Fatalf("drain before restart: %v", err)
	}
	baseWarm, stopWarm = startE2E(t, service.Config{CacheDir: dir, SnapshotInterval: time.Hour})
	defer stopWarm()
	restored := scrapeMetric(t, baseWarm, "fsserve_snapshot_records_restored_total")
	warmFirstMs := map[string]float64{}
	for _, kernel := range kernels.Names() {
		body := fmt.Sprintf(`{"kernel":%q,"threads":8,"chunk":1}`, kernel)
		first := time.Now()
		if status, b := postJSON(t, baseWarm+"/v1/analyze", body); status != 200 {
			t.Fatalf("%s warm request: status %d: %s", kernel, status, b)
		}
		warmFirstMs[kernel] = float64(time.Since(first).Microseconds()) / 1000
		row := measure(t, baseWarm, hitN, func(int) string { return body })
		row.Kernel, row.Mode = kernel, "warm-restart-hit"
		results = append(results, row)
		t.Logf("%s: first request %.1fms cold (evaluated) vs %.3fms after restart (restored hit), steady warm-restart %.0f req/s",
			kernel, coldFirstMs[kernel], warmFirstMs[kernel], row.ReqPerS)
	}
	if evals := scrapeMetric(t, baseWarm, "fsserve_evaluations_total"); evals != 0 {
		t.Errorf("warm restart re-evaluated %v times, want 0", evals)
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
			"note": "sequential client over loopback HTTP against cmd/fsserve with the default service.Config; " +
				"cache-miss requests vary one kernel dimension per request so every analysis runs the full model " +
				"at paper scale; cache-hit repeats one identical request after a warm-up request (served bytes)",
			"miss_requests": missN,
			"hit_requests":  hitN,
			"threads":       8,
			"chunk":         1,
		},
		"results":       results,
		"hit_vs_miss_x": speedup,
		"warm_restart": map[string]any{
			"note": "second fsserve process on the same -cache-dir after a drain-time snapshot; " +
				"warm-restart-hit rows above measure steady-state replay, these record the first request per kernel",
			"records_restored":          restored,
			"evaluations_after_restart": 0,
			"cold_first_request_ms":     coldFirstMs,
			"restored_first_request_ms": warmFirstMs,
		},
		"acceptance_note": "cache-hit >= 10x cache-miss throughput required on every kernel; warm restart must re-evaluate nothing",
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

// measure issues n sequential requests and reports throughput and
// latency percentiles.
func measure(t *testing.T, base string, n int, body func(i int) string) benchResult {
	t.Helper()
	lat := make([]float64, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		reqStart := time.Now()
		status, b := postJSON(t, base+"/v1/analyze", body(i))
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
