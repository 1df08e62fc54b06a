package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/kernels"
	"repro/internal/service"
)

// startE2E boots the real server (the same serve function main drives) on
// an ephemeral port and returns its base URL plus a stop function that
// triggers graceful shutdown and returns serve's error.
func startE2E(t testing.TB, cfg service.Config) (string, func() error) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, cfg, 30*time.Second) }()
	base := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return base, func() error { cancel(); return <-done }
}

func postJSON(t testing.TB, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// scrapeMetric fetches /metrics and returns the value of an un-labeled
// series.
func scrapeMetric(t testing.TB, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, b)
	return 0
}

// TestE2EDedup is acceptance criterion (a) and (c): 32 concurrent
// identical analyses cause exactly one model evaluation — pinned via the
// dedup/cache counters — and every response is byte-identical; /metrics
// then exposes nonzero request, cache and latency series.
func TestE2EDedup(t *testing.T) {
	base, stop := startE2E(t, service.Config{})
	defer stop()

	const n = 32
	body := `{"kernel":"heat","threads":8,"chunk":1}`
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			status, b := postJSON(t, base+"/v1/analyze", body)
			if status != 200 {
				t.Errorf("status = %d: %s", status, b)
			}
			mu.Lock()
			bodies = append(bodies, b)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", i, bodies[0], bodies[i])
		}
	}

	if evals := scrapeMetric(t, base, "fsserve_evaluations_total"); evals != 1 {
		t.Errorf("evaluations = %v, want exactly 1 for %d identical requests", evals, n)
	}
	hits := scrapeMetric(t, base, "fsserve_cache_hits_total")
	coalesced := scrapeMetric(t, base, "fsserve_dedup_coalesced_total")
	if hits+coalesced != n-1 {
		t.Errorf("hits (%v) + coalesced (%v) = %v, want %d", hits, coalesced, hits+coalesced, n-1)
	}

	// (c) nonzero request, cache-hit and latency series.
	if v := scrapeMetric(t, base, `fsserve_eval_seconds_count{endpoint="analyze"}`); v == 0 {
		t.Error("eval latency histogram empty")
	}
	if v := scrapeMetric(t, base, "fsserve_request_seconds_count"); v == 0 {
		t.Error("request latency histogram empty")
	}
	if hits == 0 {
		// With 32 racing requests at least one should land after the
		// evaluation finished; if all coalesced, that is fine too, but the
		// repeat below forces a hit either way.
		if status, _ := postJSON(t, base+"/v1/analyze", body); status != 200 {
			t.Fatalf("repeat status = %d", status)
		}
		if scrapeMetric(t, base, "fsserve_cache_hits_total") == 0 {
			t.Error("cache hit series still zero after a repeat request")
		}
	}
}

// TestE2EBatchMatchesCLI is acceptance criterion (b): a batch chunk sweep
// returns results in input order, and each point carries exactly the FS
// count and Equation 1 cycles that the fschunk CLI computes for the same
// source and candidates (both sit on RecommendChunk's evaluation).
func TestE2EBatchMatchesCLI(t *testing.T) {
	base, stop := startE2E(t, service.Config{})
	defer stop()

	src := `
#define N 256
double a[N];
#pragma omp parallel for num_threads(4)
for (i = 0; i < N; i++) a[i] += 1.0;
`
	chunks := []int64{1, 2, 4, 8, 16, 32, 64}
	breq, _ := json.Marshal(map[string]any{
		"template": map[string]any{"source": src, "threads": 4},
		"chunks":   chunks,
	})
	status, b := postJSON(t, base+"/v1/analyze/batch", string(breq))
	if status != 200 {
		t.Fatalf("status = %d: %s", status, b)
	}
	var bresp struct {
		Results []struct {
			Result json.RawMessage `json:"result"`
			Error  *struct{ Message string }
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != len(chunks) {
		t.Fatalf("%d results for %d chunks", len(bresp.Results), len(chunks))
	}

	// What fschunk computes for the same inputs.
	prog, err := repro.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := prog.RecommendChunk(0, repro.Options{Threads: 4}, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range bresp.Results {
		if r.Error != nil {
			t.Fatalf("item %d: %+v", i, r.Error)
		}
		var item struct {
			Chunk       int64   `json:"chunk"`
			FSCases     int64   `json:"fs_cases"`
			TotalCycles float64 `json:"total_cycles"`
		}
		if err := json.Unmarshal(r.Result, &item); err != nil {
			t.Fatal(err)
		}
		want := rec.Evaluated[i]
		if item.Chunk != want.Chunk {
			t.Errorf("result %d: chunk %d, want %d (input order violated)", i, item.Chunk, want.Chunk)
		}
		if item.FSCases != want.FSCases || item.TotalCycles != want.TotalCycles {
			t.Errorf("chunk %d: service fs=%d cycles=%v, CLI fs=%d cycles=%v",
				want.Chunk, item.FSCases, item.TotalCycles, want.FSCases, want.TotalCycles)
		}
	}
}

// TestE2EShutdownDrains is acceptance criterion (d): shutdown while
// requests are running and queued completes them all — no dropped
// connections — and serve returns cleanly.
func TestE2EShutdownDrains(t *testing.T) {
	base, stop := startE2E(t, service.Config{MaxConcurrent: 1})

	// Four distinct analyses (~100ms each) through a single evaluation
	// slot: one runs, three queue behind it.
	const n = 4
	type outcome struct {
		status int
		err    error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			src := kernels.HeatSource(96, int64(2048+64*i))
			body, _ := json.Marshal(map[string]any{"source": src, "threads": 8, "chunk": 1})
			resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- outcome{status: resp.StatusCode}
		}(i)
	}

	// Wait until the server has admitted work, then shut down under load.
	deadline := time.Now().Add(5 * time.Second)
	for scrapeMetric(t, base, "fsserve_inflight_evaluations") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no evaluation admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stopErr := make(chan error, 1)
	go func() { stopErr <- stop() }()

	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil {
			t.Errorf("dropped connection during shutdown: %v", o.err)
		} else if o.status != 200 {
			t.Errorf("in-flight request finished with %d, want 200", o.status)
		}
	}
	if err := <-stopErr; err != nil {
		t.Errorf("serve returned %v after graceful shutdown", err)
	}
}
