package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/kernels"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func mustKernelSource(t *testing.T, name string, threads int) string {
	t.Helper()
	k, err := kernels.ByName(name, threads)
	if err != nil {
		t.Fatal(err)
	}
	return k.Source
}

const victimSrc = `
#define N 256
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < N; i++) a[i] += 1.0;
`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	return New(cfg)
}

func post(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func decodeAnalyze(t *testing.T, w *httptest.ResponseRecorder) AnalyzeResponse {
	t.Helper()
	var resp AnalyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("invalid response JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

func errMessage(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var envelope struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("invalid error envelope: %v\n%s", err, w.Body.String())
	}
	return envelope.Error.Message
}

func TestAnalyzeSource(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Recommend: true})
	if w.Code != 200 {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	resp := decodeAnalyze(t, w)
	if resp.FSCases == 0 || resp.FSShare <= 0 || resp.TotalCycles <= 0 {
		t.Errorf("implausible analysis: %+v", resp)
	}
	if resp.Threads != 4 || resp.Chunk != 1 {
		t.Errorf("pragma schedule not honored: threads=%d chunk=%d", resp.Threads, resp.Chunk)
	}
	if resp.RecommendedChunk < 8 {
		t.Errorf("recommended chunk = %d, want >= 8 (one 64-byte line of doubles)", resp.RecommendedChunk)
	}
	if len(resp.Victims) != 1 || resp.Victims[0].Symbol != "a" {
		t.Errorf("victims = %+v", resp.Victims)
	}

	// Same request again: served from cache, byte-identical.
	w2 := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Recommend: true})
	if w2.Code != 200 || w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request: status=%d X-Cache=%q", w2.Code, w2.Header().Get("X-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("cached response differs from evaluated response")
	}
	m := s.Metrics()
	if m.Evaluations.Value() != 1 || m.CacheHits.Value() != 1 || m.CacheMisses.Value() != 1 {
		t.Errorf("evals=%d hits=%d misses=%d, want 1/1/1",
			m.Evaluations.Value(), m.CacheHits.Value(), m.CacheMisses.Value())
	}
}

func TestAnalyzeKernelMatchesLibrary(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/analyze", AnalyzeRequest{Kernel: "dft", Threads: 8, Chunk: 1})
	if w.Code != 200 {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	resp := decodeAnalyze(t, w)

	// The service must agree exactly with a direct library call.
	k, err := repro.Parse(mustKernelSource(t, "dft", 8))
	if err != nil {
		t.Fatal(err)
	}
	a, err := k.Analyze(0, repro.Options{Threads: 8, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FSCases != a.FSCases || resp.Iterations != a.Iterations {
		t.Errorf("service fs=%d iters=%d, library fs=%d iters=%d",
			resp.FSCases, resp.Iterations, a.FSCases, a.Iterations)
	}
}

func TestAnalyzeValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name    string
		req     AnalyzeRequest
		status  int
		wantMsg string
	}{
		{"no input", AnalyzeRequest{}, 400, "one of source or kernel"},
		{"both inputs", AnalyzeRequest{Source: "x", Kernel: "heat"}, 400, "mutually exclusive"},
		{"unknown kernel", AnalyzeRequest{Kernel: "bogus"}, 400, "valid kernels: heat, dft, linreg"},
		{"unknown machine", AnalyzeRequest{Kernel: "heat", Machine: "cray1"}, 400, "valid machines"},
		{"negative nest", AnalyzeRequest{Kernel: "heat", Nest: -1}, 400, "nest"},
		{"too many threads", AnalyzeRequest{Kernel: "heat", Threads: 65}, 400, "threads"},
		{"negative chunk", AnalyzeRequest{Kernel: "heat", Chunk: -2}, 400, "chunk"},
		{"parse error", AnalyzeRequest{Source: "for (i = 0; j < 4; i++) x = 1;"}, 400, ""},
		{"nest out of range", AnalyzeRequest{Source: victimSrc, Nest: 5}, 400, "out of range"},
		{"sequential nest", AnalyzeRequest{Source: "double a[8];\nfor (i = 0; i < 8; i++) a[i] = 1.0;"}, 400, "sequential"},
		{"symbolic bounds", AnalyzeRequest{Source: "double a[512];\n#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] += 1.0;"}, 400, "unknown at compile time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, "/v1/analyze", tc.req)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			if msg := errMessage(t, w); tc.wantMsg != "" && !strings.Contains(msg, tc.wantMsg) {
				t.Errorf("message %q missing %q", msg, tc.wantMsg)
			}
		})
	}
}

func TestAnalyzeMalformedAndOversizedBodies(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 256})
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader("{not json"))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != 400 {
		t.Fatalf("malformed body: status = %d", w.Code)
	}

	big, _ := json.Marshal(AnalyzeRequest{Source: strings.Repeat("x", 1024)})
	req = httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(big))
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", w.Code)
	}

	// Unknown fields are rejected so typos don't silently analyze the
	// wrong thing.
	req = httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(`{"kernel":"heat","treads":8}`))
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != 400 {
		t.Fatalf("unknown field: status = %d, want 400", w.Code)
	}
}

func TestBatchTemplateSweepOrderAndCache(t *testing.T) {
	s := newTestServer(t, Config{})
	chunks := []int64{1, 2, 4, 8, 16}
	w := post(t, s, "/v1/analyze/batch", BatchRequest{
		Template: &AnalyzeRequest{Source: victimSrc},
		Chunks:   chunks,
	})
	if w.Code != 200 {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var bresp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != len(chunks) {
		t.Fatalf("%d results for %d chunks", len(bresp.Results), len(chunks))
	}
	for i, r := range bresp.Results {
		if r.Error != nil {
			t.Fatalf("item %d failed: %+v", i, r.Error)
		}
		var item AnalyzeResponse
		if err := json.Unmarshal(r.Result, &item); err != nil {
			t.Fatal(err)
		}
		if item.Chunk != chunks[i] {
			t.Errorf("result %d has chunk %d, want %d (input order violated)", i, item.Chunk, chunks[i])
		}
	}
	// The batch populated the cache: the single endpoint now hits.
	w2 := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Chunk: 4})
	if w2.Header().Get("X-Cache") != "hit" {
		t.Errorf("single request after batch: X-Cache = %q, want hit", w2.Header().Get("X-Cache"))
	}
}

func TestBatchPerItemErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/analyze/batch", BatchRequest{
		Requests: []AnalyzeRequest{
			{Source: victimSrc},
			{Kernel: "bogus"},
			{Source: victimSrc, Chunk: 8},
		},
	})
	if w.Code != 200 {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var bresp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	if bresp.Results[0].Error != nil || bresp.Results[2].Error != nil {
		t.Errorf("valid items failed: %+v", bresp.Results)
	}
	if bresp.Results[1].Error == nil || bresp.Results[1].Error.Code != 400 {
		t.Errorf("invalid item not reported: %+v", bresp.Results[1])
	}
}

func TestBatchValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 2})
	for name, tc := range map[string]struct {
		body   BatchRequest
		status int
	}{
		"empty":            {BatchRequest{}, 400},
		"chunks only":      {BatchRequest{Chunks: []int64{1}}, 400},
		"template only":    {BatchRequest{Template: &AnalyzeRequest{Source: victimSrc}}, 400},
		"over the limit":   {BatchRequest{Template: &AnalyzeRequest{Source: victimSrc}, Chunks: []int64{1, 2, 4}}, 400},
		"exactly at limit": {BatchRequest{Template: &AnalyzeRequest{Source: victimSrc}, Chunks: []int64{1, 2}}, 200},
	} {
		t.Run(name, func(t *testing.T) {
			if w := post(t, s, "/v1/analyze/batch", tc.body); w.Code != tc.status {
				t.Errorf("status = %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
		})
	}
}

func TestBackpressure429(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	// Occupy the only evaluation slot directly.
	release, err := s.admit.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One request parks in the queue.
	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() { queued <- post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc}) }()
	for s.Metrics().QueueDepth.Value() != 1 {
		runtime.Gosched()
	}
	// The next one must be turned away immediately.
	w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Chunk: 2})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.Metrics().QueueRejects.Value() != 1 {
		t.Errorf("queue rejects = %d, want 1", s.Metrics().QueueRejects.Value())
	}
	release()
	if w := <-queued; w.Code != 200 {
		t.Fatalf("queued request: status = %d after slot freed: %s", w.Code, w.Body.String())
	}
}

func TestHealthzAndShutdownFlip(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := get(t, s, "/healthz"); w.Code != 200 || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}
	s.BeginShutdown()
	if w := get(t, s, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", w.Code)
	}
}

func TestKernelsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := get(t, s, "/v1/kernels")
	if w.Code != 200 {
		t.Fatalf("status = %d", w.Code)
	}
	var resp map[string][]string
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resp["kernels"]) != "[heat dft linreg]" {
		t.Errorf("kernels = %v", resp["kernels"])
	}
	if fmt.Sprint(resp["machines"]) != "[paper48 smalltest modern16]" {
		t.Errorf("machines = %v", resp["machines"])
	}
}

// TestModelRunsPerAnswer counts model runs the way the dedup tests count
// evaluations: an analyze miss is one run, a recommend miss one more per
// default candidate, a hit none.
func TestModelRunsPerAnswer(t *testing.T) {
	faultinject.Enable()
	defer faultinject.Reset()
	s := newTestServer(t, Config{})
	for _, c := range []struct {
		name  string
		req   AnalyzeRequest
		cache string
		want  int64
	}{
		{"analyze miss", AnalyzeRequest{Source: victimSrc}, "miss", 1},
		{"recommend miss", AnalyzeRequest{Source: victimSrc, Recommend: true}, "miss", 1 + 8},
		{"hit", AnalyzeRequest{Source: victimSrc, Recommend: true}, "hit", 0},
	} {
		faultinject.Arm("repro.evaluate", faultinject.Fault{Kind: faultinject.KindDelay})
		w := post(t, s, "/v1/analyze", c.req)
		if w.Code != 200 || w.Header().Get("X-Cache") != c.cache {
			t.Fatalf("%s: status=%d X-Cache=%q, want 200/%s", c.name, w.Code, w.Header().Get("X-Cache"), c.cache)
		}
		if got := faultinject.Fired("repro.evaluate"); got != c.want {
			t.Errorf("%s ran the model %d times, want %d", c.name, got, c.want)
		}
	}
}

// TestCostModelRejectionDegrades: a nest the base cost models cannot
// price (an inner bound on the outer variable) fails the evaluation as an
// internal error, answered from the closed form and never cached.
func TestCostModelRejectionDegrades(t *testing.T) {
	const triangle = `
double a[64][64];
#pragma omp parallel for schedule(static,1) num_threads(8)
for (i = 0; i < 64; i++)
    for (j = i; j < 64; j++) a[i][j] += 1.0;
`
	s := newTestServer(t, Config{})
	for range 2 {
		w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: triangle})
		if w.Code != 200 || w.Header().Get("X-Cache") != "degraded" {
			t.Fatalf("status=%d X-Cache=%q, want 200/degraded", w.Code, w.Header().Get("X-Cache"))
		}
		if resp := decodeAnalyze(t, w); resp.DegradedReason != "internal" || resp.FSCases != 0 || resp.TotalCycles != 0 {
			t.Fatalf("response = %+v, want an internal-degraded closed-form answer", resp)
		}
	}
}

func TestExtrapolatePartOfCacheKey(t *testing.T) {
	// Extrapolation is the one server-wide model setting: requests served
	// with and without it must not share canonical keys, and a default
	// server never reports an extrapolated total.
	plain := newTestServer(t, Config{})
	extrap := newTestServer(t, Config{Extrapolate: true})
	rp, err := plain.resolve(AnalyzeRequest{Source: victimSrc})
	if err != nil {
		t.Fatal(err)
	}
	re, err := extrap.resolve(AnalyzeRequest{Source: victimSrc})
	if err != nil {
		t.Fatal(err)
	}
	if rp.key == re.key {
		t.Fatal("extrapolated and plain requests share a cache key")
	}
	w := post(t, plain, "/v1/analyze", AnalyzeRequest{Source: victimSrc})
	if w.Code != 200 {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if decodeAnalyze(t, w).Extrapolated {
		t.Error("extrapolated without the server flag")
	}
}

func TestPprofMount(t *testing.T) {
	on := newTestServer(t, Config{EnablePprof: true})
	if w := get(t, on, "/debug/pprof/"); w.Code != 200 {
		t.Errorf("with -pprof: GET /debug/pprof/ = %d, want 200", w.Code)
	}
	off := newTestServer(t, Config{})
	if w := get(t, off, "/debug/pprof/"); w.Code != 404 {
		t.Errorf("without -pprof: GET /debug/pprof/ = %d, want 404", w.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc})
	w := get(t, s, "/metrics")
	if w.Code != 200 {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		`fsserve_requests_total{endpoint="/v1/analyze",code="200"} 1`,
		"fsserve_evaluations_total 1",
		"fsserve_cache_entries 1",
		`fsserve_eval_seconds_count{endpoint="analyze"} 1`,
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, w.Body.String())
		}
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := get(t, s, "/v1/analyze"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: %d, want 405", w.Code)
	}
	if w := get(t, s, "/nope"); w.Code != http.StatusNotFound {
		t.Errorf("GET /nope: %d, want 404", w.Code)
	}
}
