package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/guard"
)

// TestDegradedOnEvaluatorPanic pins the degradation contract for panics:
// an evaluator panic is recovered, the request is answered 200 from the
// closed-form engine with "degraded": true, the panic is counted, and
// the degraded body is never cached — once the evaluator is healthy the
// same request gets a full (non-degraded) evaluation.
func TestDegradedOnEvaluatorPanic(t *testing.T) {
	faultinject.Enable()
	defer faultinject.Reset()
	faultinject.Arm("service.evaluate", faultinject.Fault{Kind: faultinject.KindPanic, MaxFires: 1})

	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Recommend: true})
	if w.Code != 200 {
		t.Fatalf("status = %d, want 200 (degraded, never 500): %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cache"); got != "degraded" {
		t.Errorf("X-Cache = %q, want degraded", got)
	}
	resp := decodeAnalyze(t, w)
	if !resp.Degraded || resp.DegradedReason != "panic" {
		t.Fatalf("degraded=%v reason=%q, want true/panic", resp.Degraded, resp.DegradedReason)
	}
	if resp.ClosedForm == nil || !resp.ClosedForm.Prone {
		t.Fatalf("closed_form = %+v, want a prone verdict for the chunk-1 victim", resp.ClosedForm)
	}
	if resp.RecommendedChunk < 8 {
		t.Errorf("degraded recommended chunk = %d, want the closed-form aligning chunk (>= 8)", resp.RecommendedChunk)
	}
	if resp.FSCases != 0 || resp.TotalCycles != 0 {
		t.Errorf("degraded response carries simulation numbers: %+v", resp)
	}
	m := s.Metrics()
	if m.EvalPanics.Value() != 1 {
		t.Errorf("EvalPanics = %d, want 1", m.EvalPanics.Value())
	}
	if got := m.Degraded.With(endpointAnalyze, "panic").Value(); got != 1 {
		t.Errorf("Degraded{analyze,panic} = %d, want 1", got)
	}

	// The fault is exhausted (MaxFires 1): the same request must now run
	// the full evaluator — proof the degraded body was not cached.
	w2 := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Recommend: true})
	if w2.Code != 200 || w2.Header().Get("X-Cache") != "miss" {
		t.Fatalf("recovered request: status=%d X-Cache=%q, want 200/miss", w2.Code, w2.Header().Get("X-Cache"))
	}
	resp2 := decodeAnalyze(t, w2)
	if resp2.Degraded || resp2.FSCases == 0 {
		t.Errorf("recovered response: degraded=%v fs_cases=%d, want full evaluation", resp2.Degraded, resp2.FSCases)
	}
}

// TestDegradedOnBudgetExceeded is the acceptance proof for budgets: a
// request whose evaluation blows the configured step budget returns the
// closed-form answer with "degraded": true and reason "budget" — not a
// 500, not a hang.
func TestDegradedOnBudgetExceeded(t *testing.T) {
	s := newTestServer(t, Config{MaxEvalSteps: 1})
	w := post(t, s, "/v1/analyze", AnalyzeRequest{Kernel: "heat", Threads: 8, Recommend: true})
	if w.Code != 200 {
		t.Fatalf("status = %d, want 200: %s", w.Code, w.Body.String())
	}
	resp := decodeAnalyze(t, w)
	if !resp.Degraded || resp.DegradedReason != "budget" {
		t.Fatalf("degraded=%v reason=%q, want true/budget", resp.Degraded, resp.DegradedReason)
	}
	if resp.ClosedForm == nil {
		t.Fatal("degraded response carries no closed_form result")
	}
	if got := s.Metrics().Degraded.With(endpointAnalyze, "budget").Value(); got != 1 {
		t.Errorf("Degraded{analyze,budget} = %d, want 1", got)
	}
}

// TestDegradedLint pins the lint endpoint's degradation: an injected
// evaluator failure yields 200 with the closed-form report re-run
// directly, marked degraded in the native shape.
func TestDegradedLint(t *testing.T) {
	faultinject.Enable()
	defer faultinject.Reset()
	faultinject.Arm("service.evaluate", faultinject.Fault{Kind: faultinject.KindError, MaxFires: 1})

	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/lint", LintRequest{Source: victimSrc})
	if w.Code != 200 {
		t.Fatalf("status = %d, want 200: %s", w.Code, w.Body.String())
	}
	var resp LintResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("invalid lint response: %v", err)
	}
	if !resp.Degraded || resp.DegradedReason != "internal" {
		t.Fatalf("degraded=%v reason=%q, want true/internal", resp.Degraded, resp.DegradedReason)
	}
	if resp.Report == nil || len(resp.Report.Diagnostics) == 0 {
		t.Errorf("degraded lint lost its findings: %+v", resp.Report)
	}
	if got := s.Metrics().Degraded.With(endpointLint, "internal").Value(); got != 1 {
		t.Errorf("Degraded{lint,internal} = %d, want 1", got)
	}
}

// TestBreakerOpensAndDegradesOutright drives consecutive evaluator
// failures until the analyze breaker opens, then checks that further
// requests degrade without touching the evaluator at all and that
// /readyz exposes the open breaker.
func TestBreakerOpensAndDegradesOutright(t *testing.T) {
	faultinject.Enable()
	defer faultinject.Reset()
	faultinject.Arm("service.evaluate", faultinject.Fault{Kind: faultinject.KindError})

	s := newTestServer(t, Config{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	for i := 0; i < 2; i++ {
		w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc})
		if w.Code != 200 {
			t.Fatalf("request %d: status = %d: %s", i, w.Code, w.Body.String())
		}
		if resp := decodeAnalyze(t, w); resp.DegradedReason != "internal" {
			t.Fatalf("request %d: reason = %q, want internal", i, resp.DegradedReason)
		}
	}
	if fired := faultinject.Fired("service.evaluate"); fired != 2 {
		t.Fatalf("evaluator reached %d times, want 2", fired)
	}

	// Threshold hit: the third request must not reach the evaluator.
	w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc})
	if resp := decodeAnalyze(t, w); w.Code != 200 || resp.DegradedReason != "breaker-open" {
		t.Fatalf("status=%d reason=%q, want 200/breaker-open", w.Code, resp.DegradedReason)
	}
	if fired := faultinject.Fired("service.evaluate"); fired != 2 {
		t.Errorf("open breaker let a request through: evaluator reached %d times", fired)
	}

	rw := get(t, s, "/readyz")
	if rw.Code != 200 {
		t.Fatalf("/readyz status = %d, want 200 (open breaker still answers)", rw.Code)
	}
	var ready ReadyzResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &ready); err != nil {
		t.Fatalf("invalid /readyz JSON: %v", err)
	}
	if ready.Status != "degraded" {
		t.Errorf("/readyz status = %q, want degraded", ready.Status)
	}
	br := ready.Breakers[endpointAnalyze]
	if br.State != "open" || br.Opens != 1 {
		t.Errorf("analyze breaker = %+v, want open with 1 open", br)
	}
	if ready.Breakers[endpointLint].State != "closed" {
		t.Errorf("lint breaker = %+v, want closed (independent circuits)", ready.Breakers[endpointLint])
	}
}

// TestBreakerHalfOpenRecovery pins the close path: after the cooldown a
// probe that succeeds closes the breaker and full evaluation resumes.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	faultinject.Enable()
	defer faultinject.Reset()
	faultinject.Arm("service.evaluate", faultinject.Fault{Kind: faultinject.KindError, MaxFires: 1})

	// ProbeFraction 1 makes every post-cooldown request a probe, so the
	// recovery needs no draws to go its way.
	s := newTestServer(t, Config{BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond, BreakerProbeFraction: 1})
	post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc}) // opens the breaker
	if st := s.breakers[endpointAnalyze].State(); st != guard.BreakerOpen {
		t.Fatalf("breaker = %v after failure, want open", st)
	}
	time.Sleep(20 * time.Millisecond)
	w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc})
	resp := decodeAnalyze(t, w)
	if w.Code != 200 || resp.Degraded {
		t.Fatalf("probe request: status=%d degraded=%v, want a full 200", w.Code, resp.Degraded)
	}
	if st := s.breakers[endpointAnalyze].State(); st != guard.BreakerClosed {
		t.Errorf("breaker = %v after successful probe, want closed", st)
	}
}

// TestReadyz pins the readiness document's healthy and draining shapes.
func TestReadyz(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 3, MaxQueue: 5})
	w := get(t, s, "/readyz")
	if w.Code != 200 {
		t.Fatalf("/readyz status = %d: %s", w.Code, w.Body.String())
	}
	var ready ReadyzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ok" {
		t.Errorf("status = %q, want ok", ready.Status)
	}
	if ready.Pool.Capacity != 3 || ready.Pool.QueueCapacity != 5 || ready.Pool.Saturated {
		t.Errorf("pool = %+v, want idle capacity 3 / queue 5", ready.Pool)
	}
	for _, ep := range []string{endpointAnalyze, endpointLint} {
		if ready.Breakers[ep].State != "closed" {
			t.Errorf("breaker %s = %+v, want closed", ep, ready.Breakers[ep])
		}
	}

	s.BeginShutdown()
	w = get(t, s, "/readyz")
	if w.Code != 503 || w.Header().Get("Retry-After") == "" {
		t.Fatalf("draining /readyz: status=%d Retry-After=%q", w.Code, w.Header().Get("Retry-After"))
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ready); err != nil || ready.Status != "draining" {
		t.Errorf("draining status = %q (err %v), want draining", ready.Status, err)
	}
}

// TestRetryAfterScalesWithQueueDepth is the client-visible contract for
// satellite backpressure: a rejected request carries a Retry-After whose
// base grows with the wait-queue depth, plus jitter so a herd of
// rejected clients restaggers.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, Seed: 7})

	// Idle pool: base 1, jittered into [1, 2].
	for i := 0; i < 8; i++ {
		if got := s.retryAfterSeconds(); got < 1 || got > 2 {
			t.Fatalf("idle Retry-After = %d, want within [1, 2]", got)
		}
	}

	// Occupy the single slot, then fill the queue with one waiter.
	release, err := s.admit.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	defer cancelWaiter()
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if rel, err := s.admit.Acquire(waiterCtx); err == nil {
			rel()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.admit.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Full queue: base 1 + 3*1/1 = 4, jittered into [4, 8]. A real
	// request observes it on the 429 itself.
	w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc})
	if w.Code != 429 {
		t.Fatalf("status = %d, want 429 with the pool saturated: %s", w.Code, w.Body.String())
	}
	secs, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || secs < 4 || secs > 8 {
		t.Fatalf("saturated Retry-After = %q, want an int in [4, 8]", w.Header().Get("Retry-After"))
	}
	if s.Metrics().QueueRejects.Value() != 1 {
		t.Errorf("QueueRejects = %d, want 1", s.Metrics().QueueRejects.Value())
	}

	// The jitter actually spreads: distinct values must appear across
	// draws at the same depth (seeded, so this cannot flake).
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		got := s.retryAfterSeconds()
		if got < 4 || got > 8 {
			t.Fatalf("saturated Retry-After = %d, want within [4, 8]", got)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Errorf("32 draws produced a single Retry-After value %v; jitter is not spreading", seen)
	}

	cancelWaiter()
	<-waiterDone
}

// TestDrainUnderFault starts shutdown while a delayed evaluation is in
// flight: the in-flight request must still complete normally while new
// health probes report draining.
func TestDrainUnderFault(t *testing.T) {
	faultinject.Enable()
	defer faultinject.Reset()
	faultinject.Arm("service.pool", faultinject.Fault{Kind: faultinject.KindDelay, Delay: 150 * time.Millisecond})

	s := newTestServer(t, Config{})
	type outcome struct {
		code     int
		degraded bool
	}
	done := make(chan outcome, 1)
	go func() {
		w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc})
		done <- outcome{w.Code, decodeAnalyze(t, w).Degraded}
	}()

	time.Sleep(30 * time.Millisecond) // request is inside the delay seam
	s.BeginShutdown()
	if w := get(t, s, "/healthz"); w.Code != 503 {
		t.Errorf("/healthz during drain = %d, want 503", w.Code)
	}

	select {
	case out := <-done:
		if out.code != 200 || out.degraded {
			t.Fatalf("in-flight request during drain: code=%d degraded=%v, want a full 200", out.code, out.degraded)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed after BeginShutdown")
	}
}

// TestGoroutineLeakUnderFaults runs a burst of evaluations with panics,
// errors and delays injected at every seam and checks the server sheds
// all of its goroutines afterwards: nothing stuck on a torn flight
// entry, a leaked pool slot, or an abandoned timer.
func TestGoroutineLeakUnderFaults(t *testing.T) {
	faultinject.Enable()
	defer faultinject.Reset()
	faultinject.Arm("service.flight", faultinject.Fault{Kind: faultinject.KindPanic, Probability: 0.3, Seed: 3})
	faultinject.Arm("service.evaluate", faultinject.Fault{Kind: faultinject.KindError, Probability: 0.3, Seed: 4})
	faultinject.Arm("service.pool", faultinject.Fault{Kind: faultinject.KindDelay, Delay: time.Millisecond, Probability: 0.5, Seed: 5})

	s := newTestServer(t, Config{MaxConcurrent: 2, MaxQueue: 4})
	before := numGoroutineSettled()
	for i := 0; i < 60; i++ {
		src := fmt.Sprintf(`
double a[%d];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < %d; i++) a[i] += 1.0;
`, 64+8*(i%4), 64+8*(i%4))
		w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: src})
		if w.Code != 200 && w.Code != 429 {
			t.Fatalf("request %d: status = %d: %s", i, w.Code, w.Body.String())
		}
	}
	after := numGoroutineSettled()
	if after > before+3 {
		t.Fatalf("goroutines grew from %d to %d under faults; something leaked", before, after)
	}
}
