package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// postHeaders is post with extra request headers (API keys, deadlines).
func postHeaders(t *testing.T, s *Server, path string, body any, headers map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// soakDuration is the sustained-overload phase length: a few seconds in
// the ordinary test run, 30s when FSSERVE_SOAK is set (the CI resilience
// job sets it).
func soakDuration() time.Duration {
	if os.Getenv("FSSERVE_SOAK") != "" {
		return 30 * time.Second
	}
	return 2 * time.Second
}

// TestOverloadSoak drives the service at 4x its evaluation capacity
// while every evaluation is artificially slow. It pins the admission
// contract end to end:
//
//   - every response under overload is a 200 or a 429, every 429
//     carries a Retry-After header, and the admitted p99 stays bounded
//     (the bounded queue sheds load instead of letting latency run
//     away);
//   - nothing leaks: goroutines return to the pre-soak level.
func TestOverloadSoak(t *testing.T) {
	faultinject.Enable()
	defer faultinject.Reset()

	const ceiling = 4
	before := numGoroutineSettled()
	s := newTestServer(t, Config{MaxConcurrent: ceiling, MaxQueue: 8, Seed: 7})

	// A counter-indexed request stream: every value is a distinct cache
	// key, so the pool sees a real evaluation per admitted request.
	var nextKey atomic.Int64
	postNext := func(headers map[string]string) *httptest.ResponseRecorder {
		c := nextKey.Add(1)
		return postHeaders(t, s, "/v1/analyze", AnalyzeRequest{
			Source:  victimSrc,
			Chunk:   c%250 + 1,
			Threads: int(c/250)%4 + 1,
		}, headers)
	}

	// Every phase pins the evaluation latency with an injected delay so
	// the drain estimate sees controlled numbers instead of scheduler
	// noise: baseline 10ms, overload 40ms. The delay must fire inside the
	// measured eval section (service.evaluate, not service.pool) to be
	// observed.
	const (
		baseDelay     = 10 * time.Millisecond
		overloadDelay = 40 * time.Millisecond
	)
	faultinject.Arm("service.evaluate", faultinject.Fault{Kind: faultinject.KindDelay, Delay: baseDelay, Probability: 1})

	// Warm baseline: seeds the latency model behind the drain estimate.
	for i := 0; i < 16; i++ {
		if w := postNext(nil); w.Code != 200 {
			t.Fatalf("warmup request = %d: %s", w.Code, w.Body.String())
		}
	}

	// Overload: every evaluation now takes 4x the baseline, and 4x more
	// clients than slots hammer distinct keys.
	faultinject.Arm("service.evaluate", faultinject.Fault{Kind: faultinject.KindDelay, Delay: overloadDelay, Probability: 1})
	const workers = 4 * ceiling
	var (
		mu       sync.Mutex
		admitted []time.Duration
		rejected int
		other    []int
	)
	deadline := time.Now().Add(soakDuration())
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				w := postNext(nil)
				lat := time.Since(start)
				mu.Lock()
				switch w.Code {
				case 200:
					admitted = append(admitted, lat)
				case 429:
					rejected++
					if w.Header().Get("Retry-After") == "" {
						t.Error("429 under overload without Retry-After")
					}
				default:
					other = append(other, w.Code)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(other) > 0 {
		t.Fatalf("statuses other than 200/429 leaked under overload: %v", other)
	}
	if rejected == 0 {
		t.Error("4x overload produced no 429s; admission is not shedding")
	}
	if len(admitted) == 0 {
		t.Fatal("overload starved every request; admission is not serving")
	}

	// Bounded admitted tail: the bounded queue stays short, so even the
	// p99 admitted request clears in well under a second (40ms
	// evaluations, <= 8 waiters).
	sort.Slice(admitted, func(i, j int) bool { return admitted[i] < admitted[j] })
	if p99 := admitted[(len(admitted)*99)/100]; p99 > time.Second {
		t.Errorf("admitted p99 = %v under overload, want bounded well under 1s", p99)
	}

	if after := numGoroutineSettled(); after > before+5 {
		t.Errorf("goroutines grew from %d to %d across the soak", before, after)
	}
}

// TestQuotaIsolatesFlooder pins per-client quota isolation: a client
// flooding past its token bucket is rejected with a refill-derived
// Retry-After while a polite client on the same server stays at 100%
// success, and the quota rejects reconcile with the dedicated counter.
func TestQuotaIsolatesFlooder(t *testing.T) {
	s := newTestServer(t, Config{QuotaRPS: 1, QuotaBurst: 4})

	var flooderOK, flooderRejected int
	for i := 0; i < 12; i++ {
		w := postHeaders(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Chunk: int64(i) + 1},
			map[string]string{"X-API-Key": "flooder"})
		switch w.Code {
		case 200:
			flooderOK++
		case 429:
			flooderRejected++
			if w.Header().Get("Retry-After") == "" {
				t.Error("quota 429 without Retry-After")
			}
			var envelope struct {
				Error *APIError `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil || envelope.Error == nil {
				t.Fatalf("bad 429 envelope: %s", w.Body.String())
			}
			if envelope.Error.RetryAfterSeconds < 1 {
				t.Errorf("quota 429 without retry_after_seconds: %+v", envelope.Error)
			}
		default:
			t.Fatalf("flooder request %d = %d: %s", i, w.Code, w.Body.String())
		}
	}
	// The burst admits the first requests; the flood beyond it is shed.
	// Refill may admit one extra on a slow machine, never more.
	if flooderOK > 5 || flooderRejected < 7 {
		t.Errorf("flooder: %d admitted, %d rejected; want the burst (4-5) admitted and the rest shed", flooderOK, flooderRejected)
	}

	// The flooder's exhaustion must not touch another client's bucket.
	for i := 0; i < 3; i++ {
		w := postHeaders(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Chunk: int64(100 + i)},
			map[string]string{"X-API-Key": "polite"})
		if w.Code != 200 {
			t.Fatalf("polite client request %d = %d while flooder throttled: %s", i, w.Code, w.Body.String())
		}
	}

	if got := s.Metrics().QuotaRejects.Value(); got != int64(flooderRejected) {
		t.Errorf("fsserve_quota_rejects_total = %d, clients observed %d", got, flooderRejected)
	}
}

// TestDeadlineEvictionRetryAfter pins queue-deadline eviction: a request
// whose propagated deadline cannot cover the estimated queue wait is
// rejected up front as a 429 with a drain-estimate Retry-After, counted
// by the eviction counter, instead of burning a queue slot to time out.
func TestDeadlineEvictionRetryAfter(t *testing.T) {
	faultinject.Enable()
	defer faultinject.Reset()
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 8})

	// One slow evaluation seeds the latency model: ~200ms per slot (the
	// delay must fire inside the measured eval section to be observed).
	faultinject.Arm("service.evaluate", faultinject.Fault{Kind: faultinject.KindDelay, Delay: 200 * time.Millisecond, MaxFires: 1})
	if w := post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc}); w.Code != 200 {
		t.Fatalf("warm request = %d: %s", w.Code, w.Body.String())
	}

	// Hold the only slot, then ask for an answer within 20ms: the queue
	// cannot possibly deliver in time, so admission evicts immediately.
	release, err := s.admit.Acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	w := postHeaders(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Chunk: 2},
		map[string]string{"X-Request-Deadline": "20ms"})
	if w.Code != 429 {
		t.Fatalf("unmeetable-deadline request = %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("deadline eviction without Retry-After")
	}
	var envelope struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("bad eviction envelope: %s", w.Body.String())
	}
	if envelope.Error.RetryAfterSeconds < 1 {
		t.Errorf("eviction error without retry_after_seconds: %+v", envelope.Error)
	}
	if got := s.Metrics().DeadlineEvictions.Value(); got != 1 {
		t.Errorf("fsserve_queue_deadline_evictions_total = %d, want 1", got)
	}

	// An expired deadline is the client's clock problem, not queue
	// pressure: 504, not 429.
	w = postHeaders(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Chunk: 3},
		map[string]string{"X-Request-Deadline": "-1s"})
	if w.Code != 504 {
		t.Errorf("expired-deadline request = %d, want 504: %s", w.Code, w.Body.String())
	}

	// A garbage deadline is a 400.
	w = postHeaders(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Chunk: 4},
		map[string]string{"X-Request-Deadline": "soon"})
	if w.Code != 400 {
		t.Errorf("malformed-deadline request = %d, want 400: %s", w.Code, w.Body.String())
	}
}
