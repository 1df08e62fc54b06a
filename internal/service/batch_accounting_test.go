package service

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
)

// TestBatchItemAccounting pins the per-item accounting contract: a batch
// envelope is a 200 even when items inside it fail, so every item is
// counted individually in fsserve_requests_total under the "batch-item"
// endpoint, 429 items additionally increment the queue-reject counter,
// and throttled items carry retry_after_seconds so batch callers can
// back off per item. The counters must reconcile exactly with the
// embedded results — no silent failures.
func TestBatchItemAccounting(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	itemCount := func(status string) int64 {
		return s.Metrics().Requests.With(endpointBatchItem, status).Value()
	}

	// Saturate admission deterministically: occupy the only evaluation
	// slot directly and park one request in the only queue spot.
	release, err := s.admit.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		post(t, s, "/v1/analyze", AnalyzeRequest{Source: victimSrc, Chunk: 16})
	}()
	for s.Metrics().QueueDepth.Value() != 1 {
		runtime.Gosched()
	}

	batch := BatchRequest{Requests: []AnalyzeRequest{
		{Source: victimSrc},           // throttled: queue full
		{Kernel: "bogus"},             // invalid: 400, never reaches the pool
		{Source: victimSrc, Chunk: 2}, // throttled: queue full
	}}
	w := post(t, s, "/v1/analyze/batch", batch)
	if w.Code != 200 {
		t.Fatalf("batch envelope = %d, want 200: %s", w.Code, w.Body.String())
	}
	var bresp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}

	// Reconcile the embedded errors against the batch-item counters.
	counts := map[int]int{}
	for i, r := range bresp.Results {
		if r.Error == nil {
			counts[200]++
			continue
		}
		counts[r.Error.Code]++
		if r.Error.Code == http.StatusTooManyRequests && r.Error.RetryAfterSeconds < 1 {
			t.Errorf("item %d: throttled without retry_after_seconds: %+v", i, r.Error)
		}
	}
	if counts[200] != 0 || counts[400] != 1 || counts[429] != 2 {
		t.Fatalf("embedded results = %v, want 0x200 1x400 2x429", counts)
	}
	if got := itemCount("429"); got != 2 {
		t.Errorf(`batch-item 429 counter = %d, want 2`, got)
	}
	if got := itemCount("400"); got != 1 {
		t.Errorf(`batch-item 400 counter = %d, want 1`, got)
	}
	if got := s.Metrics().QueueRejects.Value(); got != 2 {
		t.Errorf("queue rejects = %d, want 2 (one per throttled item)", got)
	}

	// Free the pool and run the same batch again: the valid items now
	// succeed and the 200 side of the ledger reconciles too.
	release()
	<-parked
	w = post(t, s, "/v1/analyze/batch", batch)
	if w.Code != 200 {
		t.Fatalf("second batch envelope = %d: %s", w.Code, w.Body.String())
	}
	// A fresh variable: Unmarshal into the first response would merge,
	// keeping stale Error pointers for items that now succeed.
	var again BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	for i, r := range again.Results {
		if i == 1 {
			continue // the bogus kernel stays a 400
		}
		if r.Error != nil {
			t.Errorf("item %d still failing after pool freed: %+v", i, r.Error)
		}
	}
	if got := itemCount("200"); got != 2 {
		t.Errorf(`batch-item 200 counter = %d, want 2`, got)
	}
	if got := itemCount("400"); got != 2 {
		t.Errorf(`batch-item 400 counter = %d, want 2 after replay`, got)
	}
	if got := itemCount("429"); got != 2 {
		t.Errorf(`batch-item 429 counter = %d, want 2 (no new rejects)`, got)
	}
}
