package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestAcquireReleaseBounds pins the basic pool contract: the limit
// bounds concurrent holders, zero queue rejects immediately, releases
// hand slots to waiters in FIFO order.
func TestAcquireReleaseBounds(t *testing.T) {
	c := New(Config{MaxConcurrent: 2, MaxQueue: 0})
	ctx := context.Background()
	r1, err1 := c.Acquire(ctx)
	r2, err2 := c.Acquire(ctx)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if _, err := c.Acquire(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire with zero queue: %v, want ErrQueueFull", err)
	}
	r1()
	r3, err := c.Acquire(ctx)
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	r3()
	r2()
	if st := c.Stats(); st.Running != 0 {
		t.Fatalf("running = %d after all releases", st.Running)
	}
}

// TestQueueFIFOAndCancel pins that waiters queue in order, a cancelled
// waiter leaves the queue, and depth is mirrored via OnQueueDepth.
func TestQueueFIFOAndCancel(t *testing.T) {
	var mu sync.Mutex
	depths := []int{}
	c := New(Config{MaxConcurrent: 1, MaxQueue: 4, OnQueueDepth: func(d int) {
		mu.Lock()
		depths = append(depths, d)
		mu.Unlock()
	}})
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan int, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 1 {
				<-start // ensure deterministic queue order
			}
			rel, err := c.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			got <- i
			rel()
		}(i)
	}
	waitDepth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for c.Stats().Waiting != want {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth never reached %d", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitDepth(1)
	close(start)
	waitDepth(2)

	// A cancelled waiter leaves the queue without a grant.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: %v", err)
	}

	release()
	if first := <-got; first != 0 {
		t.Errorf("first grant went to waiter %d, want FIFO order", first)
	}
	wg.Wait()
	if c.Stats().Waiting != 0 {
		t.Errorf("waiting = %d after drain", c.Stats().Waiting)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(depths) == 0 {
		t.Error("OnQueueDepth never called")
	}
}

// TestMixedLatenciesKeepEverySlot is the regression test for the
// latency-driven limit this controller replaced: alternating
// microsecond and 20ms evaluations (a lint beside a heat run) made the
// EWMA sit far above the fastest sample ever seen, so the old limit
// fell to 1 and idled every other core. Latency must never cost a slot.
func TestMixedLatenciesKeepEverySlot(t *testing.T) {
	const slots = 4
	c := New(Config{MaxConcurrent: slots})
	for i := 0; i < 64; i++ {
		lat := 100 * time.Microsecond
		if i%2 == 1 {
			lat = 20 * time.Millisecond
		}
		c.Observe(lat, true)
	}
	// MaxQueue is 0, so an Acquire that would have to wait fails at once
	// with ErrQueueFull instead of blocking.
	var releases []func()
	for i := 0; i < slots; i++ {
		rel, err := c.Acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire %d of %d after mixed latencies: %v", i+1, slots, err)
		}
		releases = append(releases, rel)
	}
	if st := c.Stats(); st.Running != slots || st.Ceiling != slots {
		t.Fatalf("stats = %+v, want all %d slots running", st, slots)
	}
	for _, rel := range releases {
		rel()
	}
}

// TestFailuresDoNotAdapt pins that failed evaluations leave the
// latency model untouched: fault health is the breaker's job.
func TestFailuresDoNotAdapt(t *testing.T) {
	c := New(Config{MaxConcurrent: 4})
	for i := 0; i < 16; i++ {
		c.Observe(time.Second, false)
	}
	st := c.Stats()
	if st.EWMASeconds != 0 || st.Ceiling != 4 {
		t.Fatalf("failures adapted the model: %+v", st)
	}
}

// TestDeadlineEviction pins queue-deadline eviction: once a latency
// model exists, a queued request whose deadline is shorter than the
// estimated drain time is rejected immediately with the estimate, and
// counted.
func TestDeadlineEviction(t *testing.T) {
	// The fake clock must track the real one closely enough that the
	// contexts below (whose timers run on the real clock) stay alive.
	now := time.Now()
	c := New(Config{MaxConcurrent: 1, MaxQueue: 8, Now: func() time.Time { return now }})
	// Warm the model: ~1s per evaluation at limit 1.
	for i := 0; i < 8; i++ {
		c.Observe(time.Second, true)
	}
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// 50ms of deadline against a ~1s estimated wait: evict.
	ctx, cancel := context.WithDeadline(context.Background(), now.Add(50*time.Millisecond))
	defer cancel()
	_, err = c.Acquire(ctx)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlineError", err)
	}
	if de.EstimatedWait < 500*time.Millisecond {
		t.Errorf("estimated wait = %v, want ~1s from the latency model", de.EstimatedWait)
	}
	if c.Stats().DeadlineEvictions != 1 {
		t.Errorf("deadline evictions = %d, want 1", c.Stats().DeadlineEvictions)
	}

	// A deadline comfortably beyond the estimate queues normally.
	ctx2, cancel2 := context.WithDeadline(context.Background(), now.Add(time.Hour))
	defer cancel2()
	done := make(chan error, 1)
	go func() {
		rel, err := c.Acquire(ctx2)
		if err == nil {
			rel()
		}
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("long-deadline request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("long-deadline waiter: %v", err)
	}
}

// TestNoEvictionWithoutModel pins that eviction needs data: before any
// latency sample, short-deadline requests are allowed to queue (the
// controller will not reject on a guess).
func TestNoEvictionWithoutModel(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	release, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded from waiting, not eviction", err)
	}
	if c.Stats().DeadlineEvictions != 0 {
		t.Error("evicted without a latency model")
	}
	release()
}

// TestQuotaBucket pins the per-client token bucket: burst admits, the
// empty bucket rejects with a refill-derived Retry-After, time refills,
// and distinct clients are isolated.
func TestQuotaBucket(t *testing.T) {
	now := time.Unix(0, 0)
	q := NewQuotas(QuotaConfig{Rate: 2, Burst: 3, Now: func() time.Time { return now }})

	for i := 0; i < 3; i++ {
		if ok, _ := q.Allow("hot"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := q.Allow("hot")
	if ok {
		t.Fatal("4th request within burst admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry = %v, want (0, 500ms] at rate 2/s (got deficit-derived)", retry)
	}
	// Another client is unaffected by the hot one's empty bucket.
	if ok, _ := q.Allow("cold"); !ok {
		t.Fatal("distinct client throttled by another's bucket")
	}
	// Half a second at 2/s refills one token.
	now = now.Add(500 * time.Millisecond)
	if ok, _ := q.Allow("hot"); !ok {
		t.Fatal("refilled bucket still rejects")
	}
	if q.Rejects() != 1 {
		t.Fatalf("rejects = %d, want 1", q.Rejects())
	}
}

// TestQuotaDisabledAndNil pins the disabled paths: Rate 0 and a nil
// *Quotas both admit everything.
func TestQuotaDisabledAndNil(t *testing.T) {
	q := NewQuotas(QuotaConfig{})
	if ok, _ := q.Allow("x"); !ok {
		t.Fatal("zero-rate quota rejected")
	}
	var nilQ *Quotas
	if ok, _ := nilQ.Allow("x"); !ok {
		t.Fatal("nil quota rejected")
	}
}

// TestQuotaEviction pins the bounded-map contract: idle clients are
// evicted to make room, and when tracking is truly exhausted new
// clients are admitted unthrottled rather than rejected.
func TestQuotaEviction(t *testing.T) {
	now := time.Unix(0, 0)
	q := NewQuotas(QuotaConfig{Rate: 1, Burst: 1, MaxClients: 4, Now: func() time.Time { return now }})
	for i := 0; i < 4; i++ {
		q.Allow(string(rune('a' + i)))
	}
	if q.Tracked() != 4 {
		t.Fatalf("tracked = %d, want 4", q.Tracked())
	}
	// All four buckets refill after a second; a fifth client evicts
	// them rather than being refused tracking.
	now = now.Add(2 * time.Second)
	if ok, _ := q.Allow("e"); !ok {
		t.Fatal("fifth client rejected")
	}
	if q.Tracked() != 1 {
		t.Fatalf("tracked = %d after idle eviction, want 1", q.Tracked())
	}
	// Exhausted tracking with nothing evictable: admit unthrottled.
	for i := 0; i < 3; i++ {
		q.Allow(string(rune('f' + i)))
	}
	if ok, _ := q.Allow("overflow"); !ok {
		t.Fatal("tracking exhaustion turned into a rejection")
	}
}
