package service

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/admission"
)

// newController builds an evaluation-pool admission controller with only
// the queue-depth hook, reporting into depth when non-nil.
func newController(maxConcurrent, maxQueue int, depth *Gauge) *admission.Controller {
	return admission.New(admission.Config{
		MaxConcurrent: maxConcurrent,
		MaxQueue:      maxQueue,
		OnQueueDepth: func(d int) {
			if depth != nil {
				depth.Set(int64(d))
			}
		},
	})
}

func TestLimiterQueueFull(t *testing.T) {
	g := &Gauge{}
	l := newController(1, 1, g)
	ctx := context.Background()

	release, err := l.Acquire(ctx) // takes the only slot
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue.
	waiterIn := make(chan struct{})
	waiterOut := make(chan error, 1)
	go func() {
		close(waiterIn)
		rel, err := l.Acquire(ctx)
		if err == nil {
			rel()
		}
		waiterOut <- err
	}()
	<-waiterIn
	for g.Value() != 1 {
		runtime.Gosched()
	}
	// The queue is now full: the next acquire is rejected immediately.
	if _, err := l.Acquire(ctx); !errors.Is(err, admission.ErrQueueFull) {
		t.Fatalf("err = %v, want admission.ErrQueueFull", err)
	}
	release()
	if err := <-waiterOut; err != nil {
		t.Fatalf("queued waiter got %v, want slot after release", err)
	}
	if g.Value() != 0 {
		t.Fatalf("queue depth gauge = %d after drain, want 0", g.Value())
	}
}

func TestLimiterContextCancelWhileQueued(t *testing.T) {
	l := newController(1, 4, nil)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestLimiterConcurrencyBound(t *testing.T) {
	l := newController(2, 0, nil)
	r1, err1 := l.Acquire(context.Background())
	r2, err2 := l.Acquire(context.Background())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if _, err := l.Acquire(context.Background()); !errors.Is(err, admission.ErrQueueFull) {
		t.Fatalf("third acquire with zero queue: err = %v, want admission.ErrQueueFull", err)
	}
	r1()
	r3, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	r3()
	r2()
}
