// Package admission is the service's admission control: the decision
// of how many model evaluations may run at once, who may wait for a
// slot, and who is turned away now rather than timed out later.
//
// The Controller holds a fixed number of evaluation slots
// (Config.MaxConcurrent, fsserve's -concurrency, which defaults to
// GOMAXPROCS) in front of a bounded FIFO wait queue. Model evaluations
// are CPU-bound and independent, so admitting fewer than one per core
// only idles cores: an earlier latency-driven AIMD limit compared every
// evaluation with the fastest one ever seen, and because a lint takes
// microseconds while a recommend makes nine model runs, mixed traffic
// always looked congested and the limit sat at 1 — half of every cold
// miss was then spent queued behind another client's miss. Overload is
// shed without it:
//
//   - the bounded queue: beyond MaxQueue waiters Acquire returns
//     ErrQueueFull at once;
//   - queue-deadline eviction: a waiter whose context deadline cannot
//     be met by the estimated queue drain time is rejected immediately
//     with a *DeadlineError carrying the estimate — the client gets a
//     derived Retry-After now instead of a guaranteed timeout later.
//     The estimate comes from an EWMA of successful evaluation latency
//     fed by Observe;
//   - per-client quotas (quota.go): a token bucket per client key so
//     one hot client saturates its own budget, not the whole service;
//   - the service's per-endpoint circuit breakers (internal/guard).
package admission

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// ErrQueueFull is returned by Acquire when the bounded wait queue is
// already at capacity; callers map it to 429 backpressure.
var ErrQueueFull = errors.New("admission: evaluation queue full")

// DeadlineError is a queue-deadline eviction: the request's deadline
// cannot be met given the estimated time to drain the queue ahead of
// it, so it is rejected before wasting a queue slot. RetryAfter is the
// drain estimate — the earliest time a retry could plausibly be
// admitted.
type DeadlineError struct {
	// EstimatedWait is how long the queue ahead would take to drain.
	EstimatedWait time.Duration
	// Remaining is how much of the request's deadline was left.
	Remaining time.Duration
}

// Error implements the error interface.
func (e *DeadlineError) Error() string {
	return "admission: request deadline cannot be met (estimated wait " +
		e.EstimatedWait.Round(time.Millisecond).String() + ", deadline in " +
		e.Remaining.Round(time.Millisecond).String() + ")"
}

// Config parameterizes a Controller.
type Config struct {
	// MaxConcurrent is the number of evaluation slots (values below 1
	// are raised to 1).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; beyond it Acquire
	// returns ErrQueueFull (0 = no waiting at all).
	MaxQueue int
	// OnQueueDepth, when non-nil, mirrors the waiter count on every
	// change (feeds the fsserve_queue_depth gauge).
	OnQueueDepth func(depth int)
	// Now substitutes the clock in tests (nil = time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// waiter is one queued Acquire call.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// Controller is the admission controller. Create with New; all
// methods are safe for concurrent use.
type Controller struct {
	cfg Config

	mu      sync.Mutex
	running int // admitted work currently holding a slot
	queue   *list.List

	// ewma is the smoothed successful-evaluation latency in seconds; it
	// feeds only the queue drain estimate.
	ewma              float64
	deadlineEvictions int64
}

// New builds a Controller with cfg.MaxConcurrent free slots.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults(), queue: list.New()}
}

// Acquire blocks until a slot is free, the queue is full, the caller's
// deadline is provably unmeetable, or ctx is done. On success the
// returned release must be called exactly once.
func (c *Controller) Acquire(ctx context.Context) (release func(), err error) {
	c.mu.Lock()
	if c.running < c.cfg.MaxConcurrent {
		c.running++
		c.mu.Unlock()
		return c.release, nil
	}
	if c.queue.Len() >= c.cfg.MaxQueue {
		c.mu.Unlock()
		return nil, ErrQueueFull
	}
	// Queue-deadline eviction: if the estimated time to drain the queue
	// ahead of this request already exceeds its deadline, waiting would
	// only convert a fast rejection into a slow timeout.
	if d, ok := ctx.Deadline(); ok {
		wait := c.estimatedWaitLocked(c.queue.Len())
		if remaining := d.Sub(c.cfg.Now()); wait > 0 && remaining < wait {
			c.deadlineEvictions++
			c.mu.Unlock()
			return nil, &DeadlineError{EstimatedWait: wait, Remaining: remaining}
		}
	}
	w := &waiter{ready: make(chan struct{})}
	el := c.queue.PushBack(w)
	c.notifyDepthLocked()
	c.mu.Unlock()

	select {
	case <-w.ready:
		return c.release, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// The grant raced ctx expiry: the slot is ours, give it back.
			c.mu.Unlock()
			c.release()
			return nil, ctx.Err()
		}
		c.queue.Remove(el)
		c.notifyDepthLocked()
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// release returns a slot and hands it to the next waiter.
func (c *Controller) release() {
	c.mu.Lock()
	c.running--
	c.grantLocked()
	c.mu.Unlock()
}

// grantLocked admits waiters while slots are free.
func (c *Controller) grantLocked() {
	for c.running < c.cfg.MaxConcurrent && c.queue.Len() > 0 {
		el := c.queue.Front()
		w := c.queue.Remove(el).(*waiter)
		w.granted = true
		c.running++
		close(w.ready)
	}
	c.notifyDepthLocked()
}

func (c *Controller) notifyDepthLocked() {
	if c.cfg.OnQueueDepth != nil {
		c.cfg.OnQueueDepth(c.queue.Len())
	}
}

// estimatedWaitLocked estimates how long a request entering the queue
// at position pos would wait: the work ahead of it (everything queued
// plus itself reaching the front) at the smoothed per-slot service
// rate. Zero until a latency sample exists — with no data the
// controller does not evict.
func (c *Controller) estimatedWaitLocked(pos int) time.Duration {
	if c.ewma <= 0 {
		return 0
	}
	perSlot := c.ewma / float64(c.cfg.MaxConcurrent)
	return time.Duration(float64(pos+1) * perSlot * float64(time.Second))
}

// EstimatedWait is the current drain estimate for a newly queued
// request (for deriving Retry-After values).
func (c *Controller) EstimatedWait() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.estimatedWaitLocked(c.queue.Len())
}

// Observe feeds one completed evaluation's latency into the drain
// estimate. Only successful evaluations count: failures go to the
// circuit breaker, whose job is fault health.
func (c *Controller) Observe(latency time.Duration, success bool) {
	if !success {
		return
	}
	sec := latency.Seconds()
	if sec <= 0 {
		sec = 1e-9 // a clamped sample still marks the model as warm
	}
	c.mu.Lock()
	if c.ewma == 0 {
		c.ewma = sec
	} else {
		c.ewma = 0.8*c.ewma + 0.2*sec
	}
	c.mu.Unlock()
}

// Stats is a point-in-time view of the controller.
type Stats struct {
	// Ceiling is the configured slot count.
	Ceiling int
	// Running is admitted work holding a slot; Waiting the queue depth;
	// MaxWait the queue capacity.
	Running int
	Waiting int
	MaxWait int
	// EWMASeconds is the smoothed evaluation latency behind the drain
	// estimate; DeadlineEvictions counts queue-deadline rejections.
	EWMASeconds       float64
	DeadlineEvictions int64
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Ceiling:           c.cfg.MaxConcurrent,
		Running:           c.running,
		Waiting:           c.queue.Len(),
		MaxWait:           c.cfg.MaxQueue,
		EWMASeconds:       c.ewma,
		DeadlineEvictions: c.deadlineEvictions,
	}
}
