package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/machine"
)

// Set-up repetitions: a run sets up this many times before its timed
// windows (the last server is the one measured) and as many times again
// after them; setup_s is the median over both.
const (
	coldSetups = 8
	hotSetups  = 3
)

// hotWarmKeys is fsserve's default CacheEntries: serve-hot's warm-up
// requests exactly this many of the most popular keys.
const hotWarmKeys = 512

// replaySample bounds how many of a traced window's inputs are replayed
// through the decomposed library pipeline for the per-layer breakdown.
const replaySample = 64

// op is one timed operation of a window.
type op struct {
	idx int     // input index (request sequence, arrival, or pass)
	lat float64 // ms: open loop from when the request was due, else from send
	svc float64 // ms from send to completion
	lag float64 // ms the open-loop generator sent after the due time
	// at is when the op counts within its window: completion for closed
	// loops, the due time for the open loop.
	at  time.Duration
	rep reply
	err error // transport error
	// bad is set when the op failed: non-200, degraded, or a wrong
	// answer; wrong marks the last case.
	bad   error
	wrong bool
	n     []int64 // per-pass counts (static-ci: tuner candidates, verified)
}

// window is one timed measurement with the process and server state at
// its edges.
type window struct {
	ops       []op
	elapsed   time.Duration
	procStart procSample
	procEnd   procSample
	promStart promSample
	promEnd   promSample
	// admissionMin is the lowest adaptive admission limit fsserve
	// reported after any response in the window.
	admissionMin int64
	// slices records the per-slice values behind the end-to-end metrics.
	slices  map[string][]float64
	sampler *stealSampler
	steal   []stealSample
}

// begin records the window's starting state; finish the ending one.
func (w *window) begin(srv *fsserve) error {
	if srv != nil {
		p, err := srv.scrape()
		if err != nil {
			return fmt.Errorf("scrape /metrics: %w", err)
		}
		w.promStart = p
		w.admissionMin = srv.svc.Metrics().AdmissionLimit.Value()
	}
	w.procStart = sampleProc()
	w.sampler = startSteal()
	return nil
}

func (w *window) finish(srv *fsserve, start time.Time) error {
	w.elapsed = time.Since(start)
	w.steal = w.sampler.end(start)
	w.procEnd = sampleProc()
	if srv != nil {
		p, err := srv.scrape()
		if err != nil {
			return fmt.Errorf("scrape /metrics: %w", err)
		}
		w.promEnd = p
	}
	return nil
}

// merge appends one client's ops and folds its admission minimum in.
func (w *window) merge(mu *sync.Mutex, ops []op, admissionMin int64) {
	mu.Lock()
	defer mu.Unlock()
	w.ops = append(w.ops, ops...)
	if admissionMin < w.admissionMin {
		w.admissionMin = admissionMin
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// closedLoop runs maxConns clients that each send their next request as
// soon as the previous one completes. Requests are drawn in index order
// from [first, first+n); the loop stops taking new ones once dur has
// passed (dur 0: when the inputs run out). It returns the window and the
// first index it left unsent.
func closedLoop(srv *fsserve, first, n int, dur time.Duration, req func(i int) (string, []byte), tr *tracer) (*window, int, error) {
	w := &window{}
	if err := w.begin(srv); err != nil {
		return nil, 0, err
	}
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := srv.dial()
			defer cn.close()
			var ops []op
			minLimit := w.admissionMin
			for dur == 0 || time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= first+n {
					break
				}
				path, body := req(i)
				sp := tr.begin(int64(i), 0, "client"+path)
				t0 := time.Now()
				rep, err := cn.post(path, body)
				d := ms(time.Since(t0))
				sp.end(0)
				ops = append(ops, op{idx: i, lat: d, svc: d, at: time.Since(start), rep: rep, err: err})
				minLimit = min(minLimit, srv.svc.Metrics().AdmissionLimit.Value())
			}
			w.merge(&mu, ops, minLimit)
		}()
	}
	wg.Wait()
	if err := w.finish(srv, start); err != nil {
		return nil, 0, err
	}
	return w, min(int(next.Load()), first+n), nil
}

// openLoop sends each scheduled arrival at its due time (offset from
// the window start) regardless of how earlier requests fare. maxConns
// clients share the schedule: a free client takes the next arrival,
// sleeps until it is due and sends it, so an arrival that falls due while
// every client is busy waits for the first to come free. A request is
// timed from when it was due, so a stall also charges the requests
// queued behind it.
//
// Clients sleep with nanosleep: the Go timer wakes up to a millisecond
// late, which would dwarf a cache hit.
func openLoop(srv *fsserve, arrivals []hotArrival, offset time.Duration, req func(key int) (string, []byte), tr *tracer) (*window, error) {
	w := &window{}
	if err := w.begin(srv); err != nil {
		return nil, err
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := srv.dial()
			defer cn.close()
			ops := make([]op, 0, len(arrivals)/maxConns+len(arrivals)/8)
			minLimit := w.admissionMin
			// Hits repeat the bytes of the miss that filled the cache;
			// keeping one copy per distinct body bounds the memory a
			// window's replies hold to the key universe.
			distinct := make(map[int][][]byte)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					break
				}
				a := arrivals[i]
				path, body := req(a.Key)
				due := start.Add(a.Due - offset)
				if d := time.Until(due); d > 0 {
					ts := syscall.NsecToTimespec(int64(d))
					syscall.Nanosleep(&ts, nil)
				}
				sp := tr.begin(int64(i), 0, "client"+path)
				sent := time.Now()
				rep, err := cn.post(path, body)
				done := time.Now()
				sp.end(0)
				rep.body = intern(distinct, a.Key, rep.body)
				ops = append(ops, op{idx: i, lat: ms(done.Sub(due)), svc: ms(done.Sub(sent)), lag: ms(sent.Sub(due)), at: a.Due - offset, rep: rep, err: err})
				minLimit = min(minLimit, srv.svc.Metrics().AdmissionLimit.Value())
			}
			w.merge(&mu, ops, minLimit)
		}()
	}
	wg.Wait()
	return w, w.finish(srv, start)
}

// intern returns the stored copy of body among key's distinct bodies,
// storing body first if it is new.
func intern(distinct map[int][][]byte, key int, body []byte) []byte {
	for _, b := range distinct[key] {
		if bytes.Equal(b, body) {
			return b
		}
	}
	distinct[key] = append(distinct[key], body)
	return body
}

// verdict marks an op's transport or status failure, or else runs check
// on its body.
func verdict(o *op, check func([]byte) error) {
	switch {
	case o.err != nil:
		o.bad = o.err
	case o.rep.status != http.StatusOK:
		o.bad = fmt.Errorf("status %d: %s", o.rep.status, o.rep.body)
	case o.rep.cache == "degraded":
		o.bad = fmt.Errorf("degraded response")
	default:
		o.bad = check(o.rep.body)
		o.wrong = o.bad != nil
	}
}

// setUp starts a fresh server n times and warms each with warm, recording
// every start-to-warm time in c.setups. It returns the last server; the
// earlier ones are closed.
func setUp(c *runCtx, n int, warm func(*fsserve) error) (*fsserve, error) {
	var srv *fsserve
	for i := 0; i < n; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		s, err := startServer()
		if err != nil {
			return nil, err
		}
		srv = s
		if err := warm(srv); err != nil {
			srv.close()
			return nil, err
		}
		c.setups = append(c.setups, time.Since(t0).Seconds())
	}
	return srv, nil
}

// measure sets up n times, runs the timed windows on the last server and
// closes it, then sets up n more times. The host's speed drifts over
// tens of seconds, so set-ups from both ends of the run make setup_s a
// median over the same stretch of time as the other metrics.
func measure(c *runCtx, n int, warm func(*fsserve) error, windows func(*fsserve) error) error {
	srv, err := setUp(c, n, warm)
	if err != nil {
		return err
	}
	err = windows(srv)
	if cerr := srv.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing fsserve: %w", cerr)
	}
	if err != nil {
		return err
	}
	if srv, err = setUp(c, n, warm); err != nil {
		return err
	}
	return srv.close()
}

// runServeCold is the serve-cold workload: a closed loop of distinct
// /v1/analyze requests that all miss the cache.
func runServeCold(c *runCtx) error {
	seq := coldSequence(c.seed)
	warm := coldWarmup()
	warmUp := func(srv *fsserve) error {
		cn := srv.dial()
		defer cn.close()
		for _, p := range warm {
			rep, err := cn.post("/v1/analyze", mustJSON(p.request()))
			if err != nil || rep.status != http.StatusOK {
				return fmt.Errorf("warm-up request: status %d, %v", rep.status, err)
			}
		}
		return nil
	}
	req := func(i int) (string, []byte) { return "/v1/analyze", mustJSON(seq[i].request()) }
	next := 0
	err := measure(c, coldSetups, warmUp, func(srv *fsserve) error {
		var err error
		if c.plain, next, err = closedLoop(srv, 0, len(seq), c.dur, req, nil); err != nil {
			return err
		}
		if c.trace {
			c.tr = newTracer()
			c.traced, next, err = closedLoop(srv, next, len(seq)-next, c.dur, req, c.tr)
		}
		return err
	})
	if err != nil {
		return err
	}
	if next >= len(seq) {
		return fmt.Errorf("serve-cold used all %d distinct inputs; enlarge coldSpace", len(seq))
	}

	if c.trace {
		for k, o := range sortedByIdx(c.traced.ops) {
			if k == replaySample {
				break
			}
			p := seq[o.idx]
			ans, err := libraryAnalyze(p, c.tr, int64(o.idx))
			if err != nil {
				return err
			}
			if _, ok := c.expected[p.id()]; !ok {
				c.expected[p.id()] = ans
			}
		}
	}
	todo := make(map[string]func() (string, error))
	for _, w := range c.windows() {
		for _, o := range w.ops {
			p := seq[o.idx]
			todo[p.id()] = func() (string, error) { return libraryAnalyze(p, nil, 0) }
		}
	}
	if err := fillExpected(c.expected, todo); err != nil {
		return err
	}
	for _, w := range c.windows() {
		for i := range w.ops {
			o := &w.ops[i]
			p := seq[o.idx]
			verdict(o, func(b []byte) error { return checkAnalyzeBody(b, c.expected[p.id()], p.Recommend) })
		}
	}
	return nil
}

// runServeHot is the serve-hot workload: an open loop of Zipf-skewed
// requests over a key universe larger than the cache.
func runServeHot(c *runCtx) error {
	uni := hotUniverse()
	paths := make([]string, len(uni))
	bodies := make([][]byte, len(uni))
	for i, k := range uni {
		paths[i], bodies[i] = k.path(), mustJSON(k.request())
	}
	req := func(key int) (string, []byte) { return paths[key], bodies[key] }
	span := c.dur
	if c.trace {
		span *= 2
	}
	plan := newHotPlan(c.seed, uni, span)

	warmUp := func(srv *fsserve) error {
		// Least popular first, so the most popular keys end most recent.
		warm, _, err := closedLoop(srv, 0, hotWarmKeys, 0, func(i int) (string, []byte) {
			return req(plan.Rank[hotWarmKeys-1-i])
		}, nil)
		if err != nil {
			return err
		}
		for _, o := range warm.ops {
			if o.err != nil || o.rep.status != http.StatusOK {
				return fmt.Errorf("warm-up request: status %d, %v", o.rep.status, o.err)
			}
		}
		return nil
	}
	split := len(plan.Arrivals)
	for i, a := range plan.Arrivals {
		if a.Due >= c.dur {
			split = i
			break
		}
	}
	c.arrivals = [][]hotArrival{plan.Arrivals[:split]}
	if c.trace {
		c.arrivals = append(c.arrivals, plan.Arrivals[split:])
	}
	err := measure(c, hotSetups, warmUp, func(srv *fsserve) error {
		var err error
		if c.plain, err = openLoop(srv, c.arrivals[0], 0, req, nil); err != nil {
			return err
		}
		if c.trace {
			c.tr = newTracer()
			c.traced, err = openLoop(srv, c.arrivals[1], c.dur, req, c.tr)
		}
		return err
	})
	if err != nil {
		return err
	}

	libAnswer := func(k hotKey, tr *tracer, r int64) (string, error) {
		if k.Lint {
			return libraryLint(k.Point.source(), machine.Paper48(), k.Point.Threads, k.Point.Chunk, tr, r, 0)
		}
		return libraryAnalyze(k.Point, tr, r)
	}
	if c.trace {
		seen := make(map[int]bool)
		for _, o := range sortedByIdx(c.traced.ops) {
			key := c.arrivals[1][o.idx].Key
			if len(seen) == replaySample {
				break
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			ans, err := libAnswer(uni[key], c.tr, int64(o.idx))
			if err != nil {
				return err
			}
			if _, ok := c.expected[uni[key].id()]; !ok {
				c.expected[uni[key].id()] = ans
			}
		}
	}
	todo := make(map[string]func() (string, error))
	for wi, w := range c.windows() {
		for _, o := range w.ops {
			k := uni[c.arrivals[wi][o.idx].Key]
			todo[k.id()] = func() (string, error) { return libAnswer(k, nil, 0) }
		}
	}
	if err := fillExpected(c.expected, todo); err != nil {
		return err
	}
	// Identical bodies for one key share a verdict: hits replay the
	// bytes of the miss that filled the cache, so most checks are one
	// comparison.
	type checked struct {
		body []byte
		err  error
	}
	seen := make(map[int][]checked)
	for wi, w := range c.windows() {
		for i := range w.ops {
			o := &w.ops[i]
			key := c.arrivals[wi][o.idx].Key
			k := uni[key]
			verdict(o, func(b []byte) error {
				for _, ch := range seen[key] {
					if bytes.Equal(ch.body, b) {
						return ch.err
					}
				}
				var err error
				if k.Lint {
					err = checkLintBody(b, c.expected[k.id()])
				} else {
					err = checkAnalyzeBody(b, c.expected[k.id()], false)
				}
				seen[key] = append(seen[key], checked{b, err})
				return err
			})
		}
	}
	return nil
}
