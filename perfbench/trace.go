package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer records spans the benchmark opens around each call it makes
// into a layer. Spans stay in memory and are written out when the run
// ends. A nil *tracer records nothing and costs one nil check per call,
// which is how the untraced run measures.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Parent is the enclosing span's ID
// (0 for a root); Req groups the spans of one request or pass; N carries
// a count measured inside the call (simulated accesses, candidates).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; the returned handle's end closes it. On a nil
// tracer both are no-ops.
func (t *tracer) begin(req int64, parent int, name string) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name})
	t.mu.Unlock()
	return spanHandle{t: t, id: id, start: time.Since(t.epoch)}
}

// spanHandle is an open span.
type spanHandle struct {
	t     *tracer
	id    int
	start time.Duration
}

// end closes the span, attaching count n.
func (h spanHandle) end(n int64) {
	if h.t == nil {
		return
	}
	stop := time.Since(h.t.epoch)
	h.t.mu.Lock()
	s := &h.t.spans[h.id-1]
	s.Start, s.End, s.N = int64(h.start), int64(stop), n
	h.t.mu.Unlock()
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	Count int64 `json:"count"`
	// TotalNs sums durations; SelfNs sums each span's duration minus the
	// part of its interval its children cover (only for names whose spans
	// have children).
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns,omitempty"`
	HasKids bool  `json:"has_children,omitempty"`
	// N sums the spans' attached counts.
	N int64 `json:"n,omitempty"`
}

// meanNs is the mean duration per span (0 without spans).
func (s spanStats) meanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count)
}

// summary aggregates every span name, with self time for parents.
func (t *tracer) summary() map[string]*spanStats {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalNs += s.dur()
		st.N += s.N
		if ks := kids[s.ID]; len(ks) > 0 {
			st.HasKids = true
			st.SelfNs += s.dur() - covered(s, ks)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, ks []span) int64 {
	sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	for _, k := range ks {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = start, end
			continue
		}
		curEnd = max(curEnd, end)
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}
