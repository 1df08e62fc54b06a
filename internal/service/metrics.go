package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency histogram in seconds.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []int64   // len(bounds)+1
	sum    float64
	count  int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// defLatencyBuckets spans sub-millisecond cache hits to multi-second
// sweeps.
func defLatencyBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// LabeledCounter is a family of counters distinguished by label values
// (e.g. requests by endpoint and status code).
type LabeledCounter struct {
	labels []string // label names, fixed at construction
	mu     sync.Mutex
	vals   map[string]*Counter // key = joined label values
}

func newLabeledCounter(labels ...string) *LabeledCounter {
	return &LabeledCounter{labels: labels, vals: make(map[string]*Counter)}
}

// With returns the counter for the given label values (created on first
// use). len(values) must equal the number of label names.
func (l *LabeledCounter) With(values ...string) *Counter {
	if len(values) != len(l.labels) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(values), len(l.labels)))
	}
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x00"
		}
		key += v
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.vals[key]
	if !ok {
		c = &Counter{}
		l.vals[key] = c
	}
	return c
}

// Total sums the family across all label values.
func (l *LabeledCounter) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t int64
	for _, c := range l.vals {
		t += c.Value()
	}
	return t
}

// LabeledGauge is a family of gauges distinguished by label values
// (e.g. per-peer cluster health).
type LabeledGauge struct {
	labels []string
	mu     sync.Mutex
	vals   map[string]*Gauge
}

func newLabeledGauge(labels ...string) *LabeledGauge {
	return &LabeledGauge{labels: labels, vals: make(map[string]*Gauge)}
}

// With returns the gauge for the given label values (created on first
// use). len(values) must equal the number of label names.
func (l *LabeledGauge) With(values ...string) *Gauge {
	if len(values) != len(l.labels) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(values), len(l.labels)))
	}
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x00"
		}
		key += v
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	g, ok := l.vals[key]
	if !ok {
		g = &Gauge{}
		l.vals[key] = g
	}
	return g
}

func (l *LabeledGauge) write(w io.Writer, name string) {
	l.mu.Lock()
	keys := make([]string, 0, len(l.vals))
	for k := range l.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type kv struct {
		key string
		val int64
	}
	rows := make([]kv, len(keys))
	for i, k := range keys {
		rows[i] = kv{k, l.vals[k].Value()}
	}
	l.mu.Unlock()
	for _, r := range rows {
		fmt.Fprintf(w, "%s{", name)
		for i, v := range splitKey(r.key, len(l.labels)) {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "%s=%q", l.labels[i], v)
		}
		fmt.Fprintf(w, "} %d\n", r.val)
	}
}

// LabeledHistogram is a family of histograms distinguished by label
// values (e.g. evaluation latency by endpoint).
type LabeledHistogram struct {
	labels []string
	bounds []float64
	mu     sync.Mutex
	vals   map[string]*Histogram
}

func newLabeledHistogram(bounds []float64, labels ...string) *LabeledHistogram {
	return &LabeledHistogram{labels: labels, bounds: bounds, vals: make(map[string]*Histogram)}
}

// With returns the histogram for the given label values (created on
// first use). len(values) must equal the number of label names.
func (l *LabeledHistogram) With(values ...string) *Histogram {
	if len(values) != len(l.labels) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(values), len(l.labels)))
	}
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x00"
		}
		key += v
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	h, ok := l.vals[key]
	if !ok {
		h = newHistogram(l.bounds)
		l.vals[key] = h
	}
	return h
}

// Count returns the number of observations across all label values.
func (l *LabeledHistogram) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t int64
	for _, h := range l.vals {
		t += h.Count()
	}
	return t
}

// Metrics is the server's metric set, rendered in Prometheus text
// exposition format by WritePrometheus. Everything is hand-rolled on the
// stdlib: counters and gauges are atomics, histograms are fixed buckets
// under a mutex.
type Metrics struct {
	// Requests counts finished HTTP requests by endpoint and status code.
	Requests *LabeledCounter
	// CacheHits / CacheMisses count result-cache outcomes; Coalesced
	// counts requests that joined an identical in-flight evaluation
	// instead of starting their own; Evaluations counts actual model
	// evaluations (misses that led).
	CacheHits   *Counter
	CacheMisses *Counter
	Coalesced   *Counter
	Evaluations *Counter
	// QueueRejects counts every request turned away with 429: full
	// queue, quota and queue-deadline rejections alike (the historical
	// name predates the finer-grained counters below, which partition
	// the non-queue-full slices).
	QueueRejects *Counter
	// DeadlineEvictions counts queued requests rejected because their
	// deadline could not be met by the estimated queue drain time.
	DeadlineEvictions *Counter
	// QuotaRejects counts requests rejected by a per-client quota.
	QuotaRejects *Counter
	// Degraded counts requests answered by the closed-form fallback
	// instead of the full evaluator, by endpoint and reason
	// ("breaker-open", "panic", "budget", "deadline", "internal").
	Degraded *LabeledCounter
	// EvalPanics counts evaluator panics converted to errors by the
	// guard recover wrappers.
	EvalPanics *Counter
	// CacheEntries is the current result-cache size; QueueDepth is the
	// number of requests waiting for an evaluation slot; Inflight is the
	// number of evaluations currently running; AdmissionLimit is the
	// number of evaluation slots (the -concurrency ceiling).
	CacheEntries   *Gauge
	QueueDepth     *Gauge
	Inflight       *Gauge
	AdmissionLimit *Gauge
	// Snapshot accounting: Restored/Salvage-dropped record counts from
	// the last startup load, write/write-error counts since start, and
	// the age of the newest on-disk snapshot (set at scrape time; -1
	// until a snapshot exists).
	SnapshotRestored    *Counter
	SnapshotDropped     *Counter
	SnapshotWrites      *Counter
	SnapshotWriteErrors *Counter
	SnapshotAgeSeconds  *Gauge
	// EvalLatency observes model-evaluation wall time by endpoint;
	// RequestLatency observes whole-request wall time (including cache
	// hits).
	EvalLatency    *LabeledHistogram
	RequestLatency *Histogram
	// TuneCandidates counts candidate plans the tuner fast-tier scored;
	// TunePhase observes tuner search-stage wall time by phase
	// ("enumerate", "score", "verify", "apply").
	TuneCandidates *Counter
	TunePhase      *LabeledHistogram
	// Cluster metrics. ClusterForwards counts proxied requests by peer
	// and outcome ("ok", "hedged", "client-error", "backpressure",
	// "error"); ClusterForwardLatency observes forward round-trip wall
	// time; ClusterPeerHealthy is 1/0 per probed peer; ClusterProbes
	// counts probe exchanges by peer and outcome ("ok"/"fail").
	ClusterForwards       *LabeledCounter
	ClusterForwardLatency *Histogram
	ClusterPeerHealthy    *LabeledGauge
	ClusterProbes         *LabeledCounter
	// Peer cache fill accounting: FillHits/FillMisses count replica
	// lookups on local misses; FillPushes counts entries pushed to the
	// other replica after a local evaluation; FillDrops counts pushes
	// dropped because the bounded push queue was full.
	ClusterFillHits   *Counter
	ClusterFillMisses *Counter
	ClusterFillPushes *Counter
	ClusterFillDrops  *Counter
}

// NewMetrics constructs an empty metric set.
func NewMetrics() *Metrics {
	return &Metrics{
		Requests:            newLabeledCounter("endpoint", "code"),
		CacheHits:           &Counter{},
		CacheMisses:         &Counter{},
		Coalesced:           &Counter{},
		Evaluations:         &Counter{},
		QueueRejects:        &Counter{},
		DeadlineEvictions:   &Counter{},
		QuotaRejects:        &Counter{},
		Degraded:            newLabeledCounter("endpoint", "reason"),
		EvalPanics:          &Counter{},
		CacheEntries:        &Gauge{},
		QueueDepth:          &Gauge{},
		Inflight:            &Gauge{},
		AdmissionLimit:      &Gauge{},
		SnapshotRestored:    &Counter{},
		SnapshotDropped:     &Counter{},
		SnapshotWrites:      &Counter{},
		SnapshotWriteErrors: &Counter{},
		SnapshotAgeSeconds:  &Gauge{},
		EvalLatency:         newLabeledHistogram(defLatencyBuckets(), "endpoint"),
		RequestLatency:      newHistogram(defLatencyBuckets()),
		TuneCandidates:      &Counter{},
		TunePhase:           newLabeledHistogram(defLatencyBuckets(), "phase"),

		ClusterForwards:       newLabeledCounter("peer", "outcome"),
		ClusterForwardLatency: newHistogram(defLatencyBuckets()),
		ClusterPeerHealthy:    newLabeledGauge("peer"),
		ClusterProbes:         newLabeledCounter("peer", "outcome"),
		ClusterFillHits:       &Counter{},
		ClusterFillMisses:     &Counter{},
		ClusterFillPushes:     &Counter{},
		ClusterFillDrops:      &Counter{},
	}
}

func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (l *LabeledCounter) write(w io.Writer, name string) {
	l.mu.Lock()
	keys := make([]string, 0, len(l.vals))
	for k := range l.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type kv struct {
		key string
		val int64
	}
	rows := make([]kv, len(keys))
	for i, k := range keys {
		rows[i] = kv{k, l.vals[k].Value()}
	}
	l.mu.Unlock()
	for _, r := range rows {
		fmt.Fprintf(w, "%s{", name)
		for i, v := range splitKey(r.key, len(l.labels)) {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "%s=%q", l.labels[i], v)
		}
		fmt.Fprintf(w, "} %d\n", r.val)
	}
}

func splitKey(key string, n int) []string {
	parts := make([]string, 0, n)
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == '\x00' {
			parts = append(parts, key[start:i])
			start = i + 1
		}
	}
	return append(parts, key[start:])
}

func (h *Histogram) write(w io.Writer, name string) { h.writeLabeled(w, name, "") }

// writeLabeled renders the histogram with an optional label prefix
// (rendered inside every series' braces, before le).
func (h *Histogram) writeLabeled(w io.Writer, name, labels string) {
	h.mu.Lock()
	bounds := h.bounds
	counts := append([]int64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(sum))
		fmt.Fprintf(w, "%s_count %d\n", name, count)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(sum))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, count)
}

func (l *LabeledHistogram) write(w io.Writer, name string) {
	l.mu.Lock()
	keys := make([]string, 0, len(l.vals))
	for k := range l.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hs := make([]*Histogram, len(keys))
	for i, k := range keys {
		hs[i] = l.vals[k]
	}
	l.mu.Unlock()
	for i, k := range keys {
		labels := ""
		for j, v := range splitKey(k, len(l.labels)) {
			if j > 0 {
				labels += ","
			}
			labels += fmt.Sprintf("%s=%q", l.labels[j], v)
		}
		hs[i].writeLabeled(w, name, labels)
	}
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4), deterministically ordered.
func (m *Metrics) WritePrometheus(w io.Writer) {
	writeHeader(w, "fsserve_requests_total", "counter", "Finished HTTP requests by endpoint and status code.")
	m.Requests.write(w, "fsserve_requests_total")

	for _, c := range []struct {
		name, help string
		c          *Counter
	}{
		{"fsserve_cache_hits_total", "Analyses served from the result cache.", m.CacheHits},
		{"fsserve_cache_misses_total", "Analyses not found in the result cache.", m.CacheMisses},
		{"fsserve_dedup_coalesced_total", "Requests coalesced onto an identical in-flight evaluation.", m.Coalesced},
		{"fsserve_evaluations_total", "Model evaluations actually performed.", m.Evaluations},
		{"fsserve_queue_rejects_total", "Requests rejected with 429 (full queue, quota, or unmeetable deadline).", m.QueueRejects},
		{"fsserve_queue_deadline_evictions_total", "Requests rejected because their deadline could not outlast the queue.", m.DeadlineEvictions},
		{"fsserve_quota_rejects_total", "Requests rejected by a per-client quota.", m.QuotaRejects},
		{"fsserve_eval_panics_total", "Evaluator panics converted to errors by the guard wrappers.", m.EvalPanics},
		{"fsserve_snapshot_records_restored_total", "Cache records restored from the startup snapshot.", m.SnapshotRestored},
		{"fsserve_snapshot_records_dropped_total", "Snapshot records dropped at load (corrupt, truncated, or version-skewed).", m.SnapshotDropped},
		{"fsserve_snapshot_writes_total", "Cache snapshots written successfully.", m.SnapshotWrites},
		{"fsserve_snapshot_write_errors_total", "Cache snapshot writes that failed.", m.SnapshotWriteErrors},
	} {
		writeHeader(w, c.name, "counter", c.help)
		fmt.Fprintf(w, "%s %d\n", c.name, c.c.Value())
	}

	writeHeader(w, "fsserve_degraded_total", "counter", "Requests answered by the closed-form fallback, by endpoint and reason.")
	m.Degraded.write(w, "fsserve_degraded_total")

	for _, g := range []struct {
		name, help string
		g          *Gauge
	}{
		{"fsserve_cache_entries", "Entries currently in the result cache.", m.CacheEntries},
		{"fsserve_queue_depth", "Requests currently waiting for an evaluation slot.", m.QueueDepth},
		{"fsserve_inflight_evaluations", "Model evaluations currently running.", m.Inflight},
		{"fsserve_admission_limit", "Evaluation slots (the -concurrency ceiling).", m.AdmissionLimit},
		{"fsserve_snapshot_age_seconds", "Age of the newest on-disk cache snapshot (-1 until one exists).", m.SnapshotAgeSeconds},
	} {
		writeHeader(w, g.name, "gauge", g.help)
		fmt.Fprintf(w, "%s %d\n", g.name, g.g.Value())
	}

	writeHeader(w, "fsserve_tune_candidates_total", "counter", "Candidate plans scored by the auto-tuner's fast tier.")
	fmt.Fprintf(w, "fsserve_tune_candidates_total %d\n", m.TuneCandidates.Value())

	writeHeader(w, "fsserve_eval_seconds", "histogram", "Model evaluation latency in seconds, by endpoint.")
	m.EvalLatency.write(w, "fsserve_eval_seconds")
	writeHeader(w, "fsserve_request_seconds", "histogram", "Whole-request latency in seconds.")
	m.RequestLatency.write(w, "fsserve_request_seconds")
	writeHeader(w, "fsserve_tune_search_seconds", "histogram", "Auto-tuner search-stage wall time in seconds, by phase.")
	m.TunePhase.write(w, "fsserve_tune_search_seconds")

	writeHeader(w, "fsserve_cluster_forwards_total", "counter", "Requests proxied to a cluster peer, by peer and outcome.")
	m.ClusterForwards.write(w, "fsserve_cluster_forwards_total")
	writeHeader(w, "fsserve_cluster_probes_total", "counter", "Peer health-probe exchanges, by peer and outcome.")
	m.ClusterProbes.write(w, "fsserve_cluster_probes_total")
	writeHeader(w, "fsserve_cluster_peer_healthy", "gauge", "Per-peer probed health (1 = healthy, 0 = suspect or down).")
	m.ClusterPeerHealthy.write(w, "fsserve_cluster_peer_healthy")
	for _, c := range []struct {
		name, help string
		c          *Counter
	}{
		{"fsserve_cluster_fill_hits_total", "Local cache misses answered by a replica peer lookup.", m.ClusterFillHits},
		{"fsserve_cluster_fill_misses_total", "Replica peer lookups that found nothing.", m.ClusterFillMisses},
		{"fsserve_cluster_fill_pushes_total", "Cache entries pushed to replica peers after local evaluations.", m.ClusterFillPushes},
		{"fsserve_cluster_fill_dropped_total", "Replica pushes dropped because the bounded push queue was full.", m.ClusterFillDrops},
	} {
		writeHeader(w, c.name, "counter", c.help)
		fmt.Fprintf(w, "%s %d\n", c.name, c.c.Value())
	}
	writeHeader(w, "fsserve_cluster_forward_seconds", "histogram", "Forwarded-request round-trip latency in seconds.")
	m.ClusterForwardLatency.write(w, "fsserve_cluster_forward_seconds")
}
