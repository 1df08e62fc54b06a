package service

import (
	"strings"
	"testing"
)

func TestMetricsPrometheusRendering(t *testing.T) {
	m := NewMetrics()
	m.CacheHits.Add(5)
	m.Evaluations.Inc()
	m.QueueDepth.Set(3)
	m.Requests.With("/v1/analyze", "200").Add(7)
	m.Requests.With("/v1/analyze", "400").Inc()
	m.Requests.With("/healthz", "200").Inc()
	m.EvalLatency.With("analyze").Observe(0.25)
	m.EvalLatency.With("analyze").Observe(0.5)
	m.EvalLatency.With("analyze").Observe(42) // beyond the last bound → +Inf bucket only
	m.EvalLatency.With("lint").Observe(0.001)

	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE fsserve_requests_total counter",
		`fsserve_requests_total{endpoint="/healthz",code="200"} 1`,
		`fsserve_requests_total{endpoint="/v1/analyze",code="200"} 7`,
		`fsserve_requests_total{endpoint="/v1/analyze",code="400"} 1`,
		"fsserve_cache_hits_total 5",
		"fsserve_evaluations_total 1",
		"# TYPE fsserve_queue_depth gauge",
		"fsserve_queue_depth 3",
		"# TYPE fsserve_eval_seconds histogram",
		`fsserve_eval_seconds_bucket{endpoint="analyze",le="0.25"} 1`, // le is inclusive
		`fsserve_eval_seconds_bucket{endpoint="analyze",le="0.5"} 2`,  // and cumulative
		`fsserve_eval_seconds_bucket{endpoint="analyze",le="10"} 2`,
		`fsserve_eval_seconds_bucket{endpoint="analyze",le="+Inf"} 3`,
		`fsserve_eval_seconds_count{endpoint="analyze"} 3`,
		`fsserve_eval_seconds_sum{endpoint="analyze"} 42.75`,
		`fsserve_eval_seconds_bucket{endpoint="lint",le="0.001"} 1`,
		`fsserve_eval_seconds_count{endpoint="lint"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The buckets below every observation stay empty.
	if !strings.Contains(out, `fsserve_eval_seconds_bucket{endpoint="analyze",le="0.1"} 0`) {
		t.Errorf("low bucket not empty:\n%s", out)
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1)   // on the bound → le="1"
	h.Observe(1.5) // le="2"
	h.Observe(3)   // +Inf
	if h.counts[0] != 1 || h.counts[1] != 1 || h.counts[2] != 1 {
		t.Fatalf("counts = %v", h.counts)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestLabeledCounterTotalAndArity(t *testing.T) {
	lc := newLabeledCounter("a", "b")
	lc.With("x", "y").Add(2)
	lc.With("x", "z").Inc()
	if lc.Total() != 3 {
		t.Fatalf("Total = %d, want 3", lc.Total())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity must panic")
		}
	}()
	lc.With("only-one")
}
