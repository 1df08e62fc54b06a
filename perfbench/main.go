// Command perfbench is the repository's benchmark: one program that runs
// fsserve in-process and the static tools as libraries, on inputs
// generated from a seed, and prints every metric by name with its unit
// after checking every answer. See README.md in this directory.
//
//	perfbench --workload serve-cold|serve-hot|static-ci --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the full report (host block, every metric, span summary), which is
// also written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed the serve-cold expected answers are recorded
// for.
const defaultSeed = 1

// metric is one reported metric's name and unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists the
// same names.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metric{
	{"minic.parse_us", "us"},
	{"loopir.lower_us", "us"},
	{"accessplan.compile_us", "us"},
	{"costmodel.estimate_us", "us"},
	{"fsmodel.analyze_ms", "ms"},
	{"fsmodel.ns_per_access", "ns"},
	{"repro.analyze_ms", "ms"},
	{"repro.estimate_cost_ms", "ms"},
	{"repro.recommend_ms", "ms"},
	{"repro.runs_per_answer", "ratio"},
	{"analysis.analyze_us", "us"},
	{"govet.check_us", "us"},
	{"govet.analyze_us", "us"},
	{"tuner.tune_ms", "ms"},
	{"tuner.candidates", "count"},
	{"tuner.verified", "count"},
	{"service.hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.misses", "count"},
	{"service.evictions", "count"},
	{"service.server_ms", "ms"},
	{"service.transport_ms", "ms"},
	{"service.eval_ms", "ms"},
	{"service.outside_eval_ms", "ms"},
	{"service.evals_per_miss", "ratio"},
	{"service.admission_limit_min", "count"},
	{"service.queue_rejects", "count"},
	{"service.degraded", "count"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_per_kop", "1/kop"},
	{"replay.request.self_us", "us"},
	{"ci.pass.self_us", "us"},
	{"lint.file.self_us", "us"},
	{"govet.file.self_us", "us"},
	{"fail_ratio", "ratio"},
	{"slo_miss_ratio", "ratio"},
	{"gen_lag_p99_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_p99_ms", "ms"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runCtx) error{
	"serve-cold": runServeCold,
	"serve-hot":  runServeHot,
	"static-ci":  runStaticCI,
}

// runCtx is one run's configuration and everything it measured.
type runCtx struct {
	root     string
	seed     int64
	dur      time.Duration
	trace    bool
	expected map[string]string // input id → expected answer

	setups []float64 // seconds per set-up
	plain  *window   // the untraced window
	traced *window   // the traced window (trace runs only)
	tr     *tracer
	// arrivals holds serve-hot's schedule per window, for mapping ops
	// back to keys.
	arrivals [][]hotArrival
}

func (c *runCtx) windows() []*window {
	if c.traced != nil {
		return []*window{c.plain, c.traced}
	}
	return []*window{c.plain}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "serve-cold, serve-hot or static-ci")
	seed := fl.Int64("seed", defaultSeed, "input seed")
	seconds := fl.Int("seconds", 10, "length of the timed window in seconds")
	trace := fl.Int("trace", 0, "1 adds a traced window and reports per-layer metrics")
	root := fl.String("root", ".", "repository root")
	out := fl.String("out", ".bench_build/perfbench", "directory for reports and spans")
	record := fl.Bool("record-expected", false, "recompute perfbench/expected/*.json with library calls and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordExpected(*root, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload serve-cold|serve-hot|static-ci, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	expected, err := loadExpected(*root, *workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	c := &runCtx{root: *root, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1, expected: expected}
	host := readHost(*root, *seed)
	if err := runner(c); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep := buildReport(c, *workload, host)
	if err := writeReport(*out, rep, c); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	result, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", result)
	return 0
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the full record of one run.
type report struct {
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Host     hostInfo           `json:"host"`
	Setups   []float64          `json:"setup_runs_s"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	// Health holds fail_ratio, slo_miss_ratio and gen_lag_p99_ms of the
	// untraced window. They are usually 0, so the result line carries
	// them only as per-layer metrics of a traced run.
	Health map[string]float64 `json:"health"`
	// Slices lists the untraced window's per-slice latency and rate.
	Slices   map[string][]float64  `json:"slices"`
	Traced   map[string]float64    `json:"traced_end_to_end,omitempty"`
	PerLayer map[string]float64    `json:"per_layer,omitempty"`
	Spans    map[string]*spanStats `json:"spans,omitempty"`
	// BySource splits the untraced window's latency by X-Cache value
	// (hit, miss, coalesced, ...): count, p50_ms and p99_ms.
	BySource map[string]map[string]float64 `json:"by_cache_source,omitempty"`
	Failures []string                      `json:"failures,omitempty"`
	Result   result                        `json:"-"`
}

// subWindows is how many equal time slices of a window the metrics are
// computed over. Other tenants of the host slow it in bursts, which show
// as steal time: CPU time the hypervisor gave to others while this VM was
// ready to run. Only quiet slices count (see quietLimit), so a burst moves
// the result only when it covers most of the window.
const subWindows = 20

// quietSteal is the share of a slice's CPU time the host may steal with
// the slice still counting as quiet.
const quietSteal = 0.02

// ticksPerSecond is the clock tick of /proc/stat (USER_HZ), 100 on Linux.
const ticksPerSecond = 100

// quietLimit is the most steal ticks a slice of the given length may
// show and still count: quietSteal of its CPU time, or the median over
// the window's slices if that is more. At least half of the slices count,
// and all of them when the host steals little.
func quietLimit(steal []float64, slice time.Duration) float64 {
	return max(median(append([]float64(nil), steal...)), quietSteal*slice.Seconds()*ticksPerSecond*float64(runtime.NumCPU()))
}

// windowE2E is the latency and throughput of one window plus the run's
// set-up and the process's peak memory up to the window's end. p50_ms and ops_per_s are medians over the quiet
// slices of each slice's value; p99_ms pools every operation of the quiet
// slices, since a slice holds too few samples for a steady p99 of its own.
func windowE2E(c *runCtx, w *window) map[string]float64 {
	slice := w.elapsed / subWindows
	slices := make([][]float64, subWindows)
	for _, o := range w.ops {
		k := min(int(o.at/slice), subWindows-1)
		slices[k] = append(slices[k], o.lat)
	}
	steal := make([]float64, subWindows)
	for k := range steal {
		end := slice * time.Duration(k+1)
		if k == subWindows-1 {
			end = w.elapsed
		}
		steal[k] = stealBetween(w.steal, slice*time.Duration(k), end)
	}
	limit := quietLimit(steal, slice)
	p50s := make([]float64, subWindows)
	p99s := make([]float64, subWindows)
	rates := make([]float64, subWindows)
	var quietP50s, quietRates, quietLat []float64
	for k, s := range slices {
		rates[k] = float64(len(s)) / slice.Seconds()
		p50s[k] = quantile(s, 0.5)
		p99s[k] = quantile(s, 0.99)
		if steal[k] <= limit {
			quietP50s = append(quietP50s, p50s[k])
			quietRates = append(quietRates, rates[k])
			quietLat = append(quietLat, s...)
		}
	}
	w.slices = map[string][]float64{"p50_ms": p50s, "p99_ms": p99s, "ops_per_s": rates, "steal_ticks": steal}
	return map[string]float64{
		"setup_s":     median(append([]float64(nil), c.setups...)),
		"p50_ms":      median(quietP50s),
		"p99_ms":      quantile(quietLat, 0.99),
		"ops_per_s":   median(quietRates),
		"peak_rss_mb": float64(w.procEnd.maxRSSK) / 1024,
	}
}

func buildReport(c *runCtx, workload string, host hostInfo) *report {
	rep := &report{Workload: workload, Trace: c.trace, Host: host, Setups: c.setups}
	rep.EndToEnd = windowE2E(c, c.plain)
	rep.Health = health(c, c.plain)
	rep.Slices = c.plain.slices
	bySource := make(map[string][]float64)
	for _, o := range c.plain.ops {
		if o.rep.cache != "" {
			bySource[o.rep.cache] = append(bySource[o.rep.cache], o.lat)
		}
	}
	for src, lat := range bySource {
		if rep.BySource == nil {
			rep.BySource = make(map[string]map[string]float64)
		}
		rep.BySource[src] = map[string]float64{"count": float64(len(lat)), "p50_ms": quantile(lat, 0.5), "p99_ms": quantile(lat, 0.99)}
	}
	res := result{Correct: true, Metrics: make(map[string]value)}
	for _, w := range c.windows() {
		res.Attempted += len(w.ops)
		for _, o := range w.ops {
			if o.bad == nil {
				continue
			}
			res.Failed++
			if o.wrong {
				res.Correct = false
			}
			if len(rep.Failures) < 20 {
				rep.Failures = append(rep.Failures, fmt.Sprintf("op %d: %v", o.idx, o.bad))
			}
		}
	}
	list := endToEnd
	vals := rep.EndToEnd
	if c.trace {
		rep.Traced = windowE2E(c, c.traced)
		rep.PerLayer = layerMetrics(c, rep.EndToEnd, rep.Traced)
		rep.Spans = c.tr.summary()
		list, vals = perLayer, rep.PerLayer
	}
	for _, m := range list {
		res.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
	rep.Result = res
	return rep
}

// health is a window's failure accounting: the share of ops that failed
// (non-200, degraded or wrong), and for the open loop the share that
// also missed the latency limit and how late the generator ran.
func health(c *runCtx, w *window) map[string]float64 {
	var failed, sloMiss float64
	var lags []float64
	for _, o := range w.ops {
		if o.bad != nil {
			failed++
		}
		if c.arrivals != nil {
			lags = append(lags, o.lag)
			if o.bad != nil || o.lat > ms(hotSLOLimit) {
				sloMiss++
			}
		}
	}
	n := float64(len(w.ops))
	return map[string]float64{
		"fail_ratio":     ratio(failed, n),
		"slo_miss_ratio": ratio(sloMiss, n),
		"gen_lag_p99_ms": quantile(lags, 0.99),
	}
}

// layerMetrics derives every per-layer metric from the traced window,
// its spans, its /metrics deltas and its X-Cache headers; plain and
// traced are the two windows' end-to-end metrics.
func layerMetrics(c *runCtx, plain, traced map[string]float64) map[string]float64 {
	w := c.traced
	m := make(map[string]float64)
	for _, pm := range perLayer {
		m[pm.name] = 0
	}
	spans := c.tr.summary()
	get := func(name string) spanStats {
		if s := spans[name]; s != nil {
			return *s
		}
		return spanStats{}
	}
	// Mean time per call of each layer span, in the metric's unit.
	for _, l := range []struct {
		metric, span string
		nsPerUnit    float64
	}{
		{"minic.parse_us", "minic.parse", 1e3},
		{"loopir.lower_us", "loopir.lower", 1e3},
		{"accessplan.compile_us", "accessplan.compile", 1e3},
		{"costmodel.estimate_us", "costmodel.estimate", 1e3},
		{"fsmodel.analyze_ms", "fsmodel.analyze", 1e6},
		{"repro.analyze_ms", "repro.analyze", 1e6},
		{"repro.estimate_cost_ms", "repro.estimate_cost", 1e6},
		{"repro.recommend_ms", "repro.recommend", 1e6},
		{"analysis.analyze_us", "analysis.analyze", 1e3},
		{"govet.check_us", "govet.check", 1e3},
		{"govet.analyze_us", "govet.analyze", 1e3},
		{"tuner.tune_ms", "tuner.tune", 1e6},
	} {
		m[l.metric] = get(l.span).meanNs() / l.nsPerUnit
	}
	for _, parent := range []string{"replay.request", "ci.pass", "lint.file", "govet.file"} {
		if s := get(parent); s.Count > 0 {
			m[parent+".self_us"] = float64(s.SelfNs) / float64(s.Count) / 1e3
		}
	}
	fs := get("fsmodel.analyze")
	m["fsmodel.ns_per_access"] = ratio(float64(fs.TotalNs), float64(fs.N))
	m["repro.runs_per_answer"] = ratio(float64(get("repro.analyze").TotalNs+get("repro.estimate_cost").TotalNs), float64(fs.TotalNs))
	tune := get("tuner.tune")
	m["tuner.candidates"] = ratio(float64(tune.N), float64(tune.Count))

	ops := float64(len(w.ops))
	var verified, hits float64
	var svc []float64
	for _, o := range w.ops {
		if len(o.n) == 2 {
			verified += float64(o.n[1])
		}
		if o.rep.cache == "hit" {
			hits++
		}
		svc = append(svc, o.svc)
	}
	m["tuner.verified"] = ratio(verified, float64(tune.Count))
	for k, v := range health(c, w) {
		m[k] = v
	}

	if w.promEnd != nil {
		d := func(name string) float64 { return delta(w.promStart, w.promEnd, name) }
		misses := d("fsserve_cache_misses_total")
		evals := d("fsserve_evaluations_total")
		reqSum, reqCount := d("fsserve_request_seconds_sum"), d("fsserve_request_seconds_count")
		evalSum, evalCount := d("fsserve_eval_seconds_sum"), d("fsserve_eval_seconds_count")
		serverMs := 1e3 * ratio(reqSum, reqCount)
		m["service.hit_ratio"] = ratio(hits, ops)
		m["service.coalesced"] = d("fsserve_dedup_coalesced_total")
		m["service.misses"] = misses
		m["service.evictions"] = evals - d("fsserve_cache_entries")
		m["service.server_ms"] = serverMs
		m["service.transport_ms"] = mean(svc) - serverMs
		m["service.eval_ms"] = 1e3 * ratio(evalSum, evalCount)
		m["service.outside_eval_ms"] = 1e3 * ratio(reqSum-evalSum, misses)
		m["service.evals_per_miss"] = ratio(evals, misses)
		m["service.admission_limit_min"] = float64(w.admissionMin)
		m["service.queue_rejects"] = d("fsserve_queue_rejects_total")
		m["service.degraded"] = d("fsserve_degraded_total")
	}
	m["runtime.cpu_us_per_op"] = ratio(float64(w.procEnd.cpu-w.procStart.cpu)/1e3, ops)
	m["runtime.alloc_kb_per_op"] = ratio(float64(w.procEnd.alloc-w.procStart.alloc)/1024, ops)
	m["runtime.gc_per_kop"] = ratio(1e3*float64(w.procEnd.numGC-w.procStart.numGC), ops)

	m["trace.overhead_p50_ms"] = traced["p50_ms"] - plain["p50_ms"]
	m["trace.overhead_p99_ms"] = traced["p99_ms"] - plain["p99_ms"]
	return m
}

// writeReport stores the report, and the spans of a traced run, under
// dir.
func writeReport(dir string, rep *report, c *runCtx) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t", rep.Workload, rep.Host.Seed, rep.Trace))
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if c.tr == nil {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := c.tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedByIdx returns the ops in input order.
func sortedByIdx(ops []op) []op {
	out := append([]op(nil), ops...)
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// recordExpected recomputes the expected-answer files with direct
// library calls: serve-cold for the default seed's first inputs,
// serve-hot's whole universe and static-ci's every configuration.
func recordExpected(root string, log io.Writer) error {
	cold := make(map[string]func() (string, error))
	for _, p := range coldSequence(defaultSeed)[:coldRecorded] {
		cold[p.id()] = func() (string, error) { return libraryAnalyze(p, nil, 0) }
	}
	hot := make(map[string]func() (string, error))
	for _, k := range hotUniverse() {
		hot[k.id()] = func() (string, error) {
			if k.Lint {
				return libraryLint(k.Point.source(), machineByName("paper48"), k.Point.Threads, k.Point.Chunk, nil, 0, 0)
			}
			return libraryAnalyze(k.Point, nil, 0)
		}
	}
	for _, f := range []struct {
		workload string
		seed     int64
		todo     map[string]func() (string, error)
	}{{"serve-hot", 0, hot}, {"serve-cold", defaultSeed, cold}} {
		answers := make(map[string]string)
		t0 := time.Now()
		if err := fillExpected(answers, f.todo); err != nil {
			return err
		}
		if err := writeExpected(root, expectedFile{Workload: f.workload, Seed: f.seed, Answers: answers}); err != nil {
			return err
		}
		fmt.Fprintf(log, "recorded %d %s answers in %v\n", len(answers), f.workload, time.Since(t0).Round(time.Millisecond))
	}

	corpus, err := loadCorpus(root)
	if err != nil {
		return err
	}
	answers := make(map[string]string)
	for _, cfg := range ciConfigs() {
		r, err := corpus.pass(cfg, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.id(), err)
		}
		for id, a := range r.answers {
			answers[id] = a
		}
		if err := corpus.check(cfg, r, r.answers); err != nil {
			return fmt.Errorf("static-ci disagrees with a committed golden file: %w", err)
		}
	}
	fmt.Fprintf(log, "recorded %d static-ci answers\n", len(answers))
	return writeExpected(root, expectedFile{Workload: "static-ci", Answers: answers})
}
