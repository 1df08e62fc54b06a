package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

const repoRoot = ".."

func loadExpectedT(t *testing.T, workload string) map[string]string {
	t.Helper()
	exp, err := loadExpected(repoRoot, workload)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// generatedInputs renders every generator's output for a seed.
func generatedInputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range []any{
		coldSequence(seed),
		coldWarmup(),
		hotUniverse(),
		newHotPlan(seed, hotUniverse(), 3*time.Second),
		ciSequence(seed, 500),
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range coldSequence(seed)[:50] {
		buf.WriteString(p.source())
		if err := enc.Encode(p.request()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := generatedInputs(t, 7), generatedInputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if bytes.Equal(a, generatedInputs(t, 8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

func TestColdSequenceDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, p := range coldSequence(defaultSeed) {
		if seen[p.id()] {
			t.Fatalf("serve-cold repeats input %s", p.id())
		}
		seen[p.id()] = true
	}
	for _, p := range coldWarmup() {
		if seen[p.id()] {
			t.Fatalf("warm-up input %s is also a timed input", p.id())
		}
	}
}

func TestServeColdNeverHits(t *testing.T) {
	c := &runCtx{root: repoRoot, seed: 3, dur: time.Second, expected: loadExpectedT(t, "serve-cold")}
	if err := runServeCold(c); err != nil {
		t.Fatal(err)
	}
	w := c.plain
	if len(w.ops) == 0 {
		t.Fatal("no requests completed")
	}
	for _, o := range w.ops {
		if o.rep.cache != "miss" {
			t.Errorf("request %d: X-Cache %q, want miss", o.idx, o.rep.cache)
		}
		if o.bad != nil {
			t.Errorf("request %d: %v", o.idx, o.bad)
		}
	}
	if hits := delta(w.promStart, w.promEnd, "fsserve_cache_hits_total"); hits != 0 {
		t.Errorf("fsserve_cache_hits_total moved by %v over the window", hits)
	}
}

func TestServeHotMissesAndEvicts(t *testing.T) {
	if n := len(hotUniverse()); n <= 2*hotWarmKeys {
		t.Fatalf("universe of %d keys is not well above CacheEntries %d", n, hotWarmKeys)
	}
	c := &runCtx{root: repoRoot, seed: 5, dur: 2 * time.Second, expected: loadExpectedT(t, "serve-hot")}
	if err := runServeHot(c); err != nil {
		t.Fatal(err)
	}
	w := c.plain
	misses := delta(w.promStart, w.promEnd, "fsserve_cache_misses_total")
	evictions := delta(w.promStart, w.promEnd, "fsserve_evaluations_total") - delta(w.promStart, w.promEnd, "fsserve_cache_entries")
	hits := delta(w.promStart, w.promEnd, "fsserve_cache_hits_total")
	if misses == 0 || evictions == 0 || hits == 0 {
		t.Fatalf("hits %v, misses %v, evictions %v: want all nonzero", hits, misses, evictions)
	}
	for _, o := range w.ops {
		if o.bad != nil {
			t.Fatalf("arrival %d: %v", o.idx, o.bad)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("unit %q of %s does not match %s", m.unit, m.name, unitRE)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}

	// BENCHMARK.json must declare exactly the metrics perfbench prints.
	data, err := os.ReadFile(repoRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metric
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(pair.declared) != len(pair.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, perfbench prints %d", len(pair.declared), len(pair.printed))
		}
		for i, d := range pair.declared {
			if p := pair.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], perfbench %s [%s]", i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
}

func TestCorruptedColdAnswerFails(t *testing.T) {
	exp := loadExpectedT(t, "serve-cold")
	first := coldSequence(defaultSeed)[0]
	want, ok := exp[first.id()]
	if !ok {
		t.Fatalf("no recorded answer for %s", first.id())
	}
	exp[first.id()] = want + "0"
	c := &runCtx{root: repoRoot, seed: defaultSeed, dur: time.Second, expected: exp}
	if err := runServeCold(c); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, o := range c.plain.ops {
		if o.idx == 0 {
			found = true
			if o.bad == nil || !o.wrong {
				t.Fatalf("corrupted expected answer for request 0 not reported: bad=%v wrong=%v", o.bad, o.wrong)
			}
		} else if o.bad != nil {
			t.Errorf("request %d: %v", o.idx, o.bad)
		}
	}
	if !found {
		t.Fatal("request 0 was not sent")
	}
	rep := buildReport(c, "serve-cold", hostInfo{})
	if rep.Result.Correct || rep.Result.Failed != 1 {
		t.Fatalf("result correct=%v failed=%d, want false and 1", rep.Result.Correct, rep.Result.Failed)
	}
}

func TestCorruptedStaticAnswerFails(t *testing.T) {
	corpus, err := loadCorpus(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ciConfig{Machine: "paper48"}
	r, err := corpus.pass(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exp := loadExpectedT(t, "static-ci")
	if err := corpus.check(cfg, r, exp); err != nil {
		t.Fatalf("recorded answers: %v", err)
	}
	for _, id := range []string{lintID(cfg, "testdata/victim.c"), tuneID(cfg, "examples/tune/heat.c")} {
		bad := make(map[string]string)
		for k, v := range exp {
			bad[k] = v
		}
		bad[id] = "corrupted"
		if err := corpus.check(cfg, r, bad); err == nil {
			t.Errorf("corrupted answer for %s not reported", id)
		}
	}
	corpus.govetGolden["bad_hotpair.go"] = "GV001@1"
	if err := corpus.check(cfg, r, exp); err == nil {
		t.Error("corrupted fsvet golden not reported")
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}}
	s := tr.summary()
	if got := s["root"].SelfNs; got != 100-50-10 {
		t.Fatalf("root self time %d, want 40", got)
	}
	if s["a"].HasKids || s["a"].SelfNs != 0 {
		t.Fatalf("leaf span reported self time: %+v", s["a"])
	}
}

func TestQuietSlices(t *testing.T) {
	samples := []stealSample{{at: -time.Millisecond, ticks: 100}, {at: time.Second, ticks: 100}, {at: 2 * time.Second, ticks: 130}, {at: 3 * time.Second, ticks: 131}}
	steal := []float64{
		stealBetween(samples, 0, time.Second),
		stealBetween(samples, time.Second, 2*time.Second),
		stealBetween(samples, 2*time.Second, 3*time.Second),
	}
	if steal[0] != 0 || steal[1] != 30 || steal[2] != 1 {
		t.Fatalf("steal per slice %v, want [0 30 1]", steal)
	}
	// A 1 s slice may lose 2% of its CPU time, 2 ticks per CPU, which is
	// more than the median of 1.
	slice := time.Second
	if got, want := quietLimit(steal, slice), 2*float64(runtime.NumCPU()); got != want {
		t.Fatalf("quiet limit %v ticks, want %v", got, want)
	}
	if got := quietLimit([]float64{0, 100, 90, 80}, slice); got != 85 {
		t.Fatalf("quiet limit %v under steady steal, want the median 85", got)
	}
}
