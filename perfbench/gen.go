package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/kernels"
	"repro/internal/service"
)

// Every input the benchmark sends is a pure function of the seed: the
// generators below enumerate a fixed input space and let a seeded source
// pick the order, so one seed always produces byte-identical requests.

var (
	threadChoices = []int{4, 8, 16}
	chunkChoices  = []int64{0, 1, 2, 4, 8}
)

// analyzePoint is one /v1/analyze request on a generated paper kernel:
// heat (Rows×Cols grid), dft (Rows = N) or linreg (Rows tasks, Cols
// points).
type analyzePoint struct {
	Kernel    string `json:"kernel"`
	Rows      int64  `json:"rows"`
	Cols      int64  `json:"cols,omitempty"`
	Threads   int    `json:"threads"`
	Chunk     int64  `json:"chunk"`
	Recommend bool   `json:"recommend,omitempty"`
}

// id names the point's answer; recommend does not change the checked
// fields, so it is not part of the id.
func (p analyzePoint) id() string {
	return fmt.Sprintf("%s/%dx%d/t%d/c%d", p.Kernel, p.Rows, p.Cols, p.Threads, p.Chunk)
}

func (p analyzePoint) source() string {
	switch p.Kernel {
	case "heat":
		return kernels.HeatSource(p.Rows, p.Cols)
	case "dft":
		return kernels.DFTSource(p.Rows)
	case "linreg":
		return kernels.LinRegSource(p.Rows, p.Cols, p.Threads)
	}
	panic("perfbench: unknown kernel " + p.Kernel)
}

func (p analyzePoint) request() service.AnalyzeRequest {
	return service.AnalyzeRequest{Source: p.source(), Threads: p.Threads, Chunk: p.Chunk, Recommend: p.Recommend}
}

// coldSpace enumerates every serve-cold point: geometries sized so one
// model run takes roughly 2-20 ms, crossed with every thread count and
// chunk. It holds several times more points than one run sends, so a
// run never repeats a cache key.
func coldSpace() []analyzePoint {
	var pts []analyzePoint
	add := func(kernel string, rows, cols int64) {
		for _, t := range threadChoices {
			for _, c := range chunkChoices {
				pts = append(pts, analyzePoint{Kernel: kernel, Rows: rows, Cols: cols, Threads: t, Chunk: c})
			}
		}
	}
	for rows := int64(24); rows <= 64; rows++ {
		for _, cols := range []int64{1024, 1152, 1280, 1408, 1536} {
			add("heat", rows, cols)
		}
	}
	for n := int64(128); n <= 256; n++ {
		add("dft", n, 0)
	}
	for tasks := int64(32); tasks <= 64; tasks++ {
		for _, points := range []int64{2048, 4096} {
			add("linreg", tasks, points)
		}
	}
	return pts
}

// coldSequence is serve-cold's request order for a seed: the space in a
// seeded order, every eighth request asking for a chunk recommendation.
func coldSequence(seed int64) []analyzePoint {
	pts := coldSpace()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	for i := range pts {
		pts[i].Recommend = i%8 == 7
	}
	return pts
}

// coldRecorded is how many of the default seed's serve-cold inputs have
// recorded answers in expected/serve-cold.json; later inputs and other
// seeds are checked against direct library calls.
const coldRecorded = 3072

// coldWarmup is the handful of requests each serve-cold set-up sends
// before timing. Their 768-column grids lie outside coldSpace, so they
// never warm a key the timed window asks for.
func coldWarmup() []analyzePoint {
	var pts []analyzePoint
	for rows := int64(20); rows < 24; rows++ {
		pts = append(pts, analyzePoint{Kernel: "heat", Rows: rows, Cols: 768, Threads: 8, Chunk: 1})
	}
	return pts
}

// hotKey is one member of serve-hot's key universe: a small /v1/analyze
// point, or a /v1/lint request over a small generated kernel.
type hotKey struct {
	Lint  bool         `json:"lint,omitempty"`
	Point analyzePoint `json:"point"`
}

func (k hotKey) id() string {
	if k.Lint {
		return "lint/" + k.Point.id()
	}
	return "analyze/" + k.Point.id()
}

func (k hotKey) path() string {
	if k.Lint {
		return "/v1/lint"
	}
	return "/v1/analyze"
}

func (k hotKey) request() any {
	if k.Lint {
		return service.LintRequest{Source: k.Point.source(), Threads: k.Point.Threads, Chunk: k.Point.Chunk}
	}
	return k.Point.request()
}

// hotUniverse is serve-hot's fixed key universe: 1440 analyze points
// (~70%) and 640 lint requests (~30%), four times the server's default
// CacheEntries, so the Zipf tail keeps missing and evicting.
func hotUniverse() []hotKey {
	var keys []hotKey
	for rows := int64(8); rows < 24; rows++ {
		for _, cols := range []int64{256, 512} {
			for _, t := range threadChoices {
				for _, c := range chunkChoices {
					keys = append(keys, hotKey{Point: analyzePoint{Kernel: "heat", Rows: rows, Cols: cols, Threads: t, Chunk: c}})
				}
			}
		}
	}
	for n := int64(32); n < 96; n++ {
		for _, t := range threadChoices {
			for _, c := range chunkChoices {
				keys = append(keys, hotKey{Point: analyzePoint{Kernel: "dft", Rows: n, Threads: t, Chunk: c}})
			}
		}
	}
	lint := func(p analyzePoint) {
		for _, c := range chunkChoices {
			p.Chunk = c
			keys = append(keys, hotKey{Lint: true, Point: p})
		}
	}
	for rows := int64(8); rows < 40; rows++ {
		for _, cols := range []int64{256, 512} {
			lint(analyzePoint{Kernel: "heat", Rows: rows, Cols: cols, Threads: 8})
		}
	}
	for n := int64(32); n < 96; n++ {
		lint(analyzePoint{Kernel: "dft", Rows: n, Threads: 8})
	}
	return keys
}

// Open-loop shape of serve-hot: the offered rate, the Zipf skew over key
// popularity, and the latency limit that defines an SLO miss.
const (
	hotRate     = 1500.0
	hotZipfS    = 1.4
	hotSLOLimit = 10 * time.Millisecond
)

// hotArrival is one scheduled serve-hot request: when it is due (offset
// from the window start) and which universe key it asks for.
type hotArrival struct {
	Due time.Duration `json:"due"`
	Key int           `json:"key"`
}

// hotPlan is serve-hot's seeded traffic: the popularity order of the
// universe (rank → key index) and a Poisson arrival schedule of Zipf
// draws over that order covering the given window.
type hotPlan struct {
	Rank     []int        `json:"rank"`
	Arrivals []hotArrival `json:"arrivals"`
}

// hotClass is a key's endpoint and kernel. The top key alone draws a
// third of the traffic, so a popularity order that left the classes of
// the top ranks to the seed would give each seed another traffic mix.
func (k hotKey) hotClass() string { return k.path() + "/" + k.Point.Kernel }

func newHotPlan(seed int64, uni []hotKey, window time.Duration) hotPlan {
	r := rand.New(rand.NewSource(seed))
	plan := hotPlan{Rank: hotRank(r, uni)}
	z := rand.NewZipf(r, hotZipfS, 1, uint64(len(uni)-1))
	var t float64
	for {
		t += r.ExpFloat64() / hotRate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return plan
		}
		plan.Arrivals = append(plan.Arrivals, hotArrival{Due: due, Key: plan.Rank[z.Uint64()]})
	}
}

// hotRank is the popularity order: a fixed pattern of classes, each
// rank going to the class furthest behind its share of the universe
// (smooth weighted round robin), filled with each class's keys in a
// seeded order. Every seed thus sends the same mix of classes.
func hotRank(r *rand.Rand, uni []hotKey) []int {
	members := make(map[string][]int)
	var classes []string
	for i, k := range uni {
		c := k.hotClass()
		if members[c] == nil {
			classes = append(classes, c)
		}
		members[c] = append(members[c], i)
	}
	for _, c := range classes {
		m := members[c]
		r.Shuffle(len(m), func(i, j int) { m[i], m[j] = m[j], m[i] })
	}
	size := make(map[string]int)
	for _, c := range classes {
		size[c] = len(members[c])
	}
	credit := make(map[string]int)
	rank := make([]int, 0, len(uni))
	for len(rank) < len(uni) {
		best := ""
		for _, c := range classes {
			credit[c] += size[c]
			if best == "" || credit[c] > credit[best] {
				best = c
			}
		}
		credit[best] -= len(uni)
		rank = append(rank, members[best][0])
		members[best] = members[best][1:]
	}
	return rank
}

// ciConfig is one static-ci pass's schedule and target machine.
type ciConfig struct {
	Machine string `json:"machine"`
	Threads int    `json:"threads"`
	Chunk   int64  `json:"chunk"`
}

func (c ciConfig) id() string { return fmt.Sprintf("%s/t%d/c%d", c.Machine, c.Threads, c.Chunk) }

// ciConfigs lists every static-ci configuration; threads 0 and chunk 0
// leave the choice to the source's pragmas, as the CLIs do by default.
func ciConfigs() []ciConfig {
	var cfgs []ciConfig
	for _, m := range []string{"paper48", "smalltest", "modern16"} {
		for _, t := range []int{0, 4, 8, 16} {
			for _, c := range chunkChoices {
				cfgs = append(cfgs, ciConfig{Machine: m, Threads: t, Chunk: c})
			}
		}
	}
	return cfgs
}

// ciSequence draws the configuration of each of n static-ci passes.
func ciSequence(seed int64, n int) []ciConfig {
	cfgs := ciConfigs()
	r := rand.New(rand.NewSource(seed))
	seq := make([]ciConfig, n)
	for i := range seq {
		seq[i] = cfgs[r.Intn(len(cfgs))]
	}
	return seq
}
