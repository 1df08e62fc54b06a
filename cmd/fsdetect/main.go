// Command fsdetect runs the compile-time false-sharing analysis on a
// mini-C source file containing OpenMP parallel loops and reports, per
// loop nest, the modeled FS case count, the FS share of execution time,
// the victim references (which data structure suffers), and — when FS is
// significant — the chunk size the cost model recommends.
//
// Usage:
//
//	fsdetect [-threads N] [-chunk C] [-mesi] file.c
//	fsdetect -kernel heat          # analyze a built-in paper kernel
//
// Exit status is 0 on success, 1 on analysis or I/O errors, and 2 on
// usage errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/guard"
	"repro/internal/kernels"
	"repro/internal/sweep"
)

type config struct {
	threads   int
	chunk     int64
	mesi      bool
	recommend bool
	jsonOut   bool
	lines     bool
	jobs      int
	timeout   time.Duration
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: flag errors exit 2, analysis errors exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsdetect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.IntVar(&cfg.threads, "threads", 8, "thread count (pragma num_threads wins)")
	fs.Int64Var(&cfg.chunk, "chunk", 1, "schedule chunk size (pragma schedule wins)")
	fs.BoolVar(&cfg.mesi, "mesi", false, "MESI-faithful counting instead of the paper's ϕ")
	kernel := fs.String("kernel", "", "analyze a built-in kernel (heat, dft, linreg) instead of a file")
	fs.BoolVar(&cfg.recommend, "recommend", true, "recommend a chunk size when FS is significant")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the report as JSON for tooling")
	fs.BoolVar(&cfg.lines, "lines", false, "also report the hottest cache lines")
	fs.IntVar(&cfg.jobs, "j", 0, "worker count for analyzing nests in parallel (0 = GOMAXPROCS); output is identical for every value")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "abort the analysis after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	src, err := loadSource(*kernel, cfg.threads, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fsdetect:", err)
		return 1
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// guard.Do turns an evaluator panic into an ordinary exit-1 error
	// instead of a crash.
	if err := guard.Do(func() error { return detect(ctx, src, cfg, stdout) }); err != nil {
		fmt.Fprintln(stderr, "fsdetect:", err)
		return 1
	}
	return 0
}

// loadSource resolves the analyzed source from either a built-in kernel
// name or a file argument.
func loadSource(kernel string, threads int, args []string) (string, error) {
	switch {
	case kernel != "":
		k, err := kernels.ByName(kernel, threads)
		if err != nil {
			return "", err
		}
		return k.Source, nil
	case len(args) == 1:
		data, err := os.ReadFile(args[0])
		if err != nil {
			return "", err
		}
		return string(data), nil
	}
	return "", fmt.Errorf("usage: fsdetect [flags] file.c  (or -kernel heat|dft|linreg)")
}

// jsonReport is the machine-readable form of one nest's analysis.
type jsonReport struct {
	Nest             int            `json:"nest"`
	Parallel         bool           `json:"parallel"`
	Threads          int            `json:"threads,omitempty"`
	Chunk            int64          `json:"chunk,omitempty"`
	FSCases          int64          `json:"fs_cases"`
	FSShare          float64        `json:"fs_share"`
	Iterations       int64          `json:"iterations"`
	Victims          []repro.Victim `json:"victims,omitempty"`
	SkippedRefs      []string       `json:"skipped_refs,omitempty"`
	RecommendedChunk int64          `json:"recommended_chunk,omitempty"`
}

// detectJSON runs the analysis and writes one JSON document with a report
// per nest. Nests are analyzed on the sweep pool and reported in nest
// order, so the document is identical for every -j value.
func detectJSON(ctx context.Context, src string, cfg config, w io.Writer) error {
	prog, err := repro.Parse(src)
	if err != nil {
		return err
	}
	opts := repro.Options{Threads: cfg.threads, Chunk: cfg.chunk, MESICounting: cfg.mesi}
	reports, err := sweep.Run(ctx, prog.NumNests(), cfg.jobs, func(ctx context.Context, i int) (jsonReport, error) {
		info, err := prog.Nest(i)
		if err != nil {
			return jsonReport{}, err
		}
		rep := jsonReport{Nest: i, Parallel: info.ParallelLevel >= 0}
		if rep.Parallel {
			a, err := prog.Analyze(i, opts)
			if err != nil {
				return jsonReport{}, err
			}
			rep.Threads = a.Threads
			rep.Chunk = a.Chunk
			rep.FSCases = a.FSCases
			rep.FSShare = a.FSShare
			rep.Iterations = a.Iterations
			rep.Victims = a.Victims
			rep.SkippedRefs = a.SkippedRefs
			if cfg.recommend && a.FSShare > 0.05 {
				rec, err := prog.RecommendChunkCtx(ctx, i, opts, nil)
				if err != nil {
					return jsonReport{}, err
				}
				rep.RecommendedChunk = rec.Chunk
			}
		}
		return rep, nil
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// detect runs the analysis and writes the report.
func detect(ctx context.Context, src string, cfg config, w io.Writer) error {
	if cfg.jsonOut {
		return detectJSON(ctx, src, cfg, w)
	}
	prog, err := repro.Parse(src)
	if err != nil {
		return err
	}
	for _, warn := range prog.Warnings() {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
	opts := repro.Options{Threads: cfg.threads, Chunk: cfg.chunk, MESICounting: cfg.mesi, TrackHotLines: cfg.lines}

	// Each nest's section renders into its own buffer on the sweep pool;
	// sections are concatenated in nest order, so the report is identical
	// for every -j value.
	sections, err := sweep.Run(ctx, prog.NumNests(), cfg.jobs, func(ctx context.Context, i int) ([]byte, error) {
		var buf bytes.Buffer
		if err := detectNest(ctx, prog, i, cfg, opts, &buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := w.Write(s); err != nil {
			return err
		}
	}
	return nil
}

// detectNest writes the report section for one loop nest.
func detectNest(ctx context.Context, prog *repro.Program, i int, cfg config, opts repro.Options, w io.Writer) error {
	info, err := prog.Nest(i)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== loop nest %d (depth %d, parallel level %d) ===\n", i, info.Depth, info.ParallelLevel)
	fmt.Fprint(w, info.Description)
	if info.ParallelLevel < 0 {
		fmt.Fprintln(w, "sequential nest: no false sharing possible")
		return nil
	}
	if len(info.SymbolicParams) > 0 {
		// Bounds unknown at compile time: the paper's fallback is an
		// FS rate per chunk run.
		rate, err := prog.AnalyzeRate(i, opts, 16)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "loop bounds unknown at compile time (%v): reporting FS rate\n", info.SymbolicParams)
		fmt.Fprintf(w, "threads=%d chunk=%d: %.1f false-sharing cases per chunk run (over %d evaluated runs)\n",
			rate.Threads, rate.Chunk, rate.FSPerChunkRun, rate.RunsEvaluated)
		fmt.Fprintln(w)
		return nil
	}
	a, err := prog.Analyze(i, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "threads=%d chunk=%d: %d false-sharing cases over %d iterations (%.3f per iteration)\n",
		a.Threads, a.Chunk, a.FSCases, a.Iterations, a.FSPerIteration)
	fmt.Fprintf(w, "modeled share of execution time lost to false sharing: %.1f%%\n", a.FSShare*100)
	for _, v := range a.Victims {
		mode := "read"
		if v.Write {
			mode = "write"
		}
		fmt.Fprintf(w, "  victim: %-24s (%s, %d cases, %.0f%%)\n",
			v.Ref, mode, v.FSCases, 100*float64(v.FSCases)/float64(a.FSCases))
	}
	for _, h := range a.HotLines {
		fmt.Fprintf(w, "  hot line: %s+%d (%d cases)\n", h.Symbol, h.Offset, h.FSCases)
	}
	for _, s := range a.SkippedRefs {
		fmt.Fprintf(w, "  (excluded non-affine reference: %s)\n", s)
	}
	if cfg.recommend && a.FSShare > 0.05 {
		rec, err := prog.RecommendChunkCtx(ctx, i, opts, nil)
		if err != nil {
			return err
		}
		if rec.Chunk != a.Chunk {
			fmt.Fprintf(w, "recommendation: schedule(static,%d) — modeled FS cases drop to %d\n",
				rec.Chunk, rec.FSCases)
		}
	}
	fmt.Fprintln(w)
	return nil
}
