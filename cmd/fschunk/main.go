// Command fschunk is the model-guided schedule tuner the paper proposes as
// the compiler's use of the FS cost model: it evaluates candidate
// schedule(static,chunk) chunk sizes with the combined cost model
// (Equation 1) and reports the cheapest, optionally cross-checking each
// candidate against the machine simulator.
//
// Usage:
//
//	fschunk -kernel linreg -threads 8
//	fschunk -threads 16 -max 64 -verify file.c
//
// Exit status is 0 on success, 1 on analysis or I/O errors, and 2 on
// usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/guard"
	"repro/internal/kernels"
	"repro/internal/sweep"
)

type config struct {
	threads  int
	nest     int
	maxChunk int64
	verify   bool
	jobs     int
	timeout  time.Duration
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: flag errors exit 2, analysis errors exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fschunk", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.IntVar(&cfg.threads, "threads", 8, "thread count")
	kernel := fs.String("kernel", "", "tune a built-in kernel (heat, dft, linreg)")
	fs.IntVar(&cfg.nest, "nest", 0, "loop nest index to tune")
	fs.Int64Var(&cfg.maxChunk, "max", 128, "largest chunk size candidate (powers of two up to this)")
	fs.BoolVar(&cfg.verify, "verify", false, "cross-check candidates on the machine simulator")
	fs.IntVar(&cfg.jobs, "j", 0, "worker count for evaluating candidates in parallel (0 = GOMAXPROCS); output is identical for every value")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "abort the tuning sweep after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	src, err := loadSource(*kernel, cfg.threads, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fschunk:", err)
		return 1
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// guard.Do turns an evaluator panic into an ordinary exit-1 error
	// instead of a crash (sweep workers are already isolated; this covers
	// the serial path and everything around it).
	if err := guard.Do(func() error { return tune(ctx, src, cfg, stdout) }); err != nil {
		fmt.Fprintln(stderr, "fschunk:", err)
		return 1
	}
	return 0
}

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
	return "", fmt.Errorf("usage: fschunk [flags] file.c  (or -kernel heat|dft|linreg)")
}

// tune evaluates the candidate chunks and writes the recommendation.
func tune(ctx context.Context, src string, cfg config, w io.Writer) error {
	prog, err := repro.Parse(src)
	if err != nil {
		return err
	}
	var candidates []int64
	for c := int64(1); c <= cfg.maxChunk; c *= 2 {
		candidates = append(candidates, c)
	}
	opts := repro.Options{Threads: cfg.threads, Jobs: cfg.jobs}
	rec, err := prog.RecommendChunkCtx(ctx, cfg.nest, opts, candidates)
	if err != nil {
		return err
	}

	// The simulator cross-check fans out on the same pool; results come
	// back in candidate order so the table is stable under any -j.
	var simSeconds []float64
	if cfg.verify {
		simSeconds, err = sweep.Run(ctx, len(rec.Evaluated), cfg.jobs, func(_ context.Context, i int) (float64, error) {
			o := opts
			o.Chunk = rec.Evaluated[i].Chunk
			simRep, err := prog.Simulate(cfg.nest, o)
			if err != nil {
				return 0, err
			}
			return simRep.Seconds, nil
		})
		if err != nil {
			return err
		}
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	if cfg.verify {
		fmt.Fprintln(tw, "chunk\tmodeled FS cases\tmodeled cycles\tsimulated seconds\t")
	} else {
		fmt.Fprintln(tw, "chunk\tmodeled FS cases\tmodeled cycles\t")
	}
	for i, c := range rec.Evaluated {
		if cfg.verify {
			fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.6f\t\n", c.Chunk, c.FSCases, c.TotalCycles, simSeconds[i])
		} else {
			fmt.Fprintf(tw, "%d\t%d\t%.0f\t\n", c.Chunk, c.FSCases, c.TotalCycles)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nrecommended: schedule(static,%d)  (modeled %d FS cases, %.0f cycles)\n",
		rec.Chunk, rec.FSCases, rec.TotalCycles)
	return nil
}
