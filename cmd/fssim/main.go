// Command fssim executes a mini-C loop nest on the MESI cache-coherent
// multicore simulator (the reproduction's stand-in for the paper's 48-core
// testbed) and reports timing and coherence statistics.
//
// Usage:
//
//	fssim -kernel dft -threads 8 -chunk 1
//	fssim -threads 16 -chunk 4 -compare 64 file.c
//
// Exit status is 0 on success, 1 on simulation or I/O errors, and 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/guard"
	"repro/internal/kernels"
)

type config struct {
	threads int
	chunk   int64
	nest    int
	compare int64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: flag errors exit 2, simulation errors exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.IntVar(&cfg.threads, "threads", 8, "thread count")
	fs.Int64Var(&cfg.chunk, "chunk", 1, "schedule chunk size")
	kernel := fs.String("kernel", "", "simulate a built-in kernel (heat, dft, linreg)")
	fs.IntVar(&cfg.nest, "nest", 0, "loop nest index to simulate")
	fs.Int64Var(&cfg.compare, "compare", 0, "also simulate this chunk size and report the FS effect")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	src, err := loadSource(*kernel, cfg.threads, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fssim:", err)
		return 1
	}
	// guard.Do turns an evaluator panic into an ordinary exit-1 error
	// (with "evaluation panicked: ..." text) instead of a crash.
	if err := guard.Do(func() error { return simulate(src, cfg, stdout) }); err != nil {
		fmt.Fprintln(stderr, "fssim:", err)
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
	return "", fmt.Errorf("usage: fssim [flags] file.c  (or -kernel heat|dft|linreg)")
}

// simulate runs the requested simulation(s) and writes the report.
func simulate(src string, cfg config, w io.Writer) error {
	prog, err := repro.Parse(src)
	if err != nil {
		return err
	}
	opts := repro.Options{Threads: cfg.threads, Chunk: cfg.chunk}
	rep, err := prog.Simulate(cfg.nest, opts)
	if err != nil {
		return err
	}
	printReport(w, cfg.chunk, rep)

	if cfg.compare > 0 {
		o2 := opts
		o2.Chunk = cfg.compare
		rep2, err := prog.Simulate(cfg.nest, o2)
		if err != nil {
			return err
		}
		printReport(w, cfg.compare, rep2)
		slow, fast := rep, rep2
		if fast.Seconds > slow.Seconds {
			slow, fast = fast, slow
		}
		if slow.Seconds > 0 {
			fmt.Fprintf(w, "\nFS effect ((T_slow - T_fast)/T_slow): %.1f%%\n",
				(slow.Seconds-fast.Seconds)/slow.Seconds*100)
		}
	}
	return nil
}

func printReport(w io.Writer, chunk int64, r *repro.SimReport) {
	fmt.Fprintf(w, "chunk=%d: %.6f s (%.0f cycles)\n", chunk, r.Seconds, r.WallCycles)
	fmt.Fprintf(w, "  accesses=%d L1=%d L2=%d L3=%d mem=%d\n", r.Accesses, r.L1Hits, r.L2Hits, r.L3Hits, r.MemFills)
	fmt.Fprintf(w, "  coherence misses=%d invalidations=%d\n", r.CoherenceMisses, r.Invalidations)
}
