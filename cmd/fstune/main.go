// Command fstune is the cost-model-guided auto-tuner: it searches
// composable transformation plans (schedule chunk resize, struct
// padding, loop interchange) for a parallel loop nest, scores them with
// the closed-form FS count plus the Equation 1 cost model, verifies the
// beam finalists against the fsmodel simulator, and emits the
// transformed C source together with a machine-readable tuning report.
//
// Usage:
//
//	fstune [-threads N] [-chunk C] [-machine M] [-nest I] [-beam B]
//	       [-format text|json]
//	       [-o out.c] [-timeout D] file.c
//	fstune -kernel heat            # tune a built-in paper kernel
//
// Exit status is 0 on success (including a verified no-op), 1 on
// analysis/verification/I-O errors, and 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/guard"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/tuner"
)

type config struct {
	threads int
	chunk   int64
	mach    string
	nest    int
	beam    int
	maxCand int
	jobs    int
	format  string
	out     string
	timeout time.Duration
	kernel  string
	extrap  bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: flag errors exit 2, tuning errors exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fstune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.IntVar(&cfg.threads, "threads", 0, "thread count override (0: pragma num_threads, else machine cores)")
	fs.Int64Var(&cfg.chunk, "chunk", 0, "baseline schedule chunk override (0: pragma schedule, else OpenMP static default)")
	fs.StringVar(&cfg.mach, "machine", "", "machine model: paper48 (default), smalltest, modern16")
	fs.IntVar(&cfg.nest, "nest", 0, "loop nest index to tune")
	fs.IntVar(&cfg.beam, "beam", 0, "beam width: fast-tier candidates promoted to simulator verification (0: default 4)")
	fs.IntVar(&cfg.maxCand, "max-candidates", 0, "cap on enumerated plans (0: default 32)")
	fs.IntVar(&cfg.jobs, "jobs", 0, "verification parallelism (0: GOMAXPROCS)")
	fs.StringVar(&cfg.format, "format", "text", "output format: text or json")
	fs.StringVar(&cfg.out, "o", "", "write the transformed source to this file instead of stdout")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "overall tuning deadline (0: none)")
	fs.StringVar(&cfg.kernel, "kernel", "", "tune a built-in kernel (heat, dft, linreg) instead of a file")
	fs.BoolVar(&cfg.extrap, "extrapolate", false, "steady-state chunk-run extrapolation during verification")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch cfg.format {
	case "text", "json":
	default:
		fmt.Fprintf(stderr, "fstune: unknown -format %q (valid: text, json)\n", cfg.format)
		return 2
	}
	if (cfg.kernel == "") == (len(fs.Args()) == 0) {
		fmt.Fprintln(stderr, "usage: fstune [flags] file.c  (or -kernel heat|dft|linreg)")
		return 2
	}
	if len(fs.Args()) > 1 {
		fmt.Fprintln(stderr, "fstune: tune one file at a time")
		return 2
	}
	mach, err := machineByName(cfg.mach)
	if err != nil {
		fmt.Fprintln(stderr, "fstune:", err)
		return 2
	}

	name, src, err := loadInput(cfg, mach, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fstune:", err)
		return 1
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// guard.Do1 turns a tuner panic into an ordinary exit-1 error.
	res, err := guard.Do1(func() (*tuner.Result, error) {
		return tuner.Tune(ctx, src, tuner.Options{
			Machine:       mach,
			Threads:       cfg.threads,
			Chunk:         cfg.chunk,
			Nest:          cfg.nest,
			Beam:          cfg.beam,
			MaxCandidates: cfg.maxCand,
			Jobs:          cfg.jobs,
			Extrapolate:   cfg.extrap,
			KeepHeader:    true,
		})
	})
	if err != nil {
		var ie *tuner.InputError
		if errors.As(err, &ie) {
			fmt.Fprintf(stderr, "fstune: %s: %s\n", name, ie.Msg)
			return 2
		}
		fmt.Fprintln(stderr, "fstune:", err)
		return 1
	}

	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, []byte(res.Source), 0o644); err != nil {
			fmt.Fprintln(stderr, "fstune:", err)
			return 1
		}
	}
	if err := writeReport(stdout, cfg, name, res); err != nil {
		fmt.Fprintln(stderr, "fstune:", err)
		return 1
	}
	return 0
}

// loadInput resolves -kernel or the single file argument. Thread-shaped
// kernel templates (linreg) default to the machine's core count.
func loadInput(cfg config, mach *machine.Desc, args []string) (name, src string, err error) {
	if cfg.kernel != "" {
		threads := cfg.threads
		if threads == 0 {
			threads = mach.Cores
		}
		k, err := kernels.ByName(cfg.kernel, threads)
		if err != nil {
			return "", "", err
		}
		return "<kernel:" + cfg.kernel + ">", k.Source, nil
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return args[0], string(data), nil
}

// machineByName resolves the -machine flag.
func machineByName(name string) (*machine.Desc, error) {
	switch name {
	case "", "paper48":
		return machine.Paper48(), nil
	case "smalltest":
		return machine.SmallTest(), nil
	case "modern16":
		return machine.Modern16(), nil
	}
	return nil, fmt.Errorf("unknown machine %q (valid: paper48, smalltest, modern16)", name)
}

// writeReport renders the tuning result. JSON is the full report; text
// is the human summary followed by the transformed source when no -o
// redirects it.
func writeReport(w io.Writer, cfg config, name string, res *tuner.Result) error {
	if cfg.format == "json" {
		return tuner.WriteJSON(w, res)
	}
	fmt.Fprintf(w, "%s: nest %d on %s, %d threads, baseline chunk %d\n",
		name, res.Nest, res.Machine, res.Threads, res.BaselineChunk)
	fmt.Fprintf(w, "  baseline: FS %d, %.0f cycles (simulated)\n",
		res.Baseline.SimulatedFS, res.Baseline.SimulatedCycles)
	if res.NoOp {
		fmt.Fprintf(w, "  plan: no-op\n")
	} else {
		fmt.Fprintf(w, "  plan: %s\n", res.PlanSummary)
		fmt.Fprintf(w, "  tuned: FS %d, %.0f cycles (simulated)\n",
			res.Chosen.SimulatedFS, res.Chosen.SimulatedCycles)
	}
	fmt.Fprintf(w, "  candidates: %d scored, %d rejected\n", len(res.Candidates), len(res.Rejected))
	for _, warn := range res.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", warn)
	}
	if cfg.out == "" && !res.NoOp {
		fmt.Fprintf(w, "--- transformed source ---\n%s", res.Source)
	}
	return nil
}
