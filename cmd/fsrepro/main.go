// Command fsrepro regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	fsrepro -exp all            # everything (Tables I–VI, Figures 2/6/8/9)
//	fsrepro -exp table1         # one experiment
//	fsrepro -exp fig2 -quick    # scaled-down configuration
//
// Experiment names: table1 table2 table3 table4 table5 table6 fig2 fig6
// fig8 fig9 linesize modelcost all.
//
// Exit status is 0 on success, 1 on experiment errors, and 2 on usage
// errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fsmodel"
	"repro/internal/guard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: flag errors exit 2, experiment errors exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (table1..table6, fig2, fig6, fig8, fig9, all)")
	quick := fs.Bool("quick", false, "use the scaled-down quick configuration")
	mesi := fs.Bool("mesi", false, "use MESI-faithful FS counting instead of the paper's ϕ")
	threads := fs.String("threads", "", "comma-separated thread counts (default 2,4,8,16,24,32,40,48)")
	format := fs.String("format", "text", "output format: text, csv or json")
	jobs := fs.Int("j", 0, "worker count for the experiment sweeps (0 = GOMAXPROCS); output is identical for every value")
	timeout := fs.Duration("timeout", 0, "abort the experiment sweeps after this long (0 = no limit)")
	extrapolate := fs.Bool("extrapolate", false, "close steady-state chunk runs in O(1) on eligible uniform loops (exact totals)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "fsrepro: unexpected arguments %v\n", fs.Args())
		return 2
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *mesi {
		cfg.Counting = fsmodel.CountMESI
	}
	cfg.Jobs = *jobs
	cfg.Extrapolate = *extrapolate
	if *threads != "" {
		cfg.Threads = nil
		for _, f := range strings.Split(*threads, ",") {
			var t int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &t); err != nil {
				fmt.Fprintf(stderr, "fsrepro: bad -threads value %q: %v\n", f, err)
				return 2
			}
			cfg.Threads = append(cfg.Threads, t)
		}
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Ctx = ctx
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "table3", "table4", "table5", "table6", "fig2", "fig6", "fig8", "fig9", "linesize", "modelcost"}
	}
	for _, name := range names {
		start := time.Now()
		// guard.Do turns a panic inside one experiment into an
		// exit-1 error naming that experiment instead of a crash.
		if err := guard.Do(func() error { return runFormat(cfg, name, stdout, *format) }); err != nil {
			fmt.Fprintf(stderr, "fsrepro: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// runExperiment computes the named experiment and writes it as text.
func runExperiment(cfg experiments.Config, name string, w io.Writer) error {
	return runFormat(cfg, name, w, "text")
}

func runFormat(cfg experiments.Config, name string, w io.Writer, format string) error {
	res, err := produce(cfg, name)
	if err != nil {
		return err
	}
	return experiments.Export(w, res, format)
}

// produce computes the named experiment's result.
func produce(cfg experiments.Config, name string) (experiments.Exportable, error) {
	switch name {
	case "table1", "table2", "table3":
		return experiments.Table(cfg, kernelOf(name))
	case "table4", "table5", "table6":
		return experiments.PredictionTable(cfg, kernelOf(name))
	case "fig2":
		return experiments.Fig2ChunkSweep(cfg, 8, nil)
	case "fig6":
		return experiments.Fig6Linearity(cfg, "heat", 8, 0)
	case "fig8":
		return experiments.FigSummary(cfg, "heat")
	case "fig9":
		return experiments.FigSummary(cfg, "dft")
	case "linesize":
		return experiments.LineSizeSweep(cfg, 8, 4, nil)
	case "modelcost":
		return experiments.ModelingCost(cfg, 8, 20, nil)
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

func kernelOf(table string) string {
	switch table {
	case "table1", "table4":
		return "heat"
	case "table2", "table5":
		return "dft"
	default:
		return "linreg"
	}
}
