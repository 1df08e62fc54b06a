// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV): Tables I–III compare the measured false-sharing
// effect (from simulated execution with FS-inducing versus FS-free chunk
// sizes) against the model's estimate; Tables IV–VI compare the
// linear-regression prediction against the full model; Figure 2 is the
// chunk-size sweep of the linear-regression kernel; Figure 6 demonstrates
// the linearity of FS cases in chunk runs; Figures 8–9 summarize
// measured/modeled/predicted series for heat and DFT.
//
// "Measured" numbers come from the MESI machine simulator (the testbed
// substitute); every experiment is deterministic.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/fsmodel"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// Config parameterizes all experiments.
type Config struct {
	Machine *machine.Desc
	// Threads is the thread-count axis of the tables (paper: 2..48).
	Threads []int

	HeatRows, HeatCols        int64
	DFTN                      int64
	LinRegTasks, LinRegPoints int64

	// Prediction sample sizes (chunk runs), per Tables IV–VI.
	PredRunsHeat, PredRunsDFT, PredRunsLinReg int64

	// Counting selects the FS-detection semantics for the model.
	Counting fsmodel.CountingMode

	// Extrapolate lets eligible uniform loops close their chunk-run
	// tails arithmetically once provably periodic (exactness is gated by
	// the fsmodel differential suite). Experiment outputs are unchanged.
	Extrapolate bool

	// Jobs bounds the worker pool every driver fans its analysis points
	// out on (the -j flag); <= 0 selects GOMAXPROCS. Output is identical
	// for every value.
	Jobs int

	// Ctx, when non-nil, bounds every experiment sweep: cancellation or an
	// expired deadline stops the sweep promptly and the experiment returns
	// ctx.Err() (the fsrepro -timeout flag). Nil means no deadline.
	Ctx context.Context
}

// ctx resolves the sweep context, defaulting to context.Background().
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// DefaultConfig mirrors the paper's setup at reproduction scale.
func DefaultConfig() Config {
	return Config{
		Machine:        machine.Paper48(),
		Threads:        []int{2, 4, 8, 16, 24, 32, 40, 48},
		HeatRows:       kernels.DefaultHeatRows,
		HeatCols:       kernels.DefaultHeatCols,
		DFTN:           kernels.DefaultDFTN,
		LinRegTasks:    kernels.DefaultLinRegTasks,
		LinRegPoints:   kernels.DefaultLinRegPoints,
		PredRunsHeat:   20,
		PredRunsDFT:    50,
		PredRunsLinReg: 10,
		Counting:       fsmodel.CountPaperPhi,
	}
}

// QuickConfig is a scaled-down configuration for tests and fast smoke
// runs.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Threads = []int{2, 4, 8}
	cfg.HeatRows = 24
	cfg.HeatCols = 1024
	cfg.DFTN = 192
	cfg.LinRegTasks = 128
	cfg.LinRegPoints = 512
	cfg.PredRunsHeat = 8
	cfg.PredRunsDFT = 8
	cfg.PredRunsLinReg = 5
	return cfg
}

// Validate sanity-checks the configuration against the machine.
func (c Config) Validate() error {
	if c.Machine == nil {
		return fmt.Errorf("experiments: nil machine")
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if len(c.Threads) == 0 {
		return fmt.Errorf("experiments: empty thread list")
	}
	for _, t := range c.Threads {
		if t < 1 || t > c.Machine.Cores {
			return fmt.Errorf("experiments: thread count %d outside 1..%d", t, c.Machine.Cores)
		}
	}
	return nil
}

// kernelCase binds a kernel to its paper chunk pair and prediction sample.
type kernelCase struct {
	name     string
	fsChunk  int64
	nfsChunk int64
	predRuns int64
	load     func(cfg Config, threads int) (*kernels.Kernel, error)
}

func (c Config) cases() []kernelCase {
	return []kernelCase{
		{
			name: "heat", fsChunk: kernels.HeatFSChunk, nfsChunk: kernels.HeatNFSChunk,
			predRuns: c.PredRunsHeat,
			load: func(cfg Config, _ int) (*kernels.Kernel, error) {
				return kernels.Heat(cfg.HeatRows, cfg.HeatCols)
			},
		},
		{
			name: "dft", fsChunk: kernels.DFTFSChunk, nfsChunk: kernels.DFTNFSChunk,
			predRuns: c.PredRunsDFT,
			load: func(cfg Config, _ int) (*kernels.Kernel, error) {
				return kernels.DFT(cfg.DFTN)
			},
		},
		{
			name: "linreg", fsChunk: kernels.LinRegFSChunk, nfsChunk: kernels.LinRegNFSChunk,
			predRuns: c.PredRunsLinReg,
			load: func(cfg Config, threads int) (*kernels.Kernel, error) {
				return kernels.LinReg(cfg.LinRegTasks, cfg.LinRegPoints, threads)
			},
		},
	}
}

func (c Config) caseByName(name string) (kernelCase, error) {
	for _, kc := range c.cases() {
		if kc.name == name {
			return kc, nil
		}
	}
	return kernelCase{}, fmt.Errorf("experiments: unknown kernel %q", name)
}
