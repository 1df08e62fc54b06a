package experiments

import (
	"context"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/fsmodel"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// MeasuredRow is one thread-count row of Tables I–III.
type MeasuredRow struct {
	Threads int

	// Simulated execution ("measured" side of Equation 5).
	TimeFS      float64 // seconds, FS-inducing chunk
	TimeNFS     float64 // seconds, FS-free chunk
	MeasuredPct float64

	// Model side.
	NFS        int64 // N_fs_model
	NNFS       int64 // N_nfs_model
	ModeledPct float64

	// Simulator coherence misses, for diagnostics (the mechanism behind
	// the time difference).
	CoherenceMissesFS  int64
	CoherenceMissesNFS int64
}

// TableResult holds one of Tables I–III.
type TableResult struct {
	Kernel   string
	FSChunk  int64
	NFSChunk int64
	Rows     []MeasuredRow
	// Normalization is Ñ_fs of Equation 5: the FS count corresponding to
	// 100% of the loop's modeled execution time, fixed at the first
	// thread count and reused across rows (see EXPERIMENTS.md).
	Normalization float64
}

// Table reproduces Table I/II/III for the named kernel ("heat", "dft",
// "linreg").
func Table(cfg Config, kernel string) (*TableResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kc, err := cfg.caseByName(kernel)
	if err != nil {
		return nil, err
	}
	res := &TableResult{Kernel: kc.name, FSChunk: kc.fsChunk, NFSChunk: kc.nfsChunk}
	res.Rows = make([]MeasuredRow, len(cfg.Threads))
	plans := make([]sched.Plan, len(cfg.Threads))
	kerns := make([]*kernels.Kernel, len(cfg.Threads))

	// Rows are independent given the kernel parameters, so evaluate them
	// on the sweep pool; percentages that need the shared Equation-5
	// normalization are filled in afterwards.
	err = sweep.ForEach(cfg.ctx(), len(cfg.Threads), cfg.Jobs, func(_ context.Context, i int) error {
		row, plan, kern, err := tableRow(cfg, kc, cfg.Threads[i])
		if err != nil {
			return fmt.Errorf("experiments: %s threads=%d: %w", kc.name, cfg.Threads[i], err)
		}
		res.Rows[i], plans[i], kerns[i] = row, plan, kern
		return nil
	})
	if err != nil {
		return nil, err
	}

	norm, err := normalizationFor(cfg, kerns[0], plans[0], res.Rows[0].NFS)
	if err != nil {
		return nil, err
	}
	res.Normalization = norm
	for i := range res.Rows {
		res.Rows[i].ModeledPct = float64(res.Rows[i].NFS-res.Rows[i].NNFS) / norm
	}
	return res, nil
}

// tableRow computes one row's counts and simulated times (everything
// except the normalization-dependent modeled percentage).
func tableRow(cfg Config, kc kernelCase, threads int) (MeasuredRow, sched.Plan, *kernels.Kernel, error) {
	kern, err := kc.load(cfg, threads)
	if err != nil {
		return MeasuredRow{}, sched.Plan{}, nil, err
	}
	row := MeasuredRow{Threads: threads}

	fsRes, err := fsmodel.Analyze(kern.Nest, fsmodel.Options{
		Machine: cfg.Machine, NumThreads: threads, Chunk: kc.fsChunk, Counting: cfg.Counting,
		Extrapolate: cfg.Extrapolate,
	})
	if err != nil {
		return row, sched.Plan{}, nil, err
	}
	nfsRes, err := fsmodel.Analyze(kern.Nest, fsmodel.Options{
		Machine: cfg.Machine, NumThreads: threads, Chunk: kc.nfsChunk, Counting: cfg.Counting,
		Extrapolate: cfg.Extrapolate,
	})
	if err != nil {
		return row, sched.Plan{}, nil, err
	}
	row.NFS = fsRes.FSCases
	row.NNFS = nfsRes.FSCases

	simFS, err := sim.Run(kern.Nest, sim.Options{Machine: cfg.Machine, NumThreads: threads, Chunk: kc.fsChunk})
	if err != nil {
		return row, sched.Plan{}, nil, err
	}
	simNFS, err := sim.Run(kern.Nest, sim.Options{Machine: cfg.Machine, NumThreads: threads, Chunk: kc.nfsChunk})
	if err != nil {
		return row, sched.Plan{}, nil, err
	}
	row.TimeFS = simFS.Seconds
	row.TimeNFS = simNFS.Seconds
	row.CoherenceMissesFS = simFS.CoherenceMisses
	row.CoherenceMissesNFS = simNFS.CoherenceMisses
	if simFS.Seconds > 0 {
		row.MeasuredPct = (simFS.Seconds - simNFS.Seconds) / simFS.Seconds
	}
	return row, fsRes.Plan, kern, nil
}

// normalizationFor computes Ñ_fs: Equation 1's Total_c for the
// FS-suffering loop (base cost models plus the FS term), expressed in
// units of one coherence penalty, so that (N_fs − N_nfs)/Ñ_fs is the
// share of execution time attributable to false sharing. It is evaluated
// once per kernel (at the table's first thread count) and reused for the
// other rows, matching the paper's per-kernel normalization (Tables I–VI
// show modeled percentages proportional to the raw FS counts).
func normalizationFor(cfg Config, kern *kernels.Kernel, plan sched.Plan, nfs int64) (float64, error) {
	base, err := costmodel.Estimate(kern.Nest, cfg.Machine, plan)
	if err != nil {
		return 0, err
	}
	coher := float64(cfg.Machine.CoherenceLatency)
	return (base.Work() + float64(nfs)*coher) / coher, nil
}
