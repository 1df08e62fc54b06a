package experiments

import (
	"context"
	"fmt"

	"repro/internal/fsmodel"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/sweep"
)

// PredictionRow is one thread-count row of Tables IV–VI: the prediction
// model (linear regression over a short prefix of chunk runs) against the
// full model.
type PredictionRow struct {
	Threads int

	PredFS  int64 // predicted FS cases, FS-inducing chunk
	PredNFS int64 // predicted FS cases, FS-free chunk
	PredPct float64

	ModelFS  int64
	ModelNFS int64
	ModelPct float64

	// R2FS is the goodness of the linear fit on the FS-chunk series
	// (paper Fig. 6 argues it should be ~1).
	R2FS float64
	// SampledIterations counts the innermost iterations the predictor
	// evaluated (its cost), versus FullIterations for the full model.
	SampledIterations int64
	FullIterations    int64
}

// PredictionTableResult holds one of Tables IV–VI.
type PredictionTableResult struct {
	Kernel        string
	FSChunk       int64
	NFSChunk      int64
	ChunkRuns     int64 // sample size fed to the regression
	Rows          []PredictionRow
	Normalization float64
}

// PredictionTable reproduces Table IV/V/VI for the named kernel.
func PredictionTable(cfg Config, kernel string) (*PredictionTableResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kc, err := cfg.caseByName(kernel)
	if err != nil {
		return nil, err
	}
	res := &PredictionTableResult{
		Kernel: kc.name, FSChunk: kc.fsChunk, NFSChunk: kc.nfsChunk, ChunkRuns: kc.predRuns,
	}
	res.Rows = make([]PredictionRow, len(cfg.Threads))
	plans := make([]sched.Plan, len(cfg.Threads))
	kerns := make([]*kernels.Kernel, len(cfg.Threads))

	err = sweep.ForEach(cfg.ctx(), len(cfg.Threads), cfg.Jobs, func(_ context.Context, i int) error {
		threads := cfg.Threads[i]
		kern, err := kc.load(cfg, threads)
		if err != nil {
			return err
		}
		row := PredictionRow{Threads: threads}

		fsOpts := fsmodel.Options{Machine: cfg.Machine, NumThreads: threads, Chunk: kc.fsChunk, Counting: cfg.Counting,
			Extrapolate: cfg.Extrapolate}
		nfsOpts := fsmodel.Options{Machine: cfg.Machine, NumThreads: threads, Chunk: kc.nfsChunk, Counting: cfg.Counting,
			Extrapolate: cfg.Extrapolate}

		fsFull, err := fsmodel.Analyze(kern.Nest, fsOpts)
		if err != nil {
			return fmt.Errorf("experiments: %s threads=%d: %w", kc.name, threads, err)
		}
		nfsFull, err := fsmodel.Analyze(kern.Nest, nfsOpts)
		if err != nil {
			return err
		}
		row.ModelFS = fsFull.FSCases
		row.ModelNFS = nfsFull.FSCases
		row.FullIterations = fsFull.Iterations

		fsPred, err := fsmodel.Predict(kern.Nest, fsOpts, kc.predRuns)
		if err != nil {
			return err
		}
		nfsPred, err := fsmodel.Predict(kern.Nest, nfsOpts, kc.predRuns)
		if err != nil {
			return err
		}
		row.PredFS = fsPred.PredictedFS
		row.PredNFS = nfsPred.PredictedFS
		row.R2FS = fsPred.Fit.R2
		row.SampledIterations = fsPred.IterationsEvaluated

		res.Rows[i], plans[i], kerns[i] = row, fsFull.Plan, kern
		return nil
	})
	if err != nil {
		return nil, err
	}

	norm, err := normalizationFor(cfg, kerns[0], plans[0], res.Rows[0].ModelFS)
	if err != nil {
		return nil, err
	}
	res.Normalization = norm
	for i := range res.Rows {
		res.Rows[i].ModelPct = float64(res.Rows[i].ModelFS-res.Rows[i].ModelNFS) / norm
		res.Rows[i].PredPct = float64(res.Rows[i].PredFS-res.Rows[i].PredNFS) / norm
	}
	return res, nil
}
