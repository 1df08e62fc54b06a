package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/fsmodel"
	"repro/internal/kernels"
	"repro/internal/sweep"
)

// ModelCostPoint is one problem size of the modeling-cost study.
type ModelCostPoint struct {
	// Rows/Cols of the heat grid analyzed.
	Rows, Cols int64
	// Iterations the full model evaluates vs the predictor's sample.
	FullIterations    int64
	SampledIterations int64
	// Wall time of each (on the host running the analysis).
	FullTime    time.Duration
	PredictTime time.Duration
	// Accuracy of the prediction against the full model.
	FullFS      int64
	PredictedFS int64
	ErrorPct    float64
}

// ModelCostResult quantifies Section III-E's motivation: the full model
// must evaluate All_num_of_iters/num_of_threads iterations, so its cost
// grows with the loop, while the linear-regression predictor evaluates a
// fixed number of chunk runs — constant cost, bounded error.
type ModelCostResult struct {
	Threads   int
	ChunkRuns int64
	Points    []ModelCostPoint
}

// ModelingCost runs the study on the heat kernel across growing grids.
func ModelingCost(cfg Config, threads int, chunkRuns int64, sizes [][2]int64) (*ModelCostResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if threads <= 0 {
		threads = 8
	}
	if chunkRuns <= 0 {
		chunkRuns = 20
	}
	if len(sizes) == 0 {
		sizes = [][2]int64{{24, 1024}, {48, 2048}, {96, 4096}}
	}
	res := &ModelCostResult{Threads: threads, ChunkRuns: chunkRuns}
	// Points fan out on the sweep pool; FullTime and PredictTime are wall
	// times, so the interesting number under -j > 1 is their per-point
	// ratio (both sides of a point contend equally), not the absolute
	// values.
	points, err := sweep.Run(cfg.ctx(), len(sizes), cfg.Jobs, func(_ context.Context, i int) (ModelCostPoint, error) {
		sz := sizes[i]
		kern, err := kernels.Heat(sz[0], sz[1])
		if err != nil {
			return ModelCostPoint{}, err
		}
		opts := fsmodel.Options{Machine: cfg.Machine, NumThreads: threads, Chunk: 1, Counting: cfg.Counting,
			Extrapolate: cfg.Extrapolate}

		start := time.Now()
		full, err := fsmodel.Analyze(kern.Nest, opts)
		if err != nil {
			return ModelCostPoint{}, fmt.Errorf("experiments: modelcost %dx%d: %w", sz[0], sz[1], err)
		}
		fullTime := time.Since(start)

		start = time.Now()
		pred, err := fsmodel.Predict(kern.Nest, opts, chunkRuns)
		if err != nil {
			return ModelCostPoint{}, err
		}
		predTime := time.Since(start)

		p := ModelCostPoint{
			Rows: sz[0], Cols: sz[1],
			FullIterations:    full.Iterations,
			SampledIterations: pred.IterationsEvaluated,
			FullTime:          fullTime,
			PredictTime:       predTime,
			FullFS:            full.FSCases,
			PredictedFS:       pred.PredictedFS,
		}
		if full.FSCases > 0 {
			p.ErrorPct = 100 * float64(pred.PredictedFS-full.FSCases) / float64(full.FSCases)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// Render writes the study as a table.
func (m *ModelCostResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Modeling cost: full FS model vs. linear-regression prediction (%d chunk runs), heat kernel, %d threads\n",
		m.ChunkRuns, m.Threads)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "grid\tfull iters\tsampled iters\tfull time\tpredict time\tfull FS\tpredicted FS\terror\t")
	for _, p := range m.Points {
		fmt.Fprintf(tw, "%dx%d\t%s\t%s\t%v\t%v\t%s\t%s\t%+.1f%%\t\n",
			p.Rows, p.Cols, count(p.FullIterations), count(p.SampledIterations),
			p.FullTime.Round(time.Millisecond), p.PredictTime.Round(time.Millisecond),
			count(p.FullFS), count(p.PredictedFS), p.ErrorPct)
	}
	return tw.Flush()
}

// CSV writes the study as CSV.
func (m *ModelCostResult) CSV(w io.Writer) error {
	rows := [][]string{{
		"rows", "cols", "threads", "chunk_runs",
		"full_iterations", "sampled_iterations",
		"full_ns", "predict_ns", "full_fs", "predicted_fs", "error_pct",
	}}
	for _, p := range m.Points {
		rows = append(rows, []string{
			d(p.Rows), d(p.Cols), fmt.Sprint(m.Threads), d(m.ChunkRuns),
			d(p.FullIterations), d(p.SampledIterations),
			d(p.FullTime.Nanoseconds()), d(p.PredictTime.Nanoseconds()),
			d(p.FullFS), d(p.PredictedFS), f(p.ErrorPct),
		})
	}
	return writeAllCSV(w, rows)
}
