package experiments

import (
	"context"
	"fmt"

	"repro/internal/fsmodel"
	"repro/internal/linreg"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// ChunkSweepPoint is one point of Figure 2.
type ChunkSweepPoint struct {
	Chunk           int64
	Seconds         float64
	CoherenceMisses int64
	ModelFSCases    int64
}

// ChunkSweepResult holds Figure 2: execution time of the linear-regression
// kernel versus schedule chunk size.
type ChunkSweepResult struct {
	Kernel  string
	Threads int
	Points  []ChunkSweepPoint
	// ImprovementPct is (t(chunk_min) - t(chunk_max)) / t(chunk_min); the
	// paper reports up to ~30%.
	ImprovementPct float64
}

// Fig2ChunkSweep reproduces Figure 2: the linear-regression kernel's
// simulated execution time for chunk sizes 1..30 at a fixed thread count
// (8, matching the spirit of the paper's tuning example).
func Fig2ChunkSweep(cfg Config, threads int, chunks []int64) (*ChunkSweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if threads <= 0 {
		threads = 8
	}
	if len(chunks) == 0 {
		for c := int64(1); c <= 30; c++ {
			chunks = append(chunks, c)
		}
	}
	kern, err := kernelsLinReg(cfg, threads)
	if err != nil {
		return nil, err
	}
	res := &ChunkSweepResult{Kernel: "linreg", Threads: threads}
	points, err := sweep.Run(cfg.ctx(), len(chunks), cfg.Jobs, func(_ context.Context, i int) (ChunkSweepPoint, error) {
		chunk := chunks[i]
		st, err := sim.Run(kern.Nest, sim.Options{Machine: cfg.Machine, NumThreads: threads, Chunk: chunk})
		if err != nil {
			return ChunkSweepPoint{}, fmt.Errorf("experiments: fig2 chunk=%d: %w", chunk, err)
		}
		fs, err := fsmodel.Analyze(kern.Nest, fsmodel.Options{
			Machine: cfg.Machine, NumThreads: threads, Chunk: chunk, Counting: cfg.Counting,
			Extrapolate: cfg.Extrapolate,
		})
		if err != nil {
			return ChunkSweepPoint{}, err
		}
		return ChunkSweepPoint{
			Chunk: chunk, Seconds: st.Seconds, CoherenceMisses: st.CoherenceMisses, ModelFSCases: fs.FSCases,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	first := res.Points[0].Seconds
	best := first
	for _, p := range res.Points {
		if p.Seconds < best {
			best = p.Seconds
		}
	}
	if first > 0 {
		res.ImprovementPct = (first - best) / first
	}
	return res, nil
}

// LinearitySeries is one chunk size's cumulative FS-vs-chunk-run series of
// Figure 6, with its least-squares fit.
type LinearitySeries struct {
	Chunk  int64
	PerRun []int64 // cumulative FS cases after each chunk run
	Fit    linreg.Model
}

// LinearityResult holds Figure 6.
type LinearityResult struct {
	Kernel  string
	Threads int
	Series  []LinearitySeries
}

// Fig6Linearity reproduces Figure 6: FS cases grow linearly with the
// number of chunk runs, for both the FS-inducing and FS-free chunk sizes
// of the heat kernel.
func Fig6Linearity(cfg Config, kernel string, threads int, maxRuns int64) (*LinearityResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kc, err := cfg.caseByName(kernel)
	if err != nil {
		return nil, err
	}
	if threads <= 0 {
		threads = 8
	}
	kern, err := kc.load(cfg, threads)
	if err != nil {
		return nil, err
	}
	res := &LinearityResult{Kernel: kc.name, Threads: threads}
	chunkAxis := []int64{kc.fsChunk, kc.nfsChunk}
	series, err := sweep.Run(cfg.ctx(), len(chunkAxis), cfg.Jobs, func(_ context.Context, i int) (LinearitySeries, error) {
		chunk := chunkAxis[i]
		opts := fsmodel.Options{
			Machine: cfg.Machine, NumThreads: threads, Chunk: chunk,
			Counting: cfg.Counting, RecordPerRun: true, MaxChunkRuns: maxRuns,
		}
		r, err := fsmodel.Analyze(kern.Nest, opts)
		if err != nil {
			return LinearitySeries{}, err
		}
		vals := make([]float64, len(r.PerRun))
		for j, v := range r.PerRun {
			vals[j] = float64(v)
		}
		fit, err := linreg.FitPrefix(vals, len(vals))
		if err != nil {
			return LinearitySeries{}, fmt.Errorf("experiments: fig6 chunk=%d: %w", chunk, err)
		}
		return LinearitySeries{Chunk: chunk, PerRun: r.PerRun, Fit: fit}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Series = series
	return res, nil
}

// SummaryRow is one thread count of Figures 8–9: the three estimates of
// the FS effect side by side.
type SummaryRow struct {
	Threads   int
	Measured  float64
	Modeled   float64
	Predicted float64
}

// SummaryResult holds Figure 8 (heat) or Figure 9 (DFT).
type SummaryResult struct {
	Kernel string
	Rows   []SummaryRow
}

// FigSummary reproduces Figure 8/9 by combining the kernel's measured
// table with its prediction table.
func FigSummary(cfg Config, kernel string) (*SummaryResult, error) {
	tab, err := Table(cfg, kernel)
	if err != nil {
		return nil, err
	}
	pred, err := PredictionTable(cfg, kernel)
	if err != nil {
		return nil, err
	}
	if len(tab.Rows) != len(pred.Rows) {
		return nil, fmt.Errorf("experiments: summary row mismatch (%d vs %d)", len(tab.Rows), len(pred.Rows))
	}
	res := &SummaryResult{Kernel: kernel}
	for i := range tab.Rows {
		res.Rows = append(res.Rows, SummaryRow{
			Threads:   tab.Rows[i].Threads,
			Measured:  tab.Rows[i].MeasuredPct,
			Modeled:   tab.Rows[i].ModeledPct,
			Predicted: pred.Rows[i].PredPct,
		})
	}
	return res, nil
}
