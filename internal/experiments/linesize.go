package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/fsmodel"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// LineSizePoint is one cache-line size of the sensitivity sweep.
type LineSizePoint struct {
	LineSize        int64
	FSCases         int64
	Seconds         float64
	CoherenceMisses int64
}

// LineSizeResult holds the line-size sensitivity experiment: an extension
// beyond the paper's evaluation showing that the model's FS predictions
// track the architecture parameter that defines false sharing in the
// first place. At a fixed chunk size, lines that hold no more data than
// one chunk produce zero FS; every doubling beyond that threshold pulls
// more neighbours onto each line.
type LineSizeResult struct {
	Kernel  string
	Threads int
	Chunk   int64
	Points  []LineSizePoint
}

// LineSizeSweep analyzes the victim kernel under machines that differ
// only in cache-line size. Defaults: 8 threads, chunk 4, lines
// {32, 64, 128, 256}.
func LineSizeSweep(cfg Config, threads int, chunk int64, lineSizes []int64) (*LineSizeResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if threads <= 0 {
		threads = 8
	}
	if chunk <= 0 {
		chunk = 4
	}
	if len(lineSizes) == 0 {
		lineSizes = []int64{32, 64, 128, 256}
	}
	res := &LineSizeResult{Kernel: "linreg", Threads: threads, Chunk: chunk}
	points, err := sweep.Run(cfg.ctx(), len(lineSizes), cfg.Jobs, func(_ context.Context, i int) (LineSizePoint, error) {
		ls := lineSizes[i]
		m := withLineSize(cfg.Machine, ls)
		if err := m.Validate(); err != nil {
			return LineSizePoint{}, fmt.Errorf("experiments: line size %d: %w", ls, err)
		}
		// Re-lower so symbol alignment follows the line size (the paper's
		// alignment assumption is per-line-size).
		src := kernels.LinRegSource(cfg.LinRegTasks, cfg.LinRegPoints, threads)
		kern, err := kernels.LoadOpts("linreg", src, loopir.LowerOptions{LineSize: ls})
		if err != nil {
			return LineSizePoint{}, err
		}
		fs, err := fsmodel.Analyze(kern.Nest, fsmodel.Options{
			Machine: m, NumThreads: threads, Chunk: chunk, Counting: cfg.Counting,
			Extrapolate: cfg.Extrapolate,
		})
		if err != nil {
			return LineSizePoint{}, err
		}
		st, err := sim.Run(kern.Nest, sim.Options{Machine: m, NumThreads: threads, Chunk: chunk})
		if err != nil {
			return LineSizePoint{}, err
		}
		return LineSizePoint{
			LineSize: ls, FSCases: fs.FSCases, Seconds: st.Seconds, CoherenceMisses: st.CoherenceMisses,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// withLineSize clones a machine description with a different cache-line
// size at every level.
func withLineSize(base *machine.Desc, lineSize int64) *machine.Desc {
	m := *base
	m.Name = fmt.Sprintf("%s-line%d", base.Name, lineSize)
	m.LineSize = lineSize
	m.L1.LineSize = lineSize
	m.L2.LineSize = lineSize
	m.L3.LineSize = lineSize
	return &m
}

// Render writes the sweep as a table.
func (l *LineSizeResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "False sharing vs. cache-line size, %s kernel, %d threads, chunk=%d (extension)\n",
		l.Kernel, l.Threads, l.Chunk)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "line size\tmodel FS cases\tsim time (s)\tsim coherence misses\t")
	for _, p := range l.Points {
		fmt.Fprintf(tw, "%d\t%s\t%.6f\t%s\t\n", p.LineSize, count(p.FSCases), p.Seconds, count(p.CoherenceMisses))
	}
	return tw.Flush()
}

// CSV writes the sweep as CSV.
func (l *LineSizeResult) CSV(w io.Writer) error {
	rows := [][]string{{"kernel", "threads", "chunk", "line_size", "model_fs", "sim_seconds", "sim_coherence_misses"}}
	for _, p := range l.Points {
		rows = append(rows, []string{
			l.Kernel, fmt.Sprint(l.Threads), d(l.Chunk), d(p.LineSize),
			d(p.FSCases), f(p.Seconds), d(p.CoherenceMisses),
		})
	}
	return writeAllCSV(w, rows)
}
