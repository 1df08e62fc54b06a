package fsmodel

import (
	"repro/internal/cache"
	"repro/internal/loopir"
	"repro/internal/trace"
)

// This file keeps the model's original per-iteration interpreter as the
// reference oracle for the production executor (compiled.go). It walks
// the thread team in lockstep through trace.Generator cursors, evaluating
// every affine subscript per iteration and touching the map state one
// (reference, line) pair at a time, with the same per-access budget
// checks the production executor amortizes. The differential gates in
// compiled_test.go require identical results from both.

// analyzeOracle runs the reference interpreter over the map state.
func analyzeOracle(nest *loopir.Nest, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	plan, gen, err := prepare(nest, opts)
	if err != nil {
		return nil, err
	}
	r, err := newRun(nest, opts, plan, gen.Skipped, nil, false, 0, 0)
	if err != nil {
		return nil, err
	}
	return r.execute(gen)
}

// execute drives the lockstep enumeration of the thread team over the
// map state, one innermost iteration per thread per step.
func (r *run) execute(gen *trace.Generator) (*Result, error) {
	res := r.res
	cursors := gen.Cursors()
	numThreads := r.plan.NumThreads
	lineSize := r.lineSize
	active := numThreads
	var accBuf []trace.Access

	// Chunk-run tracking piggybacks on thread 0: a chunk run completes
	// when thread 0 finishes each of its chunks (lockstep execution means
	// all threads finish theirs at the same step). It is skipped entirely
	// when neither RecordPerRun nor MaxChunkRuns needs it.
	var t0Trips int64 // parallel-loop trips consumed by thread 0
	var t0PrevKey [2]int64
	t0HaveKey := false

	// Fail fast on a budget that is already blown (expired deadline,
	// oversized initial state) even when the run is shorter than one
	// amortized check interval.
	if r.budgeted {
		if err := r.budget.Check(0, r.estimateStateBytes()); err != nil {
			return nil, err
		}
	}

	for active > 0 {
		res.Steps++
		for t := 0; t < numThreads; t++ {
			cur := cursors[t]
			if cur.Done() {
				continue
			}
			if !cur.Next() {
				active--
				continue
			}
			res.Iterations++
			if t == 0 && r.trackRuns {
				key := [2]int64{prefixFingerprint(cur, r.nest.ParLevel), cur.ParallelTrip()}
				if !t0HaveKey || key != t0PrevKey {
					t0Trips++
					t0PrevKey = key
					t0HaveKey = true
					// Thread 0 runs first within a lockstep step, so at the
					// moment it begins a new chunk every thread has finished
					// the previous chunk run and none of the new run's
					// accesses have been processed: snapshot here.
					for completed := (t0Trips - 1) / r.plan.Chunk; res.ChunkRunsEvaluated < completed; {
						res.ChunkRunsEvaluated++
						if r.recordPerRun {
							res.PerRun = append(res.PerRun, res.FSCases)
						}
						if r.maxRuns > 0 && res.ChunkRunsEvaluated >= r.maxRuns {
							res.Truncated = true
							return res, nil
						}
					}
				}
			}
			accBuf = gen.Accesses(cur.Vals(), accBuf)
			for i := range accBuf {
				a := &accBuf[i]
				first, last := cache.LinesTouched(a.Addr, a.Size, lineSize)
				for line := first; line <= last; line++ {
					res.Accesses++
					if r.budgeted && res.Accesses >= r.nextCheck {
						r.nextCheck = res.Accesses + budgetCheckEvery
						if err := r.budget.Check(res.Accesses, r.estimateStateBytes()); err != nil {
							return nil, err
						}
					}
					r.accessMap(t, line, a.Write, int(a.Ref))
				}
			}
		}
	}
	// Close out the final (possibly partial) chunk run(s).
	if r.recordPerRun && r.plan.Chunk > 0 {
		finalRuns := (t0Trips + r.plan.Chunk - 1) / r.plan.Chunk
		for res.ChunkRunsEvaluated < finalRuns {
			res.ChunkRunsEvaluated++
			res.PerRun = append(res.PerRun, res.FSCases)
		}
	}
	return res, nil
}

// prefixFingerprint summarizes the loop-variable values above the parallel
// level so chunk-run counting notices when a new parallel-loop instance
// begins. Values are folded; collisions would only perturb run sampling,
// not FS counts.
func prefixFingerprint(c *trace.ThreadCursor, parLevel int) int64 {
	if parLevel <= 0 {
		return 0
	}
	var h int64 = 1469598103934665603
	vals := c.Vals()
	for i := 0; i < parLevel; i++ {
		h = h*1099511628211 + vals[i]
	}
	return h
}
