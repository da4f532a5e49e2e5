package exact

import (
	"context"
	"fmt"

	"sectorpack/internal/model"
	"sectorpack/internal/sweep"
)

// SolveParallel is Solve with the outermost candidate loop (the first
// antenna's orientations) fanned out over a worker pool. The result is
// identical to Solve — ties between equal-profit tuples are broken by the
// first antenna's candidate order, which the deterministic merge below
// preserves. workers <= 0 means GOMAXPROCS.
//
// The caller's ctx governs the whole pool: cancelling it stops every
// worker at its next tuple boundary and the first ctx.Err() surfaces
// (wrapped by the sweep, so errors.Is still matches context.Canceled /
// context.DeadlineExceeded). Partial results are discarded.
func SolveParallel(ctx context.Context, in *model.Instance, lim Limits, workers int) (model.Solution, error) {
	if err := in.Validate(); err != nil {
		return model.Solution{}, fmt.Errorf("exact: %w", err)
	}
	if in.M() < 2 || in.N() == 0 {
		// Nothing to partition: a single antenna's sweep is already the
		// whole search.
		return Solve(ctx, in, lim)
	}
	cands, err := candidateSets(ctx, in)
	if err != nil {
		return model.Solution{}, err
	}
	first := cands[0]
	jobs := make([]sweep.Job[model.Solution], len(first))
	for k := range first {
		alpha := first[k]
		jobs[k] = func(jctx context.Context) (model.Solution, error) {
			return solve(jctx, in, lim, []float64{alpha})
		}
	}
	results, err := sweep.Run(ctx, jobs, workers)
	if err != nil {
		return model.Solution{}, err
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.Profit > best.Profit {
			best = r
		}
	}
	return best, nil
}
