// Package sweep is the one CPU worker pool on the solver path. Each is the
// primitive: it claims indices one at a time in index order, stops claiming
// once the context is done, and runs inline on the caller's goroutine when
// a single worker is asked for. Run and Map layer first-error cancellation
// and in-order results on top of it, for experiment tables and the exact
// search's branch fan-out.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for i = 0, 1, …, n−1 on up to workers goroutines.
// Indices are claimed one at a time in ascending order, so a caller that
// sorts its work by priority gets it started in that order. ctx is
// consulted before every claim; once it is done no further index is
// claimed.
//
// With workers ≤ 1 (or n ≤ 1) every call runs inline on the caller's
// goroutine and nothing is spawned.
//
// Each returns the number of indices it started. Claims are in order and
// every claimed index runs, so the started indices are exactly 0..ran−1.
func Each(ctx context.Context, n, workers int, fn func(i int)) (ran int) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return i
			}
			fn(i)
		}
		return n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), n)
}

// Job is one unit of work; it must be safe to run concurrently with the
// other jobs of its Run (jobs share nothing mutable).
type Job[T any] func(ctx context.Context) (T, error)

// Run executes the jobs on up to workers goroutines (workers ≤ 0 means
// GOMAXPROCS) and returns their results in the order the jobs were given.
// The first failing job cancels the context the remaining jobs see, and
// Run returns the root cause, wrapped with its job index: among the
// failures, one that is not an induced context.Canceled wins, lowest job
// index first. A sibling that merely observed the pool's own cancellation
// never displaces the error that caused it. If the caller's ctx ends the
// run without any job failing, its error is returned.
func Run[T any](ctx context.Context, jobs []Job[T], workers int) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, len(jobs))
	var (
		mu       sync.Mutex
		firstIdx int
		firstErr error
		induced  bool // firstErr is a context.Canceled caused by cancel
	)
	Each(ctx, len(jobs), workers, func(idx int) {
		res, err := jobs[idx](ctx)
		if err == nil {
			results[idx] = res
			return
		}
		ind := errors.Is(err, context.Canceled) && parent.Err() == nil
		mu.Lock()
		if firstErr == nil || (induced && !ind) || (induced == ind && idx < firstIdx) {
			firstIdx, firstErr, induced = idx, err, ind
		}
		mu.Unlock()
		cancel()
	})
	if firstErr != nil {
		return nil, fmt.Errorf("sweep: job %d: %w", firstIdx, firstErr)
	}
	// Our own cancel fires only on a job error, so a done ctx here means
	// the caller cancelled.
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Map applies f to every input on up to workers goroutines (workers ≤ 0
// means GOMAXPROCS), with Run's ordering and error semantics.
func Map[In, Out any](ctx context.Context, inputs []In, f func(context.Context, In) (Out, error), workers int) ([]Out, error) {
	jobs := make([]Job[Out], len(inputs))
	for i := range inputs {
		in := inputs[i]
		jobs[i] = func(ctx context.Context) (Out, error) { return f(ctx, in) }
	}
	return Run(ctx, jobs, workers)
}
