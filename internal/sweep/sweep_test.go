package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPreservesOrder(t *testing.T) {
	jobs := make([]Job[int], 100)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) { return i * i, nil }
	}
	res, err := Run(context.Background(), jobs, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range res {
		if r != i*i {
			t.Fatalf("result %d = %d, want %d", i, r, i*i)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := Run[int](context.Background(), nil, 0)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v, %v", res, err)
	}
}

func TestRunErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int32
	jobs := make([]Job[int], 200)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			executed.Add(1)
			if i == 3 {
				return 0, boom
			}
			// Simulate work so cancellation has time to take effect.
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
			return i, nil
		}
	}
	_, err := Run(context.Background(), jobs, 4)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if n := executed.Load(); n == 200 {
		t.Error("cancellation should have skipped some jobs")
	}
}

func TestRunExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job[int]{func(context.Context) (int, error) { return 1, nil }}
	_, err := Run(ctx, jobs, 0)
	if err == nil {
		t.Fatal("cancelled context must surface as an error")
	}
}

func TestRunWorkerCap(t *testing.T) {
	var inFlight, peak atomic.Int32
	jobs := make([]Job[int], 50)
	for i := range jobs {
		jobs[i] = func(context.Context) (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return 0, nil
		}
	}
	if _, err := Run(context.Background(), jobs, 3); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d exceeds worker cap 3", p)
	}
}

func TestMap(t *testing.T) {
	inputs := []int{1, 2, 3, 4}
	out, err := Map(context.Background(), inputs, func(_ context.Context, x int) (string, error) {
		return fmt.Sprintf("v%d", x), nil
	}, 0)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	want := []string{"v1", "v2", "v3", "v4"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	jobs := []Job[int]{
		func(context.Context) (int, error) { time.Sleep(5 * time.Millisecond); return 0, errA },
		func(context.Context) (int, error) { return 0, errB },
	}
	_, err := Run(context.Background(), jobs, 2)
	// Lowest job index wins regardless of completion order.
	if !errors.Is(err, errA) {
		t.Fatalf("want errA (lowest index), got %v", err)
	}
}

// TestRunRootCauseError is the regression test for a sibling's induced
// cancellation displacing the real failure: job 0 blocks until the pool
// cancels it and then reports context.Canceled, job 1 fails with a
// sentinel. The sentinel caused the cancellation, so Run must return it,
// every time, even though job 0 has the lower index.
func TestRunRootCauseError(t *testing.T) {
	sentinel := errors.New("sentinel")
	for trial := 0; trial < 500; trial++ {
		jobs := []Job[int]{
			func(ctx context.Context) (int, error) {
				<-ctx.Done()
				return 0, fmt.Errorf("wrapped: %w", ctx.Err())
			},
			func(context.Context) (int, error) { return 0, sentinel },
		}
		_, err := Run(context.Background(), jobs, 2)
		if !errors.Is(err, sentinel) {
			t.Fatalf("trial %d: err = %v, want the sentinel root cause", trial, err)
		}
	}
}

// TestRunCallerCancelIsNotInduced checks the other side of the root-cause
// rule: when the caller's own ctx is cancelled, a job's context.Canceled
// is the real outcome and surfaces as such.
func TestRunCallerCancelIsNotInduced(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []Job[int]{
		func(ctx context.Context) (int, error) {
			cancel()
			<-ctx.Done()
			return 0, ctx.Err()
		},
	}
	_, err := Run(ctx, jobs, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEachClaimsInOrder pins the claim discipline the angular evaluator's
// pruning relies on: a single worker visits indices strictly in order on
// the caller's goroutine, and with several workers every index still runs
// exactly once.
func TestEachClaimsInOrder(t *testing.T) {
	var seen []int
	ran := Each(context.Background(), 10, 1, func(i int) {
		seen = append(seen, i) // no lock: the inline path spawns nothing
	})
	if ran != 10 {
		t.Fatalf("ran = %d, want 10", ran)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("inline order %v", seen)
		}
	}

	const n, workers = 1000, 4
	var hits [n]atomic.Int32
	if ran := Each(context.Background(), n, workers, func(i int) {
		hits[i].Add(1)
	}); ran != n {
		t.Fatalf("ran = %d, want %d", ran, n)
	}
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

// TestEachStopsClaimingOnCancel checks that a done ctx stops the pool and
// that the started indices form the prefix 0..ran−1 on both paths.
func TestEachStopsClaimingOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n, stopAt = 200, 20
		var started [n]atomic.Bool
		ran := Each(ctx, n, workers, func(i int) {
			started[i].Store(true)
			if i == stopAt {
				cancel()
			}
		})
		cancel()
		if ran <= stopAt || ran == n {
			t.Fatalf("workers=%d: ran = %d, want in (%d, %d)", workers, ran, stopAt, n)
		}
		for i := range started {
			if started[i].Load() != (i < ran) {
				t.Fatalf("workers=%d: index %d started=%v but ran=%d", workers, i, started[i].Load(), ran)
			}
		}
	}
}

// TestScalarVsParallelEach is the pool's own differential: Each writing
// f(i) into slot i must fill the same slots at one worker and at many.
func TestScalarVsParallelEach(t *testing.T) {
	const n = 5000
	fill := func(workers int) []int {
		out := make([]int, n)
		Each(context.Background(), n, workers, func(i int) { out[i] = i*i ^ 0x5bd1 })
		return out
	}
	scalar, parallel := fill(1), fill(8)
	for i := range scalar {
		if scalar[i] != parallel[i] {
			t.Fatalf("slot %d: scalar %d, parallel %d", i, scalar[i], parallel[i])
		}
	}
}
