package angular

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// unprunedBestWindow is the reference implementation of BestWindow: it
// materializes every candidate window via windowSets and solves every
// knapsack, with no bound pruning, no parallelism, and no scratch reuse —
// exactly the historical evaluation the Engine replaced. The metamorphic
// tests below demand bit-identical results from the pruned path.
func unprunedBestWindow(in *model.Instance, antenna int, active []bool, opt knapsack.Options) (Window, error) {
	s := NewSweep(in, antenna)
	alphas, members := s.windowSets(active)
	if len(alphas) == 0 {
		return Window{Exact: true}, nil
	}
	capacity := in.Antennas[antenna].Capacity
	acc := Window{Profit: -1, Exact: true}
	for k, alpha := range alphas {
		ids := members[k]
		if len(ids) == 0 {
			acc = better(acc, Window{Alpha: alpha, Exact: true})
			continue
		}
		items := make([]knapsack.Item, len(ids))
		for t, i := range ids {
			items[t] = knapsack.Item{Weight: in.Customers[i].Demand, Profit: in.Customers[i].Profit}
		}
		res, exact, err := knapsack.Solve(items, capacity, opt)
		if err != nil {
			return Window{}, err
		}
		w := Window{Alpha: alpha, Profit: res.Profit, Exact: exact}
		for t, take := range res.Take {
			if take {
				w.Customers = append(w.Customers, ids[t])
			}
		}
		acc = better(acc, w)
	}
	return clampEmpty(acc), nil
}

func windowsEqual(a, b Window) bool {
	// The determinism contract is bit identity, so Alpha compares by bits.
	if math.Float64bits(a.Alpha) != math.Float64bits(b.Alpha) ||
		a.Profit != b.Profit || a.Exact != b.Exact || len(a.Customers) != len(b.Customers) {
		return false
	}
	for k := range a.Customers {
		if a.Customers[k] != b.Customers[k] {
			return false
		}
	}
	return true
}

// TestBestWindowPruningInvariance is the metamorphic guarantee of the
// Dantzig-bound pruning: across generator families, problem variants,
// random active masks, and both the exact and the FPTAS inner solvers, the
// pruned Engine evaluation must return exactly the same (Alpha, Profit,
// Customers, Exact) as the exhaustive reference. The Engine is also called
// twice per case so scratch reuse is covered.
func TestBestWindowPruningInvariance(t *testing.T) {
	variants := []model.Variant{model.Sectors, model.Angles, model.DisjointAngles}
	opts := []knapsack.Options{{}, {ForceApprox: true, Eps: 0.3}}
	rng := rand.New(rand.NewSource(77))
	cases := 0
	for _, fam := range gen.Families() {
		for seed := int64(1); seed <= 6; seed++ {
			for _, n := range []int{12, 31} {
				in := gen.MustGenerate(gen.Config{
					Family:  fam,
					Seed:    seed,
					N:       n,
					M:       1,
					Variant: variants[cases%len(variants)],
				})
				var active []bool
				if cases%2 == 1 {
					active = make([]bool, in.N())
					for i := range active {
						active[i] = rng.Intn(4) != 0
					}
				}
				eng := NewEngine(in)
				for _, opt := range opts {
					want, err := unprunedBestWindow(in, 0, active, opt)
					if err != nil {
						t.Fatalf("%s/%d/n%d reference: %v", fam, seed, n, err)
					}
					for rep := 0; rep < 2; rep++ {
						got, err := eng.BestWindow(context.Background(), 0, active, opt)
						if err != nil {
							t.Fatalf("%s/%d/n%d engine: %v", fam, seed, n, err)
						}
						if !windowsEqual(got, want) {
							t.Fatalf("%s/%d/n%d opt=%+v rep=%d: pruned %+v != unpruned %+v",
								fam, seed, n, opt, rep, got, want)
						}
					}
				}
				cases++
			}
		}
	}
	if cases < 50 {
		t.Fatalf("only %d seeded instances, want >= 50", cases)
	}
}

// TestBestWindowAtMatchesScanReference checks the explicit-angle evaluation
// (the constrained solvers' entry point) against a direct Covered/
// WindowItems scan, including non-customer angles and empty windows, which
// the constrained fold must skip.
func TestBestWindowAtMatchesScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(rng, 1+rng.Intn(25), 1, model.Sectors)
		alphas := append([]float64{}, scanCandidates(in, 0)...)
		for k := 0; k < 4; k++ {
			alphas = append(alphas, rng.Float64()*6.283)
		}
		var active []bool
		if trial%2 == 1 {
			active = make([]bool, in.N())
			for i := range active {
				active[i] = rng.Intn(3) != 0
			}
		}
		want := scanBestWindowAt(t, in, alphas, active, knapsack.Options{})
		got, err := NewEngine(in).BestWindowAt(context.Background(), 0, alphas, active, knapsack.Options{})
		if err != nil {
			t.Fatalf("BestWindowAt: %v", err)
		}
		if !windowsEqual(got, want) {
			t.Fatalf("trial %d: BestWindowAt %+v != scan %+v", trial, got, want)
		}
	}
}

// scanBestWindowAt is the reference for BestWindowAt: a direct
// WindowItems scan over every alpha, solving every non-empty window and
// skipping empty ones, with no pruning.
func scanBestWindowAt(t *testing.T, in *model.Instance, alphas []float64, active []bool, opt knapsack.Options) Window {
	t.Helper()
	capacity := in.Antennas[0].Capacity
	want := Window{Profit: -1, Exact: true}
	for _, alpha := range alphas {
		items, ids := WindowItems(in, 0, alpha, active)
		if len(ids) == 0 {
			continue
		}
		res, exact, err := knapsack.Solve(items, capacity, opt)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		w := Window{Alpha: alpha, Profit: res.Profit, Exact: exact}
		for k, take := range res.Take {
			if take {
				w.Customers = append(w.Customers, ids[k])
			}
		}
		want = better(want, w)
	}
	return clampEmpty(want)
}

// tieInstance builds a one-antenna instance on which many candidate
// windows tie: profit == demand makes every density equal, so a window's
// floored Dantzig bound is min(capacity, its active demand); even demands
// against an odd capacity leave every window that overflows the capacity
// one short of its bound, tying with windows that fit it exactly, and about
// a third of the customers appear twice.
func tieInstance(rng *rand.Rand, n int) *model.Instance {
	in := &model.Instance{Variant: model.Sectors}
	for i := 0; i < n; i++ {
		c := model.Customer{
			Theta:  rng.Float64() * geom.TwoPi,
			R:      rng.Float64() * 10,
			Demand: 2 * (1 + rng.Int63n(4)),
		}
		c.Profit = c.Demand
		in.Customers = append(in.Customers, c)
		if rng.Intn(3) == 0 {
			in.Customers = append(in.Customers, c)
		}
	}
	in.Antennas = []model.Antenna{{Rho: 0.3 + rng.Float64()*2, Range: 10, Capacity: 2*(3+rng.Int63n(10)) + 1}}
	return in.Normalize()
}

// TestBestWindowTiesScalarVsParallel is the tie-heavy differential of the
// pruning's tie rule (a window whose bound equals a profit an earlier
// window already reached is skipped): on instances where many windows tie
// at the maximum, BestWindow and BestWindowAt must match the unpruned
// references bit for bit on the scalar and the worker-pool paths, with and
// without active masks, for the exact and the FPTAS inner solvers; the
// engine's work counters must not depend on the path either.
func TestBestWindowTiesScalarVsParallel(t *testing.T) {
	opts := []knapsack.Options{{}, {ForceApprox: true, Eps: 0.3}}
	rng := rand.New(rand.NewSource(81))
	defer SetMaxWorkers(SetMaxWorkers(0))
	var pruned int64
	var scalarWork Work
	for trial := 0; trial < 200; trial++ {
		in := tieInstance(rng, 5+rng.Intn(25))
		var active []bool
		if trial%2 == 1 {
			active = make([]bool, in.N())
			for i := range active {
				active[i] = rng.Intn(4) != 0
			}
		}
		alphas := append([]float64{}, scanCandidates(in, 0)...)
		for k := 0; k < 4; k++ {
			alphas = append(alphas, rng.Float64()*geom.TwoPi)
		}
		for _, opt := range opts {
			want, err := unprunedBestWindow(in, 0, active, opt)
			if err != nil {
				t.Fatalf("trial %d reference: %v", trial, err)
			}
			wantAt := scanBestWindowAt(t, in, alphas, active, opt)
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				SetMaxWorkers(workers)
				eng := NewEngine(in)
				got, err := eng.BestWindow(context.Background(), 0, active, opt)
				if err != nil {
					t.Fatalf("trial %d BestWindow: %v", trial, err)
				}
				gotAt, err := eng.BestWindowAt(context.Background(), 0, alphas, active, opt)
				if err != nil {
					t.Fatalf("trial %d BestWindowAt: %v", trial, err)
				}
				if !windowsEqual(got, want) {
					t.Fatalf("trial %d opt=%+v workers=%d: BestWindow %+v != unpruned %+v", trial, opt, workers, got, want)
				}
				if !windowsEqual(gotAt, wantAt) {
					t.Fatalf("trial %d opt=%+v workers=%d: BestWindowAt %+v != scan %+v", trial, opt, workers, gotAt, wantAt)
				}
				w := eng.Work()
				if w.Enumerated != int64(len(scanCandidates(in, 0))+len(alphas)) || w.Pruned+w.Solved > w.Enumerated {
					t.Fatalf("trial %d: inconsistent work counters %+v", trial, w)
				}
				if workers == 1 {
					scalarWork = w
				} else if w != scalarWork {
					t.Fatalf("trial %d: work counters %+v at %d workers, %+v on the scalar path", trial, w, workers, scalarWork)
				}
				pruned += w.Pruned
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no window was ever pruned: the instances do not exercise the pruning")
	}
}

// TestDantzigBoundDominatesOptimum property-checks pruning soundness at its
// root: every candidate window's fractional bound must be at least the
// window's true 0/1 optimum, for both the range and the explicit-set bound.
func TestDantzigBoundDominatesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 60; trial++ {
		in := randInstance(rng, 1+rng.Intn(14), 1, model.Sectors)
		var active []bool
		if trial%2 == 1 {
			active = make([]bool, in.N())
			for i := range active {
				active[i] = rng.Intn(3) != 0
			}
		}
		s := NewSweep(in, 0)
		capacity := in.Antennas[0].Capacity
		n := s.Len()
		s.forEachRange(func(start, count int, alpha float64) bool {
			bound := s.dantzigRange(start, count, active, capacity).Floor()
			var items []knapsack.Item
			var set []int32
			for k := start; k < start+count; k++ {
				p := k % n
				if i := s.ids[p]; active == nil || active[i] {
					items = append(items, knapsack.Item{Weight: in.Customers[i].Demand, Profit: in.Customers[i].Profit})
					set = append(set, int32(p))
				}
			}
			if setBound := s.dantzigSet(set, active, capacity).Floor(); setBound != bound {
				t.Fatalf("window at %v: dantzigSet %d != dantzigRange %d", alpha, setBound, bound)
			}
			opt, err := knapsackExact(items, capacity)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if bound < opt {
				t.Fatalf("window at %v: bound %d below optimum %d", alpha, bound, opt)
			}
			return true
		})
	}
}

// TestEngineCachesSweeps pins the core caching contract: repeated queries
// for the same antenna must reuse one Sweep and one candidate slice.
func TestEngineCachesSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	in := randInstance(rng, 20, 2, model.Sectors)
	eng := NewEngine(in)
	if eng.Sweep(1) != eng.Sweep(1) {
		t.Fatal("Sweep not cached per antenna")
	}
	c1, c2 := eng.Candidates(0), eng.Candidates(0)
	if len(c1) > 0 && &c1[0] != &c2[0] {
		t.Fatal("Candidates not cached per antenna")
	}
}
