package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// magnitudeBits are the value widths the magnitude differential sweeps: 16
// keeps every profit·weight product far inside int64, 31 and 32 straddle
// the width at which such a product starts to wrap, and 40 and 52 are deep
// past it (52 is capped by the numeric domain, see magnitudeInstance).
var magnitudeBits = []int{16, 31, 32, 40, 52}

const (
	magnitudeN      = 10
	magnitudeTrials = 300
	// annealEvery thins anneal to every 20th trial: its 20,000 Metropolis
	// steps cost ~20 ms a trial, against ~1 ms for the rest of the registry
	// together. It is skipped at b = 16, where its re-solved windows take
	// the weight DP (capacity ~2^18) at ~20 s a trial, so it is not among
	// the solvers held to the optimum at every width.
	annealEvery = 20
)

// magnitudeInstance draws one 2π antenna over n customers with demand and
// profit uniform in [1, hi], hi = min(2^b, MaxMagnitude/n) so the totals
// stay inside the domain Validate accepts, and capacity Σdemand/2. One
// full-width antenna covers everyone at any orientation, so the instance
// is exactly the 0/1 knapsack of its customers (PAPER.md) and brute force
// over all 2^n subsets is the oracle. The customers share one angle: every
// window has the same members anyway, and one candidate window instead of
// n keeps the DP-bound small-value trials cheap.
func magnitudeInstance(rng *rand.Rand, b int) *model.Instance {
	hi := min(int64(1)<<b, model.MaxMagnitude/magnitudeN)
	in := &model.Instance{Name: "magnitude", Variant: model.Sectors}
	var total int64
	for i := 0; i < magnitudeN; i++ {
		c := model.Customer{
			Theta:  1,
			R:      1,
			Demand: 1 + rng.Int63n(hi),
			Profit: 1 + rng.Int63n(hi),
		}
		total += c.Demand
		in.Customers = append(in.Customers, c)
	}
	in.Antennas = []model.Antenna{{Rho: geom.TwoPi, Range: 2, Capacity: total / 2}}
	return in.Normalize()
}

// magnitudeItems is the instance as knapsack items, in customer order.
func magnitudeItems(in *model.Instance) ([]knapsack.Item, int64) {
	items := make([]knapsack.Item, in.N())
	for i, c := range in.Customers {
		items[i] = knapsack.Item{Weight: c.Demand, Profit: c.Profit}
	}
	return items, in.Antennas[0].Capacity
}

// bruteKnapsack is the optimum over all subsets.
func bruteKnapsack(items []knapsack.Item, capacity int64) int64 {
	var best int64
	for mask := 0; mask < 1<<len(items); mask++ {
		var w, p int64
		for i, it := range items {
			if mask&(1<<i) != 0 {
				w += it.Weight
				p += it.Profit
			}
		}
		if w <= capacity && p > best {
			best = p
		}
	}
	return best
}

// checkMagnitude solves one instance with knapsack.Solve and every named
// solver, failing on any answer that is wrong for its kind, and returns
// the solvers that hit the brute-force optimum.
func checkMagnitude(t *testing.T, in *model.Instance, names []string) map[string]bool {
	t.Helper()
	if err := in.Validate(); err != nil {
		t.Fatalf("instance outside the accepted domain: %v", err)
	}
	items, capacity := magnitudeItems(in)
	opt := bruteKnapsack(items, capacity)
	res, exact, err := knapsack.Solve(items, capacity, knapsack.Options{})
	if err != nil {
		t.Fatalf("knapsack.Solve: %v", err)
	}
	if res.Profit != opt {
		t.Fatalf("knapsack.Solve = %d (exact=%v), brute force %d", res.Profit, exact, opt)
	}
	hit := make(map[string]bool)
	for _, name := range names {
		solver, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := solver(context.Background(), in, Options{Seed: 1})
		if err != nil {
			continue // the solver does not take this instance shape
		}
		if err := VerifySolution(name, in, sol); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Profit > opt {
			t.Fatalf("%s: profit %d exceeds the optimum %d", name, sol.Profit, opt)
		}
		hit[name] = sol.Profit == opt
	}
	return hit
}

// TestMagnitudeDifferential is the brute-force oracle at the edges of the
// numeric domain: for values up to 2^52, knapsack.Solve must equal brute
// force, every registry solver's answer must verify and never exceed the
// optimum, and every solver that is exact on all the small-value (b = 16)
// trials must stay exact at every width. Int64 density products wrap from
// about b = 32 on, which used to reorder items and prune the optimum while
// still reporting the answer exact.
func TestMagnitudeDifferential(t *testing.T) {
	names := slices.DeleteFunc(Names(), func(n string) bool { return strings.HasPrefix(n, "test-") })
	withoutAnneal := slices.DeleteFunc(slices.Clone(names), func(n string) bool { return n == "anneal" })
	var exactAtSmall []string
	for _, b := range magnitudeBits {
		rng := rand.New(rand.NewSource(int64(b)))
		matches := make(map[string]int)
		for trial := 0; trial < magnitudeTrials; trial++ {
			run := withoutAnneal
			if b != magnitudeBits[0] && trial%annealEvery == 0 {
				run = names
			}
			for name, ok := range checkMagnitude(t, magnitudeInstance(rng, b), run) {
				if ok {
					matches[name]++
				}
			}
		}
		if b == magnitudeBits[0] {
			for _, name := range names {
				if matches[name] == magnitudeTrials {
					exactAtSmall = append(exactAtSmall, name)
				}
			}
			for _, must := range []string{"exact", "auto", "greedy"} {
				if !slices.Contains(exactAtSmall, must) {
					t.Fatalf("%s missed the optimum at b = %d (%d/%d)", must, b, matches[must], magnitudeTrials)
				}
			}
			continue
		}
		for _, name := range exactAtSmall {
			if matches[name] != magnitudeTrials {
				t.Errorf("b = %d: %s matched brute force %d/%d times, but every time at b = %d",
					b, name, matches[name], magnitudeTrials, magnitudeBits[0])
			}
		}
	}
}

// FuzzKnapsackMagnitude drives the same oracle from fuzzed seeds and
// widths.
func FuzzKnapsackMagnitude(f *testing.F) {
	for _, b := range magnitudeBits {
		f.Add(int64(b), uint8(b))
	}
	f.Fuzz(func(t *testing.T, seed int64, width uint8) {
		b := 1 + int(width)%62
		checkMagnitude(t, magnitudeInstance(rand.New(rand.NewSource(seed)), b), []string{"exact", "auto", "greedy"})
	})
}
