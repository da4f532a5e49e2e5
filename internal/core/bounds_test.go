package core

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sectorpack/internal/angular"
	"sectorpack/internal/gen"
	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// scanUpperBound is the reference UpperBound, computed without an engine:
// every in-range customer angle of an antenna is a candidate (sorted,
// deduplicated within geom.Eps); at each candidate every customer is
// tested with Covers, the window is sorted by density and its Dantzig
// value is summed in floats item by item.
func scanUpperBound(in *model.Instance) float64 {
	var sum float64
	for j, a := range in.Antennas {
		var cands []float64
		for _, c := range in.Customers {
			if a.InRange(c) {
				cands = append(cands, c.Theta)
			}
		}
		sort.Float64s(cands)
		best, last := 0.0, math.Inf(-1)
		for _, alpha := range cands {
			if alpha-last <= geom.Eps {
				continue // duplicate candidate
			}
			last = alpha
			items, _ := angular.WindowItems(in, j, alpha, nil)
			if b := scanDantzig(items, a.Capacity); b > best {
				best = b
			}
		}
		sum += best
	}
	return min(sum, float64(in.TotalProfit()))
}

// scanDantzig is the float Dantzig value of items sorted densest first,
// ties by higher profit, then input order.
func scanDantzig(items []knapsack.Item, capacity int64) float64 {
	sorted := slices.Clone(items)
	slices.SortStableFunc(sorted, func(a, b knapsack.Item) int {
		if c := knapsack.CompareDensity(a.Profit, a.Weight, b.Profit, b.Weight); c != 0 {
			return c
		}
		return cmp.Compare(b.Profit, a.Profit)
	})
	var bound float64
	rem := capacity
	for _, it := range sorted {
		if it.Weight > rem {
			return bound + float64(it.Profit)*float64(rem)/float64(it.Weight)
		}
		bound += float64(it.Profit)
		rem -= it.Weight
	}
	return bound
}

// tieHeavyInstance draws customers from a few angles (with sub-Eps jitter
// and some exactly repeated) clustered around the 2π seam, over antennas
// that include a full-width one, annuli, capacity 0, and zero-profit
// customers.
func tieHeavyInstance(rng *rand.Rand) *model.Instance {
	angles := []float64{0, 1e-10, 0.2, geom.TwoPi - 0.2, geom.TwoPi - 1e-10, math.Pi, 1.5}
	in := &model.Instance{Variant: model.Sectors}
	n := 5 + rng.Intn(40)
	for i := 0; i < n; i++ {
		theta := angles[rng.Intn(len(angles))]
		if rng.Intn(3) == 0 {
			theta = geom.NormAngle(theta + (rng.Float64()-0.5)*3*geom.Eps)
		}
		d := 1 + rng.Int63n(4)
		in.Customers = append(in.Customers, model.Customer{
			Theta: theta, R: 1 + float64(rng.Intn(4)), Demand: d, Profit: d * (1 + rng.Int63n(3)),
		})
	}
	for j := 1 + rng.Intn(3); j > 0; j-- {
		a := model.Antenna{Rho: []float64{0.2, 0.4, math.Pi, geom.TwoPi}[rng.Intn(4)], Range: 2 + float64(rng.Intn(3)), Capacity: rng.Int63n(12)}
		if rng.Intn(3) == 0 {
			a.MinRange = 2
		}
		in.Antennas = append(in.Antennas, a)
	}
	in.Normalize()
	for i := range in.Customers {
		if rng.Intn(5) == 0 {
			in.Customers[i].Profit = 0 // after Normalize, which would default it
		}
	}
	return in
}

// magnitudeBoundInstance spreads Σprofit and Σdemand close to
// model.MaxMagnitude over n customers and several antennas.
func magnitudeBoundInstance(rng *rand.Rand) *model.Instance {
	n := 4 + rng.Intn(20)
	hi := int64(model.MaxMagnitude) / int64(n)
	in := &model.Instance{Variant: model.Angles}
	var total int64
	for i := 0; i < n; i++ {
		c := model.Customer{
			Theta:  rng.Float64() * geom.TwoPi,
			Demand: hi - rng.Int63n(hi/4),
			Profit: hi - rng.Int63n(hi/4),
		}
		total += c.Demand
		in.Customers = append(in.Customers, c)
	}
	for j := 1 + rng.Intn(3); j > 0; j-- {
		in.Antennas = append(in.Antennas, model.Antenna{Rho: 0.5 + 2*rng.Float64(), Capacity: min(total/int64(1+rng.Intn(4)), model.MaxMagnitude)})
	}
	return in.Normalize()
}

// boundInstances returns the differential's instances: every generator
// family and variant, tie-heavy ones around the seam, and ones near the
// numeric domain's limit.
func boundInstances(t *testing.T) []*model.Instance {
	t.Helper()
	var out []*model.Instance
	variants := []model.Variant{model.Sectors, model.Angles, model.DisjointAngles}
	for k := 0; k < 200; k++ {
		cfg := gen.Config{
			Family:  gen.Families()[k%len(gen.Families())],
			Variant: variants[(k/5)%len(variants)],
			Seed:    int64(k),
			N:       20 + (k*7)%100,
			M:       1 + k%5,
		}
		if k%4 == 1 {
			cfg.ProfitSpread = 0.5
		}
		if k%6 == 2 && cfg.Variant == model.Sectors {
			cfg.MinRange = 2
		}
		in, err := gen.Generate(cfg)
		if err != nil {
			t.Fatalf("generate %+v: %v", cfg, err)
		}
		out = append(out, in)
	}
	rng := rand.New(rand.NewSource(14))
	for k := 0; k < 250; k++ {
		out = append(out, tieHeavyInstance(rng))
	}
	for k := 0; k < 100; k++ {
		out = append(out, magnitudeBoundInstance(rng))
	}
	return out
}

// TestUpperBoundMatchesScanReference pins UpperBound (and the greedy's
// warm-engine bound) to the scan-and-sort reference bit for bit, including
// on instances large enough for Prewarm's parallel sweep builds at one
// worker and at eight.
func TestUpperBoundMatchesScanReference(t *testing.T) {
	ins := boundInstances(t)
	for k, in := range ins {
		if err := in.Validate(); err != nil {
			t.Fatalf("instance %d invalid: %v", k, err)
		}
		want := scanUpperBound(in)
		if got := UpperBound(in); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("instance %d (%s): UpperBound %v, scan reference %v", k, in.Name, got, want)
		}
		if k%5 == 0 {
			sol, err := SolveGreedy(context.Background(), in, Options{})
			if err != nil {
				t.Fatalf("instance %d: greedy: %v", k, err)
			}
			if math.Float64bits(sol.UpperBound) != math.Float64bits(want) {
				t.Fatalf("instance %d: greedy bound %v, scan reference %v", k, sol.UpperBound, want)
			}
		}
	}

	// Banded antennas keep the reference cheap while n·m crosses the
	// parallel prewarm gate.
	for seed := int64(1); seed <= 2; seed++ {
		in := gen.MustGenerate(gen.Config{Family: gen.Hotspot, Seed: seed, N: 2100, M: 8, Bands: 8, ProfitSpread: 0.4})
		want := scanUpperBound(in)
		for _, workers := range []int{1, 8} {
			prev := angular.SetMaxWorkers(workers)
			got := UpperBound(in)
			angular.SetMaxWorkers(prev)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("banded seed %d, %d workers: UpperBound %v, scan reference %v", seed, workers, got, want)
			}
		}
	}
}

// BenchmarkUpperBound measures the bound layer on a hotspot instance: cold
// (UpperBound builds and prewarms its own engine) and warm (over the engine
// a greedy solve just used, as the greedy, local-search and session paths
// do).
func BenchmarkUpperBound(b *testing.B) {
	in := gen.MustGenerate(gen.Config{Family: gen.Hotspot, Seed: 1, N: 400, M: 8})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			UpperBound(in)
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := angular.NewEngine(in)
		if _, err := SolveGreedyWarm(context.Background(), in, Options{SkipBound: true}, eng); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			UpperBoundWarm(eng)
		}
	})
}
