package angular

import (
	"context"
	"fmt"
	"testing"

	"sectorpack/internal/gen"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// BenchmarkBestWindow measures one pruned best-window search on a warm
// Engine — the unit of work the greedy solver repeats per antenna step.
func BenchmarkBestWindow(b *testing.B) {
	for _, n := range []int{100, 400, 800} {
		in := gen.MustGenerate(gen.Config{
			Family: gen.Uniform, Variant: model.Sectors,
			Seed: 42, N: n, M: 1,
		})
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			eng := NewEngine(in)
			if _, err := eng.BestWindow(context.Background(), 0, nil, knapsack.Options{}); err != nil {
				b.Fatal(err) // warm the sweep outside the timed loop
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.BestWindow(context.Background(), 0, nil, knapsack.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBestWindowCold includes the sweep construction, as paid by a
// one-shot caller that does not reuse an Engine.
func BenchmarkBestWindowCold(b *testing.B) {
	in := gen.MustGenerate(gen.Config{
		Family: gen.Uniform, Variant: model.Sectors,
		Seed: 42, N: 400, M: 1,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(in).BestWindow(context.Background(), 0, nil, knapsack.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
