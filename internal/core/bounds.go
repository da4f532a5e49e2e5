package core

import (
	"context"

	"sectorpack/internal/angular"
	"sectorpack/internal/model"
)

// UpperBound returns a certified upper bound on the optimal profit: the
// minimum of the total profit and the sum over antennas of the best
// fractional-knapsack (Dantzig) value over all candidate orientations.
//
// Validity: an optimal solution serves disjoint customer sets S_j, and each
// S_j is contained in some candidate window of antenna j with total demand
// at most C_j, so profit(S_j) is at most the Dantzig bound of that window;
// summing over j gives the bound. Disjointness constraints only shrink the
// optimum, so the bound also holds for DisjointAngles.
//
// UpperBound builds (and prewarms) one engine; a caller that already holds
// one for the instance should use UpperBoundWarm.
func UpperBound(in *model.Instance) float64 {
	eng := angular.NewEngine(in)
	_ = eng.Prewarm(context.Background()) // an uncancellable context: cannot fail
	return UpperBoundWarm(eng)
}

// UpperBoundWarm is UpperBound over a caller-maintained engine, reusing its
// sweeps; the value is bit-identical to UpperBound on the engine's
// instance.
func UpperBoundWarm(eng *angular.Engine) float64 {
	in := eng.Instance()
	var sum float64
	for j := range in.Antennas {
		sum += eng.DantzigBound(j)
	}
	return min(sum, float64(in.TotalProfit()))
}
