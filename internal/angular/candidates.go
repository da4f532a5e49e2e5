// Package angular implements the angular-combinatorics core of sector
// packing: candidate-orientation enumeration, best-single-window search,
// and an exact dynamic program for the disjoint-sectors variant.
//
// Everything rests on the candidate-orientation lemma: rotating a sector
// clockwise (increasing its start angle α) never loses a covered customer
// until α passes some covered customer's angle, so there is always an
// optimal solution in which every sector's start angle coincides with a
// customer angle — except in the disjoint variant, where a sector may
// instead be packed flush against its predecessor, forming "chains"
// anchored at a customer angle (see SolveDisjoint).
package angular

import (
	"context"

	"sectorpack/internal/geom"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
)

// CandidatesAll returns every antenna's candidate start angles — the
// angles of the customers radially within its reach, deduplicated within
// geom.Eps and sorted ascending, which by the candidate-orientation lemma
// suffice for optimality in the Sectors and Angles variants. It prewarms
// one Engine (one columnar sort, per-antenna sweeps built in parallel on
// large instances) and returns Engine.Candidates for each antenna, so the
// output is identical on one worker or many.
//
// Cancellation: a cancelled call returns ctx.Err() and no slices.
func CandidatesAll(ctx context.Context, in *model.Instance) ([][]float64, error) {
	e := NewEngine(in)
	if err := e.Prewarm(ctx); err != nil {
		return nil, err
	}
	out := make([][]float64, len(in.Antennas))
	for j := range out {
		out[j] = e.Candidates(j)
	}
	return out, nil
}

// dedupAngles removes duplicates (within geom.Eps) from a sorted slice.
func dedupAngles(sorted []float64) []float64 {
	if len(sorted) == 0 {
		return sorted
	}
	out := sorted[:1]
	for _, a := range sorted[1:] {
		if a-out[len(out)-1] > geom.Eps {
			out = append(out, a)
		}
	}
	return out
}

// Covered returns the indices of customers covered by the antenna when
// oriented at alpha, skipping customers for which active[i] is false
// (active == nil means all customers are active).
func Covered(in *model.Instance, antenna int, alpha float64, active []bool) []int {
	a := in.Antennas[antenna]
	var out []int
	for i, c := range in.Customers {
		if active != nil && !active[i] {
			continue
		}
		if a.Covers(alpha, c) {
			out = append(out, i)
		}
	}
	return out
}

// WindowItems converts the covered customers of an oriented antenna into
// knapsack items, returning the items and the parallel customer indices.
func WindowItems(in *model.Instance, antenna int, alpha float64, active []bool) ([]knapsack.Item, []int) {
	ids := Covered(in, antenna, alpha, active)
	items := make([]knapsack.Item, len(ids))
	for k, i := range ids {
		items[k] = knapsack.Item{Weight: in.Customers[i].Demand, Profit: in.Customers[i].Profit}
	}
	return items, ids
}
