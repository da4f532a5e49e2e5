// Package knapsack implements the 0/1 knapsack solvers that sector packing
// reduces to: once an antenna's orientation is fixed, choosing which covered
// customers to serve subject to the antenna's capacity is exactly 0/1
// knapsack with weights = demands and profits = customer profits.
//
// The package offers the full classical toolbox:
//
//   - DPByWeight: exact O(n·C) dynamic program (pseudo-polynomial in the
//     capacity), the method of choice when capacities are small integers.
//   - DPByProfit: exact O(n·P) dynamic program over total profit, the basis
//     of the FPTAS.
//   - FPTAS: (1−ε)-approximation in O(n³/ε) by profit scaling.
//   - Greedy: the density greedy with the best-single-item fallback, a
//     1/2-approximation in O(n log n).
//   - BranchBound: exact depth-first search with the Dantzig fractional
//     upper bound; fast in practice for n up to a few hundred.
//   - MeetInMiddle: exact O(2^{n/2}) enumeration for tiny n, used as an
//     independent cross-check in tests.
//   - Solve: a dispatcher that picks an exact method when affordable and
//     falls back to the FPTAS.
//
// All solvers return the chosen subset aligned with the input order, so
// callers can map selections back to customers without bookkeeping.
package knapsack

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Item is one knapsack item.
type Item struct {
	Weight int64 // capacity consumed (customer demand); must be >= 0
	Profit int64 // objective contribution; must be >= 0
}

// Result is a solved knapsack: the total profit and the chosen subset in
// input order.
type Result struct {
	Profit int64
	Take   []bool
}

// Weight returns the total weight of the chosen subset.
func (r Result) Weight(items []Item) int64 {
	var w int64
	for i, t := range r.Take {
		if t {
			w += items[i].Weight
		}
	}
	return w
}

// Count returns the number of chosen items.
func (r Result) Count() int {
	n := 0
	for _, t := range r.Take {
		if t {
			n++
		}
	}
	return n
}

// validate rejects negative weights/profits and a negative capacity, which
// would silently corrupt every DP below.
func validate(items []Item, capacity int64) error {
	if capacity < 0 {
		return fmt.Errorf("knapsack: negative capacity %d", capacity)
	}
	for i, it := range items {
		if it.Weight < 0 {
			return fmt.Errorf("knapsack: item %d has negative weight %d", i, it.Weight)
		}
		if it.Profit < 0 {
			return fmt.Errorf("knapsack: item %d has negative profit %d", i, it.Profit)
		}
	}
	return nil
}

// totalProfit sums profits of all items.
func totalProfit(items []Item) int64 {
	var s int64
	for _, it := range items {
		s += it.Profit
	}
	return s
}

// CompareDensity orders two items by profit density, densest first: it
// returns −1 when pa/wa > pb/wb, +1 when pa/wa < pb/wb, and 0 when the
// densities are equal. A zero-weight item has infinite density and sorts
// before every weighted one; two zero-weight items compare equal. The cross
// products pa·wb and pb·wa are compared exactly in 128 bits, so the order is
// right for every pair of non-negative int64 values (an int64 product wraps
// once both factors pass 2^31.5, which silently reorders items). Every
// density order in the solver goes through this function; callers add
// their own tie-break.
func CompareDensity(pa, wa, pb, wb int64) int {
	if wa == 0 || wb == 0 {
		// Zero weight first: a lone zero is the smaller weight.
		return cmp.Compare(wa, wb)
	}
	hiA, loA := bits.Mul64(uint64(pa), uint64(wb))
	hiB, loB := bits.Mul64(uint64(pb), uint64(wa))
	if c := cmp.Compare(hiB, hiA); c != 0 {
		return c
	}
	return cmp.Compare(loB, loA)
}

// byDensity returns item indices sorted by profit density (profit/weight)
// descending, with zero-weight items (infinite density) first and ties
// broken by higher profit, then input order. The ordering is shared by
// Greedy and the Dantzig bound so their analyses line up.
func byDensity(items []Item) []int {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		ia, ib := items[a], items[b]
		if c := CompareDensity(ia.Profit, ia.Weight, ib.Profit, ib.Weight); c != 0 {
			return c
		}
		return cmp.Compare(ib.Profit, ia.Profit)
	})
	return idx
}
