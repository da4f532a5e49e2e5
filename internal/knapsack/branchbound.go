package knapsack

// BranchBound solves 0/1 knapsack exactly by depth-first search over items
// in density order, pruning with the Dantzig fractional bound. Memory is
// O(n); time is worst-case exponential but the bound makes it fast on the
// correlated instances sector packing produces. The maxNodes budget guards
// pathological cases: when exceeded, ok is false and the best solution
// found so far is returned (still feasible, possibly suboptimal).
func BranchBound(items []Item, capacity int64, maxNodes int64) (res Result, ok bool, err error) {
	if err := validate(items, capacity); err != nil {
		return Result{}, false, err
	}
	n := len(items)
	order := byDensity(items)
	// Reorder once so the DFS explores high-density items first and the
	// suffix bound is the Dantzig bound of the remaining items.
	sorted := make([]Item, n)
	for k, i := range order {
		sorted[k] = items[i]
	}
	// suffix bounds: bound[k] = fractional optimum of sorted[k:] with a
	// given remaining capacity is computed on the fly; precompute suffix
	// profit sums for the cheap "take everything" bound.
	suffixProfit := make([]int64, n+1)
	for k := n - 1; k >= 0; k-- {
		suffixProfit[k] = suffixProfit[k+1] + sorted[k].Profit
	}

	best := int64(0)
	bestTake := make([]bool, n) // in sorted order
	curTake := make([]bool, n)
	var nodes int64
	budgetHit := false

	var dfs func(k int, remCap, curProfit int64)
	dfs = func(k int, remCap, curProfit int64) {
		nodes++
		if nodes > maxNodes {
			budgetHit = true
			return
		}
		if curProfit > best {
			best = curProfit
			copy(bestTake, curTake)
		}
		if k == n || budgetHit {
			return
		}
		// cheap bound first, then the floored Dantzig bound: no subset
		// of the suffix beats it, so nothing below can raise best
		if curProfit+suffixProfit[k] <= best {
			return
		}
		if curProfit+FillSorted(sorted[k:], remCap).Floor() <= best {
			return
		}
		if sorted[k].Weight <= remCap {
			curTake[k] = true
			dfs(k+1, remCap-sorted[k].Weight, curProfit+sorted[k].Profit)
			curTake[k] = false
		}
		dfs(k+1, remCap, curProfit)
	}
	dfs(0, capacity, 0)

	res = Result{Profit: best, Take: make([]bool, n)}
	for k, t := range bestTake {
		if t {
			res.Take[order[k]] = true
		}
	}
	return res, !budgetHit, nil
}
