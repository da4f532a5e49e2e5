package knapsack

// Greedy is the classical density greedy with the best-single-item
// fallback: fill by profit/weight density, then return the better of the
// greedy fill and the single most profitable item that fits. This is a
// 1/2-approximation (the two candidates together dominate the fractional
// optimum) and runs in O(n log n).
func Greedy(items []Item, capacity int64) (Result, error) {
	if err := validate(items, capacity); err != nil {
		return Result{}, err
	}
	n := len(items)
	fill := Result{Take: make([]bool, n)}
	remaining := capacity
	for _, i := range byDensity(items) {
		if items[i].Weight <= remaining {
			fill.Take[i] = true
			fill.Profit += items[i].Profit
			remaining -= items[i].Weight
		}
	}
	// best single item that fits
	bestIdx, bestProfit := -1, int64(-1)
	for i, it := range items {
		if it.Weight <= capacity && it.Profit > bestProfit {
			bestIdx, bestProfit = i, it.Profit
		}
	}
	if bestIdx >= 0 && bestProfit > fill.Profit {
		single := Result{Profit: bestProfit, Take: make([]bool, n)}
		single.Take[bestIdx] = true
		return single, nil
	}
	return fill, nil
}

// FractionalBound returns the Dantzig LP relaxation optimum: fill by
// density and take the breaking item fractionally. It upper-bounds the
// integral optimum.
func FractionalBound(items []Item, capacity int64) float64 {
	f := NewFill(capacity)
	for _, i := range byDensity(items) {
		if f.Add(items[i].Profit, items[i].Weight) {
			break
		}
	}
	return f.Value()
}
