package knapsack

import "math"

// Fill is the Dantzig fill behind every fractional-knapsack bound in the
// solver: fed items in density order (CompareDensity's order, so
// zero-weight items come first), it takes each item whole while it fits
// and the first one that does not fractionally. It is the one place the
// split item's share is computed, both as the floored integer bound and as
// the LP value.
type Fill struct {
	rem    int64 // capacity left
	profit int64 // profit of the items taken whole
	sp, sw int64 // the split item's profit and weight; sw == 0 until one arrives
}

// NewFill starts a fill of the given capacity.
func NewFill(capacity int64) Fill { return Fill{rem: capacity} }

// Add feeds the next item in density order and reports whether the fill is
// full: once it returns true no later item can change the bound, so the
// caller stops. An item that exactly uses up the room fills it only if it
// has weight, since further zero-weight items may still follow it.
func (f *Fill) Add(p, w int64) bool {
	if w > f.rem {
		f.sp, f.sw = p, w
		return true
	}
	f.profit += p
	f.rem -= w
	return f.rem == 0 && w > 0
}

// Floor returns the bound as an integer: the whole items' profit plus
// floor(p·rem/w) of the split item. A 0/1 optimum is an integer no larger
// than Value, so it is no larger than Floor; integer arithmetic keeps float
// rounding from pulling the bound below it. If p·rem would overflow, the
// share falls back to p, still an upper bound since rem < w.
func (f Fill) Floor() int64 {
	p, rem := f.sp, f.rem
	if p == 0 || rem == 0 {
		return f.profit
	}
	if p > math.MaxInt64/rem {
		return f.profit + p
	}
	return f.profit + p*rem/f.sw
}

// Value returns the fractional (LP) optimum of the items fed so far. While
// the whole items' profit stays within 2^53 (model.MaxMagnitude) it equals,
// bit for bit, the float sum of the items' profits plus the split share.
func (f Fill) Value() float64 {
	v := float64(f.profit)
	if f.sw > 0 {
		v += float64(f.sp) * float64(f.rem) / float64(f.sw)
	}
	return v
}

// FillSorted runs a fill of the given capacity over items already in
// density order.
func FillSorted(sorted []Item, capacity int64) Fill {
	f := NewFill(capacity)
	for _, it := range sorted {
		if f.Add(it.Profit, it.Weight) {
			break
		}
	}
	return f
}
