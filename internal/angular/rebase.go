package angular

import (
	"math"
	"sort"

	"sectorpack/internal/cols"
	"sectorpack/internal/model"
)

// Rebase retargets the engine at next — the instance produced by applying
// delta d to the engine's current instance (model.ApplyDelta) — while
// preserving every per-antenna sweep the delta provably cannot have
// touched. It returns kept[j] == true iff antenna j's warm sweep (and
// candidate list) survived; dropped or never-built sweeps rebuild lazily
// against next on first use. Rebase is the incremental core of a delta
// session: on localized churn most sweeps survive, so a re-solve skips the
// dominant from-scratch cost of rebuilding them.
//
// Soundness. A sweep's membership is the pure radial predicate
// cols.InRadialRange (sweeps gather exactly the customers whose radius lies
// in the antenna's RadialBounds interval), and its contents are a
// deterministic function of (member geometry, member demand/profit, member
// customer-index order). The delta's "touch radii" are the radii of every
// customer it removes or re-prices (read from the OLD instance) and every
// customer it adds. If no touch radius lies in antenna j's radial interval
// (cols.TouchesRadially), then:
//
//   - no removed, re-priced, or added customer is a member of sweep j, so
//     its member set, thetas, weights, profits, and density order are those
//     a fresh build against next would produce;
//   - removals renumber surviving customers order-preservingly
//     (model.ApplyDelta), so the only stale state is the member customer
//     indices, fixed here by subtracting each id's count of removed
//     predecessors — after which the sweep is bit-identical to a fresh
//     build (the rebase differential test enforces this);
//   - candidate angles derive from sweep thetas only, so they survive too.
//
// Antenna capacity changes never invalidate a sweep: capacity is read from
// the engine's instance at solve time, not stored in sweep state. Antenna
// geometry changes are outside the delta vocabulary; Rebase still compares
// geometry defensively and drops the sweep of any antenna whose shape
// differs. If the antenna count itself differs — next is not a delta of the
// current instance — every sweep is dropped.
func (e *Engine) Rebase(next *model.Instance, d model.Delta) (kept []bool) {
	old := e.in
	m := len(next.Antennas)
	kept = make([]bool, m)
	e.in = next
	if len(old.Antennas) != m {
		e.view = nil
		e.sweeps = make([]*Sweep, m)
		e.cands = make([][]float64, m)
		return kept
	}
	if e.view != nil {
		// The instance-wide columnar view survives every delta: cols.Rebase
		// merges the churned customers into the old sort orders in
		// O(n + k log k), so a dropped sweep's lazy rebuild never pays the
		// O(n log n) from-scratch view sort. The result is bit-identical to
		// cols.New(next) (differential-tested), so sweeps built from it
		// match fresh builds exactly.
		e.view = cols.Rebase(e.view, next, d)
	}
	touch := make([]float64, 0, len(d.SetDemand)+len(d.Remove)+len(d.Add))
	for _, ch := range d.SetDemand {
		touch = append(touch, old.Customers[ch.Customer].R)
	}
	for _, id := range d.Remove {
		touch = append(touch, old.Customers[id].R)
	}
	for _, c := range d.Add {
		touch = append(touch, c.R)
	}
	sort.Float64s(touch)
	// below[id] counts the removed ids under id: a survivor's renumbering.
	var below []int32
	if len(d.Remove) > 0 {
		below = make([]int32, len(old.Customers)+1)
		for _, id := range d.Remove {
			below[id+1] = 1
		}
		for id := 1; id < len(below); id++ {
			below[id] += below[id-1]
		}
	}
	for j := 0; j < m; j++ {
		if e.sweeps[j] == nil {
			continue // never built; nothing to keep
		}
		oa, na := old.Antennas[j], next.Antennas[j]
		// Deliberately bit-level, not tolerance-based: ANY geometry change,
		// however small, changes what a fresh sweep would contain, and the
		// contract here is bit-identity with a fresh build.
		if !bitsEq(oa.Rho, na.Rho) || !bitsEq(oa.Range, na.Range) || !bitsEq(oa.MinRange, na.MinRange) {
			e.sweeps[j], e.cands[j] = nil, nil
			continue
		}
		if cols.TouchesRadially(na, touch) {
			e.sweeps[j], e.cands[j] = nil, nil
			continue
		}
		if below != nil {
			s := e.sweeps[j]
			for t, id := range s.ids {
				// id is not removed (its radius would be a touch radius in
				// this antenna's interval), so below[id] counts exactly the
				// removed customers numbered below it.
				s.ids[t] = id - below[id]
			}
		}
		kept[j] = true
	}
	return kept
}

// bitsEq is bit-level float equality (NaN == NaN, -0 != +0), the explicit
// form of the identity comparison Rebase's sweep-survival proof needs.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
