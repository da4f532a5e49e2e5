// Package cols provides the columnar (struct-of-arrays) read-only view of
// a problem instance that the angular hot path runs on.
//
// A View lays the customer fields out as parallel columns sorted by angle
// once per instance, so every per-antenna sweep gathers its in-range subset
// with a sequential pass over flat arrays instead of re-sorting and
// pointer-chasing []model.Customer structs per antenna. On top of the
// angular order it carries a radius-sorted permutation — the spatial radial
// pre-filter: an antenna's eligible customers occupy one contiguous run of
// that index (eligibility is a closed radius interval, model.RadialBounds),
// so selective antennas locate their candidates with two binary searches
// plus an O(k log k) position sort instead of scanning all n customers.
//
// A View is immutable after New and safe for concurrent readers; the
// parallel sweep builders in internal/angular share one View across
// GOMAXPROCS workers.
package cols

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"sectorpack/internal/model"
)

// View is the columnar instance core. Position p (0 ≤ p < Len) describes
// the p-th customer in ascending-angle order; ID[p] maps the position back
// to the customer's index in Instance.Customers. Angle ties keep ascending
// customer-index order (the sort key is the (angle, index) pair),
// so the layout is a deterministic function of the instance.
type View struct {
	Theta  []float64 // ascending angles
	R      []float64 // radius per position
	Demand []int64   // demand per position
	Profit []int64   // profit per position
	ID     []int32   // customer index per position

	// Radial pre-filter index: byR lists positions in ascending-radius
	// order (ties by position), sortedR the radii in that order for
	// binary searching.
	byR     []int32
	sortedR []float64
}

// New builds the view: one O(n log n) angular sort and one O(n log n)
// radial sort per instance, amortized over every antenna's sweep.
func New(in *model.Instance) *View {
	n := len(in.Customers)
	v := &View{
		Theta:   make([]float64, n),
		R:       make([]float64, n),
		Demand:  make([]int64, n),
		Profit:  make([]int64, n),
		ID:      make([]int32, n),
		byR:     make([]int32, n),
		sortedR: make([]float64, n),
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, thetaIDCmp(in))
	for p, i := range perm {
		c := &in.Customers[i]
		v.Theta[p] = c.Theta
		v.R[p] = c.R
		v.Demand[p] = c.Demand
		v.Profit[p] = c.Profit
		v.ID[p] = i
	}
	for p := range v.byR {
		v.byR[p] = int32(p)
	}
	slices.SortFunc(v.byR, v.radposCmp)
	for k, p := range v.byR {
		v.sortedR[k] = v.R[p]
	}
	return v
}

// Len returns the number of customers in the view.
func (v *View) Len() int { return len(v.Theta) }

// Rebase builds the view of next — the instance model.ApplyDelta produced
// by applying d to old's instance — in O(n + k log k) for k churned
// customers, reusing old's two sort orders instead of re-sorting all n
// customers. The result is identical to New(next); a differential test
// enforces this bit for bit.
//
// The construction leans on model.ApplyDelta's layout contract:
//
//   - survivors keep their relative order and are renumbered down by the
//     count of removed ids below them, so filtering old's angular order and
//     remapping ids yields the survivors already sorted by (theta, new id);
//   - added customers occupy ids nSurv..n-1, above every survivor id, so
//     sorting just the k additions and merging (survivor first on theta
//     ties) reproduces New's (theta, id) order;
//   - the radial order is rebuilt the same way: survivors filtered from
//     old's byR stay sorted by (radius, position) because the merge
//     preserves their relative positions, and the k additions are sorted
//     and merged in.
//
// A survivor's theta and radius never change, nor do its demand and profit
// unless d re-prices it, so survivors' columns are copied from old in
// sequence and only added and re-priced customers are read from next. Old
// is not modified.
func Rebase(old *View, next *model.Instance, d model.Delta) *View {
	n := len(next.Customers)
	added := len(d.Add)
	nSurv := n - added
	oldN := old.Len()

	// newID[id] is old id's number in next (removals shift the ids above
	// them down), −1 if removed.
	newID := make([]int32, oldN)
	for _, id := range d.Remove {
		newID[id] = -1
	}
	cum := int32(0)
	for id := range newID {
		if newID[id] < 0 {
			cum++
		} else {
			newID[id] = int32(id) - cum
		}
	}
	repriced := make([]bool, oldN)
	for _, ch := range d.SetDemand {
		repriced[ch.Customer] = true
	}

	v := &View{
		Theta:   make([]float64, n),
		R:       make([]float64, n),
		Demand:  make([]int64, n),
		Profit:  make([]int64, n),
		ID:      make([]int32, n),
		byR:     make([]int32, n),
		sortedR: make([]float64, n),
	}

	// Angular order: survivors (walked in old's order, ids remapped) merged
	// with the sorted additions; on theta ties the survivor goes first,
	// which is (theta, id) order since every added id exceeds every
	// survivor id. newPos maps each old position to its new one (−1 if
	// removed), addR each added id's.
	addIDs := make([]int32, added)
	for i := range addIDs {
		addIDs[i] = int32(nSurv + i)
	}
	slices.SortFunc(addIDs, thetaIDCmp(next))
	newPos := make([]int32, oldN)
	addR := make([]int32, added)
	var patch []int32 // new positions of re-priced survivors
	addTheta := func(j int) float64 {
		if j == added {
			return math.Inf(1)
		}
		return next.Customers[addIDs[j]].Theta
	}
	// Survivors' columns move in runs that no removal or arrival splits:
	// run is the current one, copied when it ends.
	var run struct{ op, p, len int }
	flush := func() {
		src, dst := run.op, run.p
		copy(v.Theta[dst:dst+run.len], old.Theta[src:src+run.len])
		copy(v.R[dst:dst+run.len], old.R[src:src+run.len])
		copy(v.Demand[dst:dst+run.len], old.Demand[src:src+run.len])
		copy(v.Profit[dst:dst+run.len], old.Profit[src:src+run.len])
	}
	op, j, nextTheta := 0, 0, addTheta(0)
	for p := 0; p < n; p++ {
		took := false
		for op < oldN {
			oid := old.ID[op]
			nid := newID[oid]
			if nid < 0 {
				newPos[op] = -1
				op++
				continue
			}
			if old.Theta[op] <= nextTheta {
				v.ID[p] = nid
				if repriced[oid] {
					patch = append(patch, int32(p))
				}
				newPos[op] = int32(p)
				if op == run.op+run.len && p == run.p+run.len {
					run.len++
				} else {
					flush()
					run.op, run.p, run.len = op, p, 1
				}
				op++
				took = true
			}
			break
		}
		if took {
			continue
		}
		c := &next.Customers[addIDs[j]]
		v.ID[p] = addIDs[j]
		v.Theta[p], v.R[p], v.Demand[p], v.Profit[p] = c.Theta, c.R, c.Demand, c.Profit
		addR[addIDs[j]-int32(nSurv)] = int32(p)
		j++
		nextTheta = addTheta(j)
	}
	flush()
	for ; op < oldN; op++ {
		newPos[op] = -1
	}
	for _, p := range patch {
		c := &next.Customers[v.ID[p]]
		v.Demand[p], v.Profit[p] = c.Demand, c.Profit
	}

	// Radial order: the same merge on (radius, position), walking old.byR
	// and skipping removed survivors. Survivor radii are untouched by any
	// delta, and the merge above preserves survivors' relative positions,
	// so mapping old.byR through newPos keeps it sorted.
	slices.SortFunc(addR, v.radposCmp)
	k := 0
	j = 0
	for p := 0; p < n; p++ {
		sp := int32(-1)
		for ; k < oldN; k++ {
			if sp = newPos[old.byR[k]]; sp >= 0 {
				break
			}
		}
		if k < oldN {
			r := old.sortedR[k]
			if j == added || radposLess(r, sp, v.R[addR[j]], addR[j]) {
				v.byR[p], v.sortedR[p] = sp, r
				k++
				continue
			}
		}
		q := addR[j]
		v.byR[p], v.sortedR[p] = q, v.R[q]
		j++
	}
	return v
}

// radposLess is the (radius, position) lexicographic order of the byR
// index, written with < only: equal radii fall through both comparisons to
// the position tie-break, so no exact float equality is needed.
func radposLess(ra float64, pa int32, rb float64, pb int32) bool {
	if ra < rb {
		return true
	}
	if rb < ra {
		return false
	}
	return pa < pb
}

// radposCmp orders positions p, q of v by (radius, position), the byR
// order, as a slices.SortFunc comparator.
func (v *View) radposCmp(p, q int32) int {
	switch {
	case radposLess(v.R[p], p, v.R[q], q):
		return -1
	case radposLess(v.R[q], q, v.R[p], p):
		return 1
	}
	return 0
}

// thetaIDCmp orders customer ids of in by (angle, id), the View's angular
// order, as a slices.SortFunc comparator.
func thetaIDCmp(in *model.Instance) func(a, b int32) int {
	return func(a, b int32) int {
		ta, tb := in.Customers[a].Theta, in.Customers[b].Theta
		switch {
		case ta < tb:
			return -1
		case tb < ta:
			return 1
		}
		return cmp.Compare(a, b)
	}
}

// RadialRun returns the half-open run [lo, hi) of the radius-sorted index
// holding exactly the customers the antenna can reach. Exposed for the
// boundary tests and for callers that only need the eligible count.
func (v *View) RadialRun(a model.Antenna) (lo, hi int) {
	loR, hiR := a.RadialBounds()
	n := len(v.sortedR)
	lo = sort.Search(n, func(i int) bool { return v.sortedR[i] >= loR })
	hi = sort.Search(n, func(i int) bool { return v.sortedR[i] > hiR })
	return lo, hi
}

// AppendEligible appends to out the positions (ascending) of every customer
// the antenna can radially reach, and returns the extended slice. Two paths
// produce the identical set — eligibility is the pure radius predicate
// model.Antenna.InRange, which both express through RadialBounds:
//
//   - pre-filter: when the eligible count k is small relative to n, the
//     positions are read off the radius-sorted run and sorted back into
//     angular order, O(log n + k log k);
//   - scan: otherwise a single sequential pass over the radius column,
//     O(n) with no sort (positions come out already ordered).
//
// The path choice therefore never affects results, only cost.
func (v *View) AppendEligible(a model.Antenna, out []int32) []int32 {
	n := len(v.R)
	if n == 0 {
		return out
	}
	rlo, rhi := v.RadialRun(a)
	k := rhi - rlo
	if k == 0 {
		return out
	}
	if prefilterWins(k, n) {
		base := len(out)
		out = append(out, v.byR[rlo:rhi]...)
		seg := out[base:]
		slices.Sort(seg)
		return out
	}
	loR, hiR := a.RadialBounds()
	for p := 0; p < n; p++ {
		if r := v.R[p]; loR <= r && r <= hiR {
			out = append(out, int32(p))
		}
	}
	return out
}

// InRadialRange reports whether radius r lies in the antenna's closed
// radial eligibility interval — the per-customer form of the pre-filter
// predicate RadialRun binary-searches. For any customer c with a non-NaN
// radius, InRadialRange(a, c.R) == a.InRange(c) (RadialBounds' documented
// contract). The delta-session invalidation logic and the online admission
// path use this as the single source of truth for "can this antenna reach
// this radius".
func InRadialRange(a model.Antenna, r float64) bool {
	lo, hi := a.RadialBounds()
	return lo <= r && r <= hi
}

// TouchesRadially reports whether any of the radii (which must be sorted
// ascending) falls inside the antenna's radial eligibility interval. This
// is the pre-filter applied to a delta's touched radii instead of an
// instance's customers: a warm per-antenna sweep survives a delta iff
// TouchesRadially(antenna, delta radii) is false, because sweep membership
// is exactly the radial predicate above.
func TouchesRadially(a model.Antenna, sortedR []float64) bool {
	lo, hi := a.RadialBounds()
	i := sort.SearchFloat64s(sortedR, lo)
	return i < len(sortedR) && sortedR[i] <= hi
}

// prefilterWins decides whether the binary-search path (k log₂ k work) is
// cheaper than the full scan (n work), with a bias toward the scan near the
// break-even point since its sequential pass is friendlier to the cache.
func prefilterWins(k, n int) bool {
	bits := 0
	for v := k; v > 0; v >>= 1 {
		bits++
	}
	return k*bits*2 < n
}
