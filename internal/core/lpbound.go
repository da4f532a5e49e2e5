package core

import (
	"fmt"

	"sectorpack/internal/angular"
	"sectorpack/internal/lp"
	"sectorpack/internal/model"
)

// MaxConfigLPVars caps the configuration LP size; beyond it the bound
// refuses rather than grinding the dense simplex.
const MaxConfigLPVars = 20_000

// ConfigLPBound returns the orientation-relaxed configuration-LP upper
// bound on the optimal profit — strictly tighter than UpperBound on
// instances where antennas compete for the same customers.
//
// Formulation: for each antenna j and candidate orientation α, a variable
// x_{jα} ∈ [0,1] ("how much of j points at α"); for each coverable triple
// (i, j, α), a variable y_{ijα} ≥ 0 ("how much of customer i antenna j
// serves at α"). Constraints: Σ_α x_{jα} ≤ 1 per antenna, Σ y_{ijα} ≤ 1
// per customer, and Σ_i d_i·y_{ijα} ≤ C_j·x_{jα} per (j, α). Maximize
// Σ p_i·y_{ijα}. Every integral solution embeds (x = the chosen
// orientations, y = the assignment), so the LP value dominates OPT; the
// LP may split antennas across orientations fractionally, which is the
// relaxation. (The y ≤ x coupling rows are deliberately dropped: that
// only loosens the bound slightly and keeps the tableau small.)
func ConfigLPBound(in *model.Instance) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, fmt.Errorf("core: ConfigLPBound: %w", err)
	}
	n, m := in.N(), in.M()
	if n == 0 || m == 0 {
		return 0, nil
	}
	type orient struct {
		j     int
		alpha float64
		xVar  int
	}
	var orients []orient
	type triple struct {
		i, oIdx int // customer, orientation index into orients
		yVar    int
	}
	var triples []triple

	eng := angular.NewEngine(in)
	nextVar := 0
	for j := 0; j < m; j++ {
		for _, alpha := range eng.Candidates(j) {
			orients = append(orients, orient{j: j, alpha: alpha, xVar: nextVar})
			nextVar++
		}
	}
	for oIdx, o := range orients {
		for i, c := range in.Customers {
			if in.Antennas[o.j].Covers(o.alpha, c) {
				triples = append(triples, triple{i: i, oIdx: oIdx, yVar: nextVar})
				nextVar++
			}
		}
	}
	if nextVar > MaxConfigLPVars {
		return 0, fmt.Errorf("core: ConfigLPBound: %d variables exceeds cap %d", nextVar, MaxConfigLPVars)
	}

	c := make([]float64, nextVar)
	for _, t := range triples {
		c[t.yVar] = float64(in.Customers[t.i].Profit)
	}
	var a [][]float64
	var b []float64
	row := func() []float64 { return make([]float64, nextVar) }

	// Σ_α x_{jα} ≤ 1 per antenna.
	perAntenna := make([][]float64, m)
	for j := range perAntenna {
		perAntenna[j] = row()
	}
	for _, o := range orients {
		perAntenna[o.j][o.xVar] = 1
	}
	for j := 0; j < m; j++ {
		a = append(a, perAntenna[j])
		b = append(b, 1)
	}
	// Σ y ≤ 1 per customer.
	perCustomer := make([][]float64, n)
	for i := range perCustomer {
		perCustomer[i] = row()
	}
	for _, t := range triples {
		perCustomer[t.i][t.yVar] = 1
	}
	for i := 0; i < n; i++ {
		a = append(a, perCustomer[i])
		b = append(b, 1)
	}
	// Σ_i d_i y_{ijα} − C_j x_{jα} ≤ 0 per orientation.
	perOrient := make([][]float64, len(orients))
	for oIdx := range perOrient {
		perOrient[oIdx] = row()
		perOrient[oIdx][orients[oIdx].xVar] = -float64(in.Antennas[orients[oIdx].j].Capacity)
	}
	for _, t := range triples {
		perOrient[t.oIdx][t.yVar] = float64(in.Customers[t.i].Demand)
	}
	for oIdx := range orients {
		a = append(a, perOrient[oIdx])
		b = append(b, 0)
	}

	sol, err := lp.Maximize(c, a, b)
	if err != nil {
		return 0, fmt.Errorf("core: ConfigLPBound: %w", err)
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("core: ConfigLPBound: LP %v", sol.Status)
	}
	// The simple bound still applies; return the tighter of the two.
	if simple := UpperBoundWarm(eng); simple < sol.Value {
		return simple, nil
	}
	return sol.Value, nil
}
