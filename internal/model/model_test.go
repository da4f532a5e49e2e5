package model

import (
	"math"
	"strings"
	"testing"

	"sectorpack/internal/geom"
)

// testInstance builds a small valid instance used across the tests.
func testInstance() *Instance {
	in := &Instance{
		Name:    "test",
		Variant: Sectors,
		Customers: []Customer{
			{Theta: 0.1, R: 1, Demand: 3},
			{Theta: 1.0, R: 2, Demand: 5},
			{Theta: 2.0, R: 6, Demand: 2},
			{Theta: 4.0, R: 1, Demand: 4},
		},
		Antennas: []Antenna{
			{Rho: 1.5, Range: 5, Capacity: 8},
			{Rho: 1.0, Range: 10, Capacity: 4},
		},
	}
	return in.Normalize()
}

func TestNormalizeDefaults(t *testing.T) {
	in := testInstance()
	for i, c := range in.Customers {
		if c.ID != i {
			t.Errorf("customer %d: ID = %d", i, c.ID)
		}
		if c.Profit != c.Demand {
			t.Errorf("customer %d: profit %d should default to demand %d", i, c.Profit, c.Demand)
		}
	}
	for j, a := range in.Antennas {
		if a.ID != j {
			t.Errorf("antenna %d: ID = %d", j, a.ID)
		}
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := testInstance().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mut := []struct {
		name string
		f    func(*Instance)
		want string
	}{
		{"bad theta", func(in *Instance) { in.Customers[0].Theta = 7 }, "theta"},
		{"negative radius", func(in *Instance) { in.Customers[0].R = -1 }, "radius"},
		{"zero demand", func(in *Instance) { in.Customers[0].Demand = 0 }, "demand"},
		{"negative profit", func(in *Instance) { in.Customers[0].Profit = -2 }, "profit"},
		{"bad id", func(in *Instance) { in.Customers[1].ID = 9 }, "ID"},
		{"bad width", func(in *Instance) { in.Antennas[0].Rho = 7 }, "width"},
		{"negative capacity", func(in *Instance) { in.Antennas[0].Capacity = -1 }, "capacity"},
		{"nan range", func(in *Instance) { in.Antennas[0].Range = math.NaN() }, "NaN"},
	}
	for _, m := range mut {
		in := testInstance()
		m.f(in)
		err := in.Validate()
		if err == nil {
			t.Errorf("%s: expected validation error", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %q does not mention %q", m.name, err, m.want)
		}
	}
}

// TestValidateNumericDomain pins the MaxMagnitude edge: totals and
// capacities at exactly 2^53 are accepted, one past it is rejected with a
// message naming the limit, and int64-overflowing inputs cannot wrap the
// running totals back into range.
func TestValidateNumericDomain(t *testing.T) {
	atLimit := func(in *Instance) {
		in.Customers[0].Profit = MaxMagnitude - 5 // the other three sum to 5
		in.Customers[1].Profit, in.Customers[2].Profit, in.Customers[3].Profit = 2, 2, 1
		in.Customers[0].Demand = MaxMagnitude - 11 // other demands sum to 11
		in.Antennas[0].Capacity = MaxMagnitude
	}
	in := testInstance()
	atLimit(in)
	if err := in.Validate(); err != nil {
		t.Fatalf("instance at exactly 2^53 rejected: %v", err)
	}
	mut := []struct {
		name string
		f    func(*Instance)
		want string
	}{
		{"total profit", func(in *Instance) { in.Customers[3].Profit++ }, "total customer profit"},
		{"total demand", func(in *Instance) { in.Customers[3].Demand++ }, "total customer demand"},
		{"capacity", func(in *Instance) { in.Antennas[1].Capacity = MaxMagnitude + 1 }, "antenna 1: capacity"},
		{"wrapping profits", func(in *Instance) {
			in.Customers[0].Profit, in.Customers[1].Profit = math.MaxInt64, math.MaxInt64
		}, "total customer profit"},
	}
	for _, m := range mut {
		in := testInstance()
		atLimit(in)
		m.f(in)
		err := in.Validate()
		if err == nil || !strings.Contains(err.Error(), m.want) || !strings.Contains(err.Error(), "MaxMagnitude = 2^53") {
			t.Errorf("%s: err = %v, want %q naming the 2^53 limit", m.name, err, m.want)
		}
	}
}

func TestValidateVariantConstraints(t *testing.T) {
	in := testInstance()
	in.Variant = Angles
	if err := in.Validate(); err == nil {
		t.Error("Angles variant with bounded ranges should be rejected")
	}
	for j := range in.Antennas {
		in.Antennas[j].Range = 0 // unbounded encoding
	}
	if err := in.Validate(); err != nil {
		t.Errorf("Angles variant with unbounded ranges rejected: %v", err)
	}
	in.Variant = DisjointAngles
	in.Antennas[0].Rho = 4
	in.Antennas[1].Rho = 3 // total 7 > 2π
	if err := in.Validate(); err == nil {
		t.Error("DisjointAngles with total width > 2π should be rejected")
	}
}

func TestAggregates(t *testing.T) {
	in := testInstance()
	if got := in.TotalDemand(); got != 14 {
		t.Errorf("TotalDemand = %d, want 14", got)
	}
	if got := in.TotalProfit(); got != 14 {
		t.Errorf("TotalProfit = %d, want 14", got)
	}
	if got := in.TotalCapacity(); got != 12 {
		t.Errorf("TotalCapacity = %d, want 12", got)
	}
	if got := in.Tightness(); math.Abs(got-14.0/12.0) > 1e-12 {
		t.Errorf("Tightness = %v", got)
	}
	in.Antennas = nil
	if !math.IsInf(in.Tightness(), 1) {
		t.Error("Tightness with zero capacity should be +Inf")
	}
}

func TestUnitDemand(t *testing.T) {
	in := testInstance()
	if in.UnitDemand() {
		t.Error("mixed demands are not unit")
	}
	for i := range in.Customers {
		in.Customers[i].Demand = 2
		in.Customers[i].Profit = 2
	}
	if !in.UnitDemand() {
		t.Error("uniform demands are unit")
	}
	empty := &Instance{}
	if !empty.UnitDemand() {
		t.Error("empty instance is vacuously unit")
	}
}

func TestAntennaCoverage(t *testing.T) {
	a := Antenna{Rho: 1, Range: 5, Capacity: 10}
	c := Customer{Theta: 0.5, R: 3, Demand: 1}
	if !a.Covers(0, c) {
		t.Error("antenna at 0 should cover θ=0.5")
	}
	if a.Covers(2, c) {
		t.Error("antenna at 2 should not cover θ=0.5")
	}
	far := Customer{Theta: 0.5, R: 6, Demand: 1}
	if a.Covers(0, far) {
		t.Error("customer beyond range should not be covered")
	}
	if !a.InRange(c) || a.InRange(far) {
		t.Error("InRange disagrees with radial reach")
	}
	ub := Antenna{Rho: 1, Range: 0, Capacity: 10}
	if !ub.Unbounded() || !ub.InRange(far) {
		t.Error("range<=0 encodes unbounded")
	}
	if !math.IsInf(ub.EffRange(), 1) {
		t.Error("EffRange of unbounded antenna should be +Inf")
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := testInstance()
	cp := in.Clone()
	cp.Customers[0].Demand = 99
	cp.Antennas[0].Capacity = 99
	if in.Customers[0].Demand == 99 || in.Antennas[0].Capacity == 99 {
		t.Error("Clone must not share backing arrays")
	}
}

func TestVariantString(t *testing.T) {
	for _, v := range []Variant{Sectors, Angles, DisjointAngles, Variant(9)} {
		if v.String() == "" {
			t.Errorf("Variant(%d).String() empty", int(v))
		}
	}
}

func TestCustomerPos(t *testing.T) {
	c := Customer{Theta: 1.25, R: 4}
	p := c.Pos()
	//sectorlint:ignore floateq Pos copies the exact literals the customer was built with
	if p.Theta != 1.25 || p.R != 4 {
		t.Errorf("Pos = %v", p)
	}
	_ = geom.Polar(p) // Pos returns the geom type directly
}
