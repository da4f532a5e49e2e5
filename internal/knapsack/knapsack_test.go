package knapsack

import (
	"math/rand"
	"testing"
)

// bruteForce is the trusted oracle: full 2^n enumeration for n <= 20.
func bruteForce(items []Item, capacity int64) int64 {
	n := len(items)
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		var w, p int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w += items[i].Weight
				p += items[i].Profit
			}
		}
		if w <= capacity && p > best {
			best = p
		}
	}
	return best
}

func randomItems(rng *rand.Rand, n int, maxW, maxP int64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Weight: 1 + rng.Int63n(maxW), Profit: 1 + rng.Int63n(maxP)}
	}
	return items
}

// checkResult verifies internal consistency: reported profit matches the
// subset, and the subset respects the capacity.
func checkResult(t *testing.T, items []Item, capacity int64, res Result, label string) {
	t.Helper()
	if len(res.Take) != len(items) {
		t.Fatalf("%s: Take length %d != %d items", label, len(res.Take), len(items))
	}
	var w, p int64
	for i, take := range res.Take {
		if take {
			w += items[i].Weight
			p += items[i].Profit
		}
	}
	if p != res.Profit {
		t.Fatalf("%s: reported profit %d != subset profit %d", label, res.Profit, p)
	}
	if w > capacity {
		t.Fatalf("%s: subset weight %d exceeds capacity %d", label, w, capacity)
	}
}

func TestExactSolversAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		items := randomItems(rng, n, 20, 30)
		capacity := rng.Int63n(80)
		want := bruteForce(items, capacity)

		dw, err := DPByWeight(items, capacity)
		if err != nil {
			t.Fatalf("DPByWeight: %v", err)
		}
		checkResult(t, items, capacity, dw, "DPByWeight")
		if dw.Profit != want {
			t.Fatalf("DPByWeight = %d, want %d (items=%v cap=%d)", dw.Profit, want, items, capacity)
		}

		dp, err := DPByProfit(items, capacity)
		if err != nil {
			t.Fatalf("DPByProfit: %v", err)
		}
		checkResult(t, items, capacity, dp, "DPByProfit")
		if dp.Profit != want {
			t.Fatalf("DPByProfit = %d, want %d", dp.Profit, want)
		}

		bb, ok, err := BranchBound(items, capacity, DefaultMaxBBNodes)
		if err != nil || !ok {
			t.Fatalf("BranchBound: ok=%v err=%v", ok, err)
		}
		checkResult(t, items, capacity, bb, "BranchBound")
		if bb.Profit != want {
			t.Fatalf("BranchBound = %d, want %d", bb.Profit, want)
		}

		mm, err := MeetInMiddle(items, capacity)
		if err != nil {
			t.Fatalf("MeetInMiddle: %v", err)
		}
		checkResult(t, items, capacity, mm, "MeetInMiddle")
		if mm.Profit != want {
			t.Fatalf("MeetInMiddle = %d, want %d", mm.Profit, want)
		}
	}
}

func TestExactSolversAgreeOnLargerInstances(t *testing.T) {
	// Beyond brute-force reach: cross-check the independent exact methods
	// against each other.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(16)
		items := randomItems(rng, n, 50, 60)
		capacity := rng.Int63n(400) + 50

		dw, err := DPByWeight(items, capacity)
		if err != nil {
			t.Fatalf("DPByWeight: %v", err)
		}
		bb, ok, err := BranchBound(items, capacity, 50_000_000)
		if err != nil || !ok {
			t.Fatalf("BranchBound: ok=%v err=%v", ok, err)
		}
		mm, err := MeetInMiddle(items, capacity)
		if err != nil {
			t.Fatalf("MeetInMiddle: %v", err)
		}
		if dw.Profit != bb.Profit || dw.Profit != mm.Profit {
			t.Fatalf("exact solvers disagree: DP=%d BB=%d MiM=%d", dw.Profit, bb.Profit, mm.Profit)
		}
	}
}

func TestGreedyHalfApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(14)
		items := randomItems(rng, n, 25, 40)
		capacity := rng.Int63n(100)
		want := bruteForce(items, capacity)
		g, err := Greedy(items, capacity)
		if err != nil {
			t.Fatalf("Greedy: %v", err)
		}
		checkResult(t, items, capacity, g, "Greedy")
		if 2*g.Profit < want {
			t.Fatalf("Greedy %d < OPT/2 (OPT=%d): items=%v cap=%d", g.Profit, want, items, capacity)
		}
	}
}

func TestFPTASGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, eps := range []float64{0.5, 0.2, 0.05} {
		for trial := 0; trial < 100; trial++ {
			n := 1 + rng.Intn(13)
			items := randomItems(rng, n, 30, 1000)
			capacity := rng.Int63n(150)
			want := bruteForce(items, capacity)
			res, err := FPTAS(items, capacity, eps)
			if err != nil {
				t.Fatalf("FPTAS: %v", err)
			}
			checkResult(t, items, capacity, res, "FPTAS")
			if float64(res.Profit) < (1-eps)*float64(want)-1e-9 {
				t.Fatalf("FPTAS(%v) = %d < (1-eps)·OPT (OPT=%d)", eps, res.Profit, want)
			}
		}
	}
}

func TestFractionalBoundDominatesOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		items := randomItems(rng, n, 20, 30)
		capacity := rng.Int63n(80)
		want := bruteForce(items, capacity)
		if b := FractionalBound(items, capacity); b < float64(want)-1e-9 {
			t.Fatalf("FractionalBound %v < OPT %d", b, want)
		}
	}
	// Zero-weight items, which must all be counted however the fill
	// splits, and capacity 0.
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		items := randomItems(rng, n, 20, 30)
		for i := range items {
			if rng.Intn(3) == 0 {
				items[i].Weight = 0
			}
		}
		capacity := rng.Int63n(80)
		if trial%3 == 0 {
			capacity = 0
		}
		want := bruteForce(items, capacity)
		if b := FractionalBound(items, capacity); b < float64(want) {
			t.Fatalf("trial %d: FractionalBound %v < OPT %d (items %v, capacity %d)", trial, b, want, items, capacity)
		}
	}
}

// TestFill pins the fill's arithmetic: whole items, the floored split share
// (exact and inexact division, the overflow fallback), zero-weight items
// taken before a split, and Floor never above Value nor a whole unit below.
func TestFill(t *testing.T) {
	cases := []struct {
		name     string
		items    []Item // in density order
		capacity int64
		floor    int64
		value    float64
	}{
		{"split floors", []Item{{Weight: 4, Profit: 10}}, 3, 7, 7.5},
		{"exact fit", []Item{{Weight: 4, Profit: 10}}, 4, 10, 10},
		{"exact division", []Item{{Weight: 1, Profit: 5}, {Weight: 3, Profit: 9}}, 3, 11, 11},
		{"zero profit split", []Item{{Weight: 4, Profit: 0}}, 3, 0, 0},
		{"no room", []Item{{Weight: 4, Profit: 10}}, 0, 0, 0},
		{"zero weights before a split", []Item{{Weight: 0, Profit: 5}, {Weight: 0, Profit: 7}, {Weight: 4, Profit: 10}}, 3, 19, 19.5},
		{"zero weights at capacity 0", []Item{{Weight: 0, Profit: 5}, {Weight: 0, Profit: 7}, {Weight: 4, Profit: 10}}, 0, 12, 12},
		{"room used up", []Item{{Weight: 2, Profit: 6}, {Weight: 1, Profit: 2}}, 2, 6, 6},
		{"overflow falls back to p", []Item{{Weight: 1 << 20, Profit: 1 << 62}}, 1 << 10, 1 << 62, 1 << 52},
	}
	for _, c := range cases {
		f := FillSorted(c.items, c.capacity)
		if got := f.Floor(); got != c.floor {
			t.Errorf("%s: Floor = %d, want %d", c.name, got, c.floor)
		}
		//sectorlint:ignore floateq every value here is a small dyadic rational, computed exactly
		if got := f.Value(); got != c.value {
			t.Errorf("%s: Value = %v, want %v", c.name, got, c.value)
		}
	}

	// Add reports full only once no later item can count.
	f := NewFill(0)
	if f.Add(5, 0) {
		t.Error("a zero-weight item at capacity 0 must not fill: more may follow")
	}
	if !f.Add(3, 1) {
		t.Error("a weighted item beyond the room must fill")
	}

	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 500; trial++ {
		items := randomItems(rng, 1+rng.Intn(12), 50, 1000)
		capacity := rng.Int63n(200)
		order := byDensity(items)
		sorted := make([]Item, len(items))
		for k, i := range order {
			sorted[k] = items[i]
		}
		f := FillSorted(sorted, capacity)
		fl, v := f.Floor(), f.Value()
		if float64(fl) > v || v-float64(fl) >= 1 {
			t.Fatalf("trial %d: Floor %d is not floor(Value %v)", trial, fl, v)
		}
		if want := bruteForce(items, capacity); fl < want {
			t.Fatalf("trial %d: Floor %d < OPT %d", trial, fl, want)
		}
	}
}

func TestSolveDispatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		items := randomItems(rng, n, 20, 30)
		capacity := rng.Int63n(80)
		want := bruteForce(items, capacity)
		res, exact, err := Solve(items, capacity, Options{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		checkResult(t, items, capacity, res, "Solve")
		if !exact {
			t.Fatal("small instances should be solved exactly")
		}
		if res.Profit != want {
			t.Fatalf("Solve = %d, want %d", res.Profit, want)
		}
	}
}

func TestSolveForceApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randomItems(rng, 15, 20, 500)
	capacity := int64(100)
	want := bruteForce(items, capacity)
	res, exact, err := Solve(items, capacity, Options{ForceApprox: true, Eps: 0.1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if exact {
		t.Error("ForceApprox must not report exactness")
	}
	if float64(res.Profit) < 0.9*float64(want) {
		t.Errorf("forced FPTAS %d < 0.9·OPT (%d)", res.Profit, want)
	}
}

func TestEdgeCases(t *testing.T) {
	// empty item set
	for name, f := range map[string]func([]Item, int64) (Result, error){
		"DPByWeight": DPByWeight,
		"DPByProfit": DPByProfit,
		"Greedy":     Greedy,
		"MiM":        MeetInMiddle,
	} {
		res, err := f(nil, 10)
		if err != nil {
			t.Errorf("%s(nil): %v", name, err)
		}
		if res.Profit != 0 {
			t.Errorf("%s(nil) profit = %d", name, res.Profit)
		}
	}
	// zero capacity with zero-weight items: free profit must be taken
	items := []Item{{Weight: 0, Profit: 5}, {Weight: 3, Profit: 10}}
	res, err := DPByWeight(items, 0)
	if err != nil || res.Profit != 5 {
		t.Errorf("zero capacity: profit=%d err=%v, want 5", res.Profit, err)
	}
	g, err := Greedy(items, 0)
	if err != nil || g.Profit != 5 {
		t.Errorf("greedy zero capacity: profit=%d err=%v, want 5", g.Profit, err)
	}
	// item heavier than capacity is never taken
	res, err = DPByWeight([]Item{{Weight: 100, Profit: 99}}, 10)
	if err != nil || res.Profit != 0 || res.Take[0] {
		t.Errorf("oversized item: %+v err=%v", res, err)
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []Item{{Weight: -1, Profit: 1}}
	if _, err := DPByWeight(bad, 10); err == nil {
		t.Error("negative weight must be rejected")
	}
	if _, err := DPByWeight([]Item{{Weight: 1, Profit: -1}}, 10); err == nil {
		t.Error("negative profit must be rejected")
	}
	if _, err := Greedy([]Item{{1, 1}}, -1); err == nil {
		t.Error("negative capacity must be rejected")
	}
	if _, err := FPTAS([]Item{{1, 1}}, 10, 0); err == nil {
		t.Error("eps=0 must be rejected")
	}
	if _, err := FPTAS([]Item{{1, 1}}, 10, 1); err == nil {
		t.Error("eps=1 must be rejected")
	}
	if _, err := MeetInMiddle(make([]Item, MaxMeetInMiddle+1), 1); err == nil {
		t.Error("oversized MeetInMiddle input must be rejected")
	}
}

func TestDPBudgetExceeded(t *testing.T) {
	items := []Item{{Weight: 1, Profit: 1}}
	if _, err := DPByWeight(items, MaxDPCells); err == nil {
		t.Error("oversized weight table must be refused")
	}
	big := []Item{{Weight: 1, Profit: MaxDPCells}}
	if _, err := DPByProfit(big, 1); err == nil {
		t.Error("oversized profit table must be refused")
	}
}

// TestDPBudgetNoWrap: a table size that overflows int64 must be refused,
// not wrapped into an accepted one. 2048 rows × (2^53+1) columns is
// 2^64 + 2048, which an unguarded product reads as 2048 cells.
func TestDPBudgetNoWrap(t *testing.T) {
	items := make([]Item, 2047)
	for i := range items {
		items[i] = Item{Weight: 1, Profit: 1}
	}
	const capacity = 1 << 53
	if _, err := DPByWeight(items, capacity); err == nil {
		t.Error("wrapping weight table must be refused")
	}
	res, exact, err := Solve(items, capacity, Options{})
	if err != nil || !exact || res.Profit != int64(len(items)) {
		t.Errorf("Solve = %d (exact=%v, err=%v), want every item", res.Profit, exact, err)
	}
}

// TestCompareDensity pins the comparator's sign convention, zero-weight
// rule, and exactness past the int64 product range.
func TestCompareDensity(t *testing.T) {
	const big = 1 << 40
	cases := []struct {
		pa, wa, pb, wb int64
		want           int
	}{
		{3, 1, 2, 1, -1},
		{2, 1, 3, 1, 1},
		{4, 2, 2, 1, 0},
		{1, 0, 100, 1, -1},
		{100, 1, 1, 0, 1},
		{1, 0, 5, 0, 0},
		// (2^40+1)/2^40 vs 1: the products differ only in bit 0 of an
		// 81-bit value, which int64 arithmetic would wrap away.
		{big + 1, big, big, big, -1},
		{big, big, big + 1, big, 1},
	}
	for _, c := range cases {
		if got := CompareDensity(c.pa, c.wa, c.pb, c.wb); got != c.want {
			t.Errorf("CompareDensity(%d/%d, %d/%d) = %d, want %d", c.pa, c.wa, c.pb, c.wb, got, c.want)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	items := []Item{{2, 3}, {4, 5}, {6, 7}}
	res := Result{Profit: 8, Take: []bool{true, false, true}}
	if w := res.Weight(items); w != 8 {
		t.Errorf("Weight = %d, want 8", w)
	}
	if c := res.Count(); c != 2 {
		t.Errorf("Count = %d, want 2", c)
	}
}

func TestByDensityOrdering(t *testing.T) {
	items := []Item{{Weight: 2, Profit: 2}, {Weight: 0, Profit: 1}, {Weight: 1, Profit: 3}}
	order := byDensity(items)
	if order[0] != 1 {
		t.Errorf("zero-weight item should sort first, got order %v", order)
	}
	if order[1] != 2 {
		t.Errorf("density-3 item should sort second, got order %v", order)
	}
}

func TestBranchBoundBudget(t *testing.T) {
	// A tiny node budget must still return a feasible (if suboptimal)
	// solution and report ok=false.
	rng := rand.New(rand.NewSource(8))
	items := randomItems(rng, 30, 1000, 1000)
	res, ok, err := BranchBound(items, 5000, 10)
	if err != nil {
		t.Fatalf("BranchBound: %v", err)
	}
	if ok {
		t.Error("10-node budget on n=30 should be exhausted")
	}
	checkResult(t, items, 5000, res, "BranchBound(budget)")
}
