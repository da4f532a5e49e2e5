package angular

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sectorpack/internal/cols"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
	"sectorpack/internal/sweep"
)

// maxWorkersVar caps the worker count of every parallel path in this
// package (candidate-window evaluation, Prewarm's per-antenna sweep
// builds); 0 means GOMAXPROCS. Results are bit-identical at any setting —
// the knob exists so the scalar-vs-parallel differential tests and
// sectorbench can pin each path explicitly.
var maxWorkersVar atomic.Int32

// SetMaxWorkers caps the package's parallel paths at n workers (n <= 1
// forces the scalar path, 0 restores the GOMAXPROCS default) and returns
// the previous setting. Safe for concurrent use, but intended for test and
// benchmark setup, not per-request tuning.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkersVar.Swap(int32(n)))
}

// Workers reports the effective worker count the package's parallel paths
// would use right now.
func Workers() int {
	if n := int(maxWorkersVar.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Engine is the reusable best-window evaluator behind the greedy, local
// search, and constrained solvers. It caches one Sweep (and one candidate
// list) per antenna for the lifetime of a solve — the sweep depends only on
// instance geometry, so successive greedy steps and local-search
// reorientations share it instead of re-filtering and re-sorting all
// customers — and evaluates candidate windows with Dantzig-bound pruning:
//
//  1. For every candidate window a fractional (Dantzig) upper bound is
//     computed in O(window) from the sweep's density order and floored with
//     integer arithmetic: the window's knapsack optimum is an integer no
//     larger than the fractional value, so it is no larger than its floor.
//  2. Candidates are visited in descending-bound order; a candidate is
//     skipped when its bound is strictly below the best profit already
//     solved, or equal to a positive best profit that a candidate earlier
//     in original order already reached — either way its knapsack provably
//     cannot win the fold.
//  3. The surviving evaluations fold in original candidate order with the
//     same strictly-greater comparison as the unpruned path.
//
// Pruning is invisible in the results (see the correctness argument in
// evaluate): Alpha, Profit, Customers, and Exact all match the unpruned
// evaluation bit for bit on any input whose inner-solver exactness is
// uniform across windows, and unconditionally for the first three. A
// metamorphic test sweeps generator families × solvers to enforce this.
//
// An Engine is not safe for concurrent use; its methods parallelize
// internally across GOMAXPROCS workers.
type Engine struct {
	in     *model.Instance
	view   *cols.View // columnar core, built once and shared by every sweep
	sweeps []*Sweep
	cands  [][]float64

	// Per-call scratch, reused across calls to keep the steady state
	// allocation-free.
	wins   []windowCand
	order  []int32
	outs   []outcome
	posBuf []int32
	posEnd []int32 // prefix ends of each candidate's segment in posBuf

	work Work
}

// Work counts an engine's candidate-window evaluations over its lifetime.
// Pruned and Solved are the scalar schedule's counts at any worker count,
// so they are a deterministic function of the calls made. Enumerated −
// Pruned − Solved is the number of windows with no active member (settled
// without a knapsack) plus any a cancellation left unclaimed.
type Work struct {
	Enumerated int64 // candidate windows enumerated
	Pruned     int64 // skipped by the Dantzig bound or the tie rule
	Solved     int64 // handed to the knapsack solver
}

// Work returns the engine's cumulative window counters.
func (e *Engine) Work() Work { return e.work }

// windowCand is one candidate window awaiting evaluation: either a circular
// position range of the sweep (count >= 0, the streaming enumeration) or a
// segment of Engine.posBuf (count < 0, arbitrary-angle candidates).
type windowCand struct {
	alpha float64
	bound int64
	start int32
	count int32
}

type outcome struct {
	win    Window
	err    error
	solved bool // evaluated (possibly trivially); false = pruned
	empty  bool // no active members: participates only in unconstrained folds
}

// NewEngine prepares an engine for the instance. Sweeps are built lazily,
// one per antenna, on first use.
func NewEngine(in *model.Instance) *Engine {
	return &Engine{
		in:     in,
		sweeps: make([]*Sweep, len(in.Antennas)),
		cands:  make([][]float64, len(in.Antennas)),
	}
}

// Instance returns the instance the engine was built for.
func (e *Engine) Instance() *model.Instance { return e.in }

// View returns the engine's columnar view of the instance, building it on
// first use. The instance is sorted exactly once per engine; every sweep
// gathers from these shared read-only columns.
func (e *Engine) View() *cols.View {
	if e.view == nil {
		e.view = cols.New(e.in)
	}
	return e.view
}

// Sweep returns the antenna's cached sweep, building it on first use.
func (e *Engine) Sweep(antenna int) *Sweep {
	if e.sweeps[antenna] == nil {
		e.sweeps[antenna] = newSweepFromView(e.View(), e.in.Antennas[antenna])
	}
	return e.sweeps[antenna]
}

// Candidates returns the antenna's candidate start angles (sorted customer
// angles of in-range customers, deduplicated within geom.Eps), cached per
// antenna. Callers must not mutate the returned slice.
func (e *Engine) Candidates(antenna int) []float64 {
	if e.cands[antenna] == nil {
		e.cands[antenna] = candidatesFromSweep(e.Sweep(antenna))
	}
	return e.cands[antenna]
}

// candidatesFromSweep derives an antenna's deduplicated candidate angles
// from its sweep's already-sorted thetas.
func candidatesFromSweep(s *Sweep) []float64 {
	out := dedupAngles(append(make([]float64, 0, len(s.thetas)), s.thetas...))
	if out == nil {
		out = []float64{} // non-nil: cache hit marker
	}
	return out
}

// prewarmParallelMin gates Prewarm's per-antenna fan-out: below this much
// total work (customers × antennas) goroutine spawn costs more than it
// saves and one worker runs inline. The threshold never changes results,
// only cost.
const prewarmParallelMin = 1 << 14

// Prewarm builds every antenna's sweep and candidate list up front,
// fanning the per-antenna builds across Workers() goroutines on large
// instances. The merge is deterministic by construction: antenna j's
// sweep lands in slot j and its content depends only on the shared view
// and the antenna, never on scheduling, so a prewarmed engine is
// bit-identical to one that built sweeps lazily — and to the scalar path.
//
// Cancellation: ctx is consulted before every antenna; on cancellation the
// already-built sweeps are kept (they are valid caches) and ctx.Err() is
// returned.
func (e *Engine) Prewarm(ctx context.Context) error {
	m := len(e.sweeps)
	if m == 0 {
		return ctx.Err()
	}
	view := e.View() // built serially, before the fan-out
	workers := Workers()
	if view.Len()*m < prewarmParallelMin {
		workers = 1
	}
	if sweep.Each(ctx, m, workers, func(j int) { e.prewarmAntenna(view, j) }) < m {
		return ctx.Err()
	}
	return nil
}

// prewarmAntenna fills antenna j's sweep and candidate slots if still
// empty. Distinct antennas touch distinct slots, so Prewarm's workers
// never race.
func (e *Engine) prewarmAntenna(v *cols.View, j int) {
	if e.sweeps[j] == nil {
		e.sweeps[j] = newSweepFromView(v, e.in.Antennas[j])
	}
	if e.cands[j] == nil {
		e.cands[j] = candidatesFromSweep(e.sweeps[j])
	}
}

// BestWindow finds the most profitable placement of a single antenna over
// the active customers: the cached sweep streams every candidate window,
// the Dantzig bound prunes hopeless ones, and a knapsack selects within
// each survivor. Results are identical to evaluating every candidate.
//
// With an exact inner solver the result is the true single-antenna optimum
// (by the candidate-orientation lemma); with the FPTAS it is a (1−ε)
// approximation of it.
//
// Cancellation: the evaluation loop checks ctx between candidate windows
// and returns ctx.Err() promptly, discarding partial work. An uncancelled
// run is bit-identical to the pre-context behavior.
func (e *Engine) BestWindow(ctx context.Context, antenna int, active []bool, opt knapsack.Options) (Window, error) {
	s := e.Sweep(antenna)
	capacity := e.in.Antennas[antenna].Capacity
	e.wins = e.wins[:0]
	s.forEachRange(func(start, count int, alpha float64) bool {
		e.wins = append(e.wins, windowCand{
			alpha: alpha,
			bound: s.dantzigRange(start, count, active, capacity).Floor(),
			start: int32(start),
			count: int32(count),
		})
		return true
	})
	if len(e.wins) == 0 {
		return Window{Exact: true}, nil
	}
	return e.evaluate(ctx, s, capacity, active, opt, false)
}

// BestWindowAt evaluates an explicit set of candidate orientations — which
// need not be customer angles (placed-sector ends, grid points) — with the
// same pruned, parallel machinery as BestWindow. Window membership follows
// Covers' tolerance semantics and knapsack items are ordered by ascending
// customer index, matching the Covered/WindowItems scan it replaces.
// Candidates whose window has no active member are skipped entirely (they
// never become the incumbent), mirroring the historical constrained-search
// behavior; if every candidate is empty the zero Window is returned.
func (e *Engine) BestWindowAt(ctx context.Context, antenna int, alphas []float64, active []bool, opt knapsack.Options) (Window, error) {
	s := e.Sweep(antenna)
	capacity := e.in.Antennas[antenna].Capacity
	e.wins = e.wins[:0]
	e.posBuf = e.posBuf[:0]
	e.posEnd = e.posEnd[:0]
	for _, alpha := range alphas {
		off := len(e.posBuf)
		e.posBuf = s.appendCovered(alpha, e.posBuf)
		seg := e.posBuf[off:]
		e.posEnd = append(e.posEnd, int32(len(e.posBuf)))
		e.wins = append(e.wins, windowCand{
			alpha: alpha,
			bound: s.dantzigSet(seg, active, capacity).Floor(),
			start: int32(off),
			count: -1,
		})
	}
	if len(e.wins) == 0 {
		return Window{}, nil
	}
	return e.evaluate(ctx, s, capacity, active, opt, true)
}

// DantzigBound returns the largest fractional-knapsack (Dantzig) value
// over the antenna's windows at its candidate angles, all customers
// active. Window membership follows Covers' tolerance semantics
// (appendCovered), so the value bounds the antenna's best 0/1 window on
// every instance Validate accepts, not only on general-position ones.
// Each candidate costs a binary search plus a walk of the sweep's density
// order up to the split item: O(|Candidates| · (log n + Len)) at worst,
// allocation-free once the sweep is warm.
func (e *Engine) DantzigBound(antenna int) float64 {
	s := e.Sweep(antenna)
	capacity := e.in.Antennas[antenna].Capacity
	var best float64
	for _, alpha := range e.Candidates(antenna) {
		e.posBuf = s.appendCovered(alpha, e.posBuf[:0])
		best = max(best, s.dantzigSet(e.posBuf, nil, capacity).Value())
	}
	return best
}

// parallelThreshold is the candidate count below which the fan-out is not
// worth its synchronization cost and one worker runs inline.
const parallelThreshold = 16

// evaluate runs the prune-and-solve loop over e.wins and folds the
// outcomes. skipEmpty selects the constrained fold (empty windows are
// ignored) versus the unconstrained one (an empty window still proposes
// its orientation at profit 0, preserving BestWindow's historical
// all-empty behavior).
//
// Candidates are claimed one at a time in descending-bound order, on one
// worker or many, so every worker starts on the highest bounds still
// unclaimed and the shared incumbent prunes the low-bound tail early. ctx
// is checked before every claim; on cancellation the partial fold is
// abandoned and ctx.Err() is returned.
func (e *Engine) evaluate(ctx context.Context, s *Sweep, capacity int64, active []bool, opt knapsack.Options, skipEmpty bool) (Window, error) {
	nc := len(e.wins)
	if cap(e.order) < nc {
		e.order = make([]int32, nc)
		e.outs = make([]outcome, nc)
	}
	e.order, e.outs = e.order[:nc], e.outs[:nc]
	for k := range e.outs {
		e.outs[k] = outcome{}
	}
	for k := range e.order {
		e.order[k] = int32(k)
	}
	// Descending bound, ties by original candidate order: the highest
	// upper bound is the best chance to raise the incumbent early.
	slices.SortFunc(e.order, func(a, b int32) int {
		if c := cmp.Compare(e.wins[b].bound, e.wins[a].bound); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// best is the incumbent: the highest profit of any solved candidate
	// so far, with the smallest original index that reached it; profit −1
	// until the first solve, so the first candidate in bound order — which
	// has the globally highest bound — is never pruned. A candidate's true
	// window optimum is an integer at most its floored bound, so it cannot
	// win the strictly-greater, first-index fold below when its bound is
	// below best.profit, or equal to it with a smaller index already there.
	// The tie rule needs a positive profit: profit-0 windows may be empty
	// ones, which the skipEmpty fold ignores.
	var best atomic.Pointer[incumbent]
	best.Store(&incumbent{profit: -1})

	workers := Workers()
	if nc < parallelThreshold {
		workers = 1
	}
	ran := sweep.Each(ctx, nc, workers, func(i int) {
		k := e.order[i]
		if best.Load().prunes(e.wins[k].bound, k) {
			return
		}
		sc := evalPool.Get().(*evalScratch)
		e.solve(s, k, capacity, active, opt, &best, sc)
		evalPool.Put(sc)
	})
	e.countWork(e.order[:ran])
	if err := ctx.Err(); err != nil {
		return Window{}, err
	}

	// Fold in original candidate order, exactly as the unpruned path did.
	acc := Window{Profit: -1, Exact: true}
	for k := range e.outs {
		o := &e.outs[k]
		if !o.solved {
			continue
		}
		if o.err != nil {
			return Window{}, o.err
		}
		if o.empty && skipEmpty {
			continue
		}
		acc = better(acc, o.win)
	}
	return clampEmpty(acc), nil
}

// evalScratch is a reusable id/item workspace, borrowed from evalPool for
// one candidate at a time so evaluation allocates nothing in steady state.
type evalScratch struct {
	ids   []int
	items []knapsack.Item
}

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

// solve evaluates candidate k into e.outs[k] and raises the shared
// incumbent. Member enumeration preserves the historical item orders:
// sweep order (rotated theta order) for range candidates, ascending
// customer index for explicit-angle candidates.
func (e *Engine) solve(s *Sweep, k int32, capacity int64, active []bool, opt knapsack.Options, best *atomic.Pointer[incumbent], sc *evalScratch) {
	c := e.wins[k]
	n := s.Len()
	ids := sc.ids[:0]
	if c.count >= 0 {
		for t := int(c.start); t < int(c.start)+int(c.count); t++ {
			i := int(s.ids[t%n])
			if active == nil || active[i] {
				ids = append(ids, i)
			}
		}
	} else {
		for _, p := range e.posBuf[c.start:e.posEnd[k]] {
			i := int(s.ids[p])
			if active == nil || active[i] {
				ids = append(ids, i)
			}
		}
		sort.Ints(ids) // Covered() order: ascending customer index
	}
	sc.ids = ids
	if len(ids) == 0 {
		e.outs[k] = outcome{win: Window{Alpha: c.alpha, Exact: true}, solved: true, empty: true}
		raise(best, 0, k)
		return
	}
	items := sc.items[:0]
	for _, i := range ids {
		items = append(items, knapsack.Item{Weight: e.in.Customers[i].Demand, Profit: e.in.Customers[i].Profit})
	}
	sc.items = items
	res, exact, err := knapsack.Solve(items, capacity, opt)
	if err != nil {
		e.outs[k] = outcome{err: err, solved: true}
		return
	}
	w := Window{Alpha: c.alpha, Profit: res.Profit, Exact: exact}
	for t, take := range res.Take {
		if take {
			w.Customers = append(w.Customers, ids[t])
		}
	}
	e.outs[k] = outcome{win: w, solved: true}
	raise(best, res.Profit, k)
}

// incumbent is the best (profit, original candidate index) pair solved so
// far in one evaluate call.
type incumbent struct {
	profit int64
	k      int32
}

// prunes reports whether a candidate with this bound at original index k
// provably cannot win the fold against the incumbent (see evaluate).
func (b *incumbent) prunes(bound int64, k int32) bool {
	return bound < b.profit || (bound == b.profit && b.profit > 0 && b.k < k)
}

// beatenBy reports whether (p, k) wins the fold's order over the
// incumbent: a higher profit, or the same profit at a smaller index.
func (b *incumbent) beatenBy(p int64, k int32) bool {
	return p > b.profit || (p == b.profit && k < b.k)
}

// raise lifts the incumbent to (p, k) if that pair beats it.
func raise(best *atomic.Pointer[incumbent], p int64, k int32) {
	next := &incumbent{profit: p, k: k}
	for {
		cur := best.Load()
		if !cur.beatenBy(p, k) || best.CompareAndSwap(cur, next) {
			return
		}
	}
}

// countWork adds one evaluate call's window counts to e.work. It replays
// the claimed prefix of the bound order against a private incumbent, so the
// counts are those of the scalar schedule whatever the worker count: a
// parallel run's incumbent at any claim is no better than the scalar run's
// at the same point, so it solves every window the scalar run solves, and
// those outcomes are all in e.outs.
func (e *Engine) countWork(claimed []int32) {
	e.work.Enumerated += int64(len(e.wins))
	inc := incumbent{profit: -1}
	for _, k := range claimed {
		if inc.prunes(e.wins[k].bound, k) {
			e.work.Pruned++
			continue
		}
		o := &e.outs[k]
		if !o.empty {
			e.work.Solved++
		}
		if o.err == nil && inc.beatenBy(o.win.Profit, k) {
			inc = incumbent{profit: o.win.Profit, k: k}
		}
	}
}

// dantzigRange runs the Dantzig fill of the window given as a circular
// position range, over active members only, walking the sweep's density
// order. BestWindow prunes on its Floor.
func (s *Sweep) dantzigRange(start, count int, active []bool, capacity int64) knapsack.Fill {
	n := len(s.ids)
	f := knapsack.NewFill(capacity)
	for _, p32 := range s.density {
		p := int(p32)
		rel := p - start
		if rel < 0 {
			rel += n
		}
		if rel >= count {
			continue
		}
		if active != nil && !active[s.ids[p]] {
			continue
		}
		if f.Add(s.profits[p], s.weights[p]) {
			break
		}
	}
	return f
}

// dantzigSet is dantzigRange for an explicit member-position set; the set
// must be sorted or not — only membership matters. It marks the members
// and walks the density order, so cost is O(set + prefix of density walk).
func (s *Sweep) dantzigSet(set []int32, active []bool, capacity int64) knapsack.Fill {
	f := knapsack.NewFill(capacity)
	if len(set) == 0 {
		return f
	}
	if cap(s.markBuf) < len(s.ids) {
		s.markBuf = make([]int32, len(s.ids))
		s.markEpoch = 0
	}
	s.markBuf = s.markBuf[:len(s.ids)]
	s.markEpoch++
	if s.markEpoch == 0 { // wrapped: reset
		clear(s.markBuf)
		s.markEpoch = 1
	}
	for _, p := range set {
		s.markBuf[p] = s.markEpoch
	}
	for _, p32 := range s.density {
		p := int(p32)
		if s.markBuf[p] != s.markEpoch {
			continue
		}
		if active != nil && !active[s.ids[p]] {
			continue
		}
		if f.Add(s.profits[p], s.weights[p]) {
			break
		}
	}
	return f
}
