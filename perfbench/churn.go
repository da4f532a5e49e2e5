package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"sectorpack/internal/angular"
	"sectorpack/internal/cols"
	"sectorpack/internal/core"
	"sectorpack/internal/gen"
	"sectorpack/internal/knapsack"
	"sectorpack/internal/model"
	"sectorpack/internal/session"
)

// churnShape is churn-100k's trace: the 100k-churn tier (n=100k, m=40
// antennas over 40 equal-area bands) with localized 1% churn steps; every
// session replays the same trace. stride is the gate's from-scratch check
// interval in steps.
func churnShape(cfg config) (gen.ChurnConfig, int) {
	base, _ := gen.Tier("100k-churn")
	steps, stride := 32, 8
	if cfg.tiny {
		base = gen.Config{Family: gen.Uniform, N: 2000, M: 8, Bands: 8, Tightness: 40, ProfitSpread: 0.4}
		steps, stride = 8, 4
	}
	base.Seed = cfg.seed
	return gen.ChurnConfig{Base: base, Steps: steps, Localized: true, Seed: mix64(cfg.seed, 1)}, stride
}

// sessionOptions are sectorpack's CLI and sectorbench session defaults.
var sessionOptions = session.Options{Solver: "greedy", Core: core.Options{SkipBound: true}}

// churnBench is one churn-100k run's state.
type churnBench struct {
	trace  *model.Trace
	stride int
	bad    *corrupter

	stepHash   map[int][32]byte // answer hash after delta k, as first seen
	profit     map[int]int64    // first session's profit after delta k
	gateErr    []string
	latMS      []float64 // per delta
	createMS   []float64 // per session.New
	programMS  float64   // time spent inside session.New and Apply
	attempted  int64
	failed     int64
	kept, seen int64 // sweeps kept / seen at rebases
	reused     int64 // greedy steps replayed
	steps      int64 // greedy steps after deltas
}

func (c *churnBench) gateFail(format string, args ...any) {
	if len(c.gateErr) < 20 {
		c.gateErr = append(c.gateErr, fmt.Sprintf(format, args...))
	}
}

// solutionHash identifies an answer bit for bit.
func solutionHash(sol model.Solution) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(sol.Profit))
	for _, a := range sol.Assignment.Orientation {
		put(math.Float64bits(a))
	}
	for _, o := range sol.Assignment.Owner {
		put(uint64(int64(o)))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// corruptSolution returns a copy of sol with one more customer assigned,
// which the gate must reject.
func corruptSolution(sol model.Solution) model.Solution {
	as := &model.Assignment{
		Orientation: append([]float64(nil), sol.Assignment.Orientation...),
		Owner:       append([]int(nil), sol.Assignment.Owner...),
	}
	for i, o := range as.Owner {
		if o == model.Unassigned {
			as.Owner[i] = 0
			break
		}
	}
	sol.Assignment = as
	return sol
}

// check is the inline gate on one answer: feasible for the session's
// instance, and bit-identical to every other session's answer after the
// same delta.
func (c *churnBench) check(step int, in *model.Instance, sol model.Solution) bool {
	if step > 0 && c.bad.fire() {
		sol = corruptSolution(sol)
	}
	if err := core.VerifySolution("greedy", in, sol); err != nil {
		c.gateFail("step %d: %v", step, err)
		return false
	}
	h := solutionHash(sol)
	if first, ok := c.stepHash[step]; ok && first != h {
		c.gateFail("step %d: answer differs from an earlier session's answer after the same delta", step)
		return false
	} else if !ok {
		c.stepHash[step] = h
		c.profit[step] = sol.Profit
	}
	return true
}

// churnTracer holds a traced phase's shadow state: an independently
// materialized instance and a warm engine kept in step with the session.
type churnTracer struct {
	tr         *tracer
	op         int64
	inst       *model.Instance
	eng        *angular.Engine
	candidates []float64
	eligible   []float64
}

// phase runs sessions back to back until the window closes: session.New
// on the trace's base instance, then the trace's deltas through Apply.
func (c *churnBench) phase(ctx context.Context, window time.Duration, ct *churnTracer) error {
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		var ot *opTrace
		if ct != nil {
			ct.op++
			ot = ct.tr.begin(ct.op)
		}
		var s *session.Session
		var err error
		d := ot.timed("session.create", func() { s, err = session.New(ctx, c.trace.Instance, sessionOptions) })
		if err != nil {
			return fmt.Errorf("session.New: %w", err)
		}
		c.createMS = append(c.createMS, ms(d))
		c.programMS += ms(d)
		if !c.check(0, s.Instance(), s.Solution()) {
			return nil
		}
		if ot != nil {
			ot.timed("cols.build", func() { cols.New(c.trace.Instance) })
			ct.inst = c.trace.Instance
			ct.eng = angular.NewEngine(ct.inst)
			ot.timed("angular.prewarm", func() { err = ct.eng.Prewarm(ctx) })
			if err != nil {
				return err
			}
			var cands, elig float64
			for j := range ct.inst.Antennas {
				cands += float64(len(ct.eng.Candidates(j)))
				elig += float64(ct.eng.Sweep(j).Len())
			}
			ct.candidates = append(ct.candidates, cands)
			ct.eligible = append(ct.eligible, elig)
			ot.finish(ms(d), true)
		}
		base := s.Stats()
		for k, delta := range c.trace.Deltas {
			if !time.Now().Before(deadline) {
				break
			}
			c.attempted++
			if ct != nil {
				ct.op++
				ot = ct.tr.begin(ct.op)
			}
			var sol model.Solution
			d := ot.timed("session.apply", func() { sol, err = s.Apply(ctx, delta) })
			if err != nil {
				c.failed++
				c.gateFail("step %d: Apply: %v", k+1, err)
				break
			}
			c.programMS += ms(d)
			if !c.check(k+1, s.Instance(), sol) {
				c.failed++
				continue
			}
			c.latMS = append(c.latMS, ms(d))
			if ot != nil {
				var next *model.Instance
				ot.timed("model.apply_delta", func() { next, err = model.ApplyDelta(ct.inst, delta) })
				if err != nil {
					return err
				}
				ot.timed("angular.rebase", func() {
					ct.eng.Rebase(next, delta)
					for j := range next.Antennas {
						ct.eng.Candidates(j) // rebuild the sweeps the rebase dropped
					}
				})
				ct.inst = next
				ot.finish(ms(d), true)
			}
		}
		st := s.Stats()
		c.kept += st.SweepsKept - base.SweepsKept
		c.seen += st.SweepsKept + st.SweepsDropped - base.SweepsKept - base.SweepsDropped
		c.reused += st.StepsReused - base.StepsReused
		c.steps += st.StepsReused + st.StepsResolved - base.StepsReused - base.StepsResolved
	}
	return nil
}

// verifyStride is the deferred gate: at every stride-th step it solves the
// independently materialized instance from scratch (greedy, SkipBound) and
// requires the sessions' answer to be bit-identical. It also returns the
// per-step relaxation bound for the quality metrics.
func (c *churnBench) verifyStride(ctx context.Context) (map[int]float64, error) {
	bound := map[int]float64{}
	cur := c.trace.Instance
	for k := 1; k <= len(c.trace.Deltas); k++ {
		next, err := model.ApplyDelta(cur, c.trace.Deltas[k-1])
		if err != nil {
			return nil, err
		}
		cur = next
		bound[k] = relaxationBound(cur)
		got, ok := c.stepHash[k]
		if k%c.stride != 0 || !ok {
			continue
		}
		ref, err := core.SolveGreedy(ctx, cur, core.Options{SkipBound: true})
		if err != nil {
			return nil, err
		}
		if solutionHash(ref) != got {
			c.gateFail("step %d: session answer differs from a from-scratch greedy solve", k)
		}
	}
	return bound, nil
}

// relaxationBound is an angle-free Dantzig bound: each antenna's
// fractional knapsack over every customer it can radially reach. The
// session path skips core.UpperBound, so bound_ratio on churn-100k is
// measured against this fixed yardstick instead.
func relaxationBound(in *model.Instance) float64 {
	v := cols.New(in)
	var pos []int32
	var items []knapsack.Item
	sum := 0.0
	for _, a := range in.Antennas {
		pos = v.AppendEligible(a, pos[:0])
		items = items[:0]
		for _, p := range pos {
			items = append(items, knapsack.Item{Weight: v.Demand[p], Profit: v.Profit[p]})
		}
		sum += knapsack.FractionalBound(items, a.Capacity)
	}
	return math.Min(sum, float64(in.TotalProfit()))
}

func runChurn(cfg config) (*report, error) {
	ctx := context.Background()
	shape, stride := churnShape(cfg)
	setups := setupsPerRun
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	var tr *model.Trace
	for k := 0; k < setups; k++ {
		start := time.Now()
		var err error
		if tr, err = gen.GenerateTrace(shape); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	c := &churnBench{trace: tr, stride: stride, bad: newCorrupter(cfg.corrupt),
		stepHash: map[int][32]byte{}, profit: map[int]int64{}}
	window := measureWindow(cfg)
	if err := c.phase(ctx, window, nil); err != nil {
		return nil, err
	}
	rep := &report{}
	if cfg.trace {
		untraced := median(c.latMS)
		c.latMS = nil
		ct := &churnTracer{tr: newTracer()}
		if err := c.phase(ctx, window, ct); err != nil {
			return nil, err
		}
		counts := map[string]float64{
			"angular.candidates":   median(ct.candidates),
			"angular.eligible":     median(ct.eligible),
			"trace.overhead_ratio": median(c.latMS) / untraced,
		}
		if c.seen > 0 {
			counts["session.sweeps_kept_ratio"] = float64(c.kept) / float64(c.seen)
		}
		if c.steps > 0 {
			counts["session.steps_reused_ratio"] = float64(c.reused) / float64(c.steps)
		}
		rep.Metrics, rep.notes = perLayerMetrics(ct.tr, churnTree, counts)
		if err := ct.tr.write(spanPath(cfg)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.notes = append(rep.notes, "spans: "+spanPath(cfg))
	}
	rssMB := peakRSSMB("self")
	bound, err := c.verifyStride(ctx)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = c.attempted, c.failed
	rep.Correct = len(c.gateErr) == 0
	for _, e := range c.gateErr {
		rep.notes = append(rep.notes, "GATE FAILED: "+e)
	}
	if cfg.trace {
		return rep, nil
	}
	var profit, relax float64
	for k := 1; k <= len(tr.Deltas); k++ {
		p, ok := c.profit[k]
		if !ok && rep.Correct {
			return nil, fmt.Errorf("the first session did not complete the %d-delta quality prefix", len(tr.Deltas))
		}
		profit += float64(p)
		relax += bound[k]
	}
	tail, beyond := percentile(c.latMS, 95)
	rep.Metrics = map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"p50_ms":         {median(c.latMS), "ms"},
		"tail_ms":        {tail, "ms"},
		"throughput_ops": {float64(len(c.latMS)) / (c.programMS / 1000), "1/s"},
		"create_ms":      {median(c.createMS), "ms"},
		"profit_sum":     {profit, "profit"},
		"bound_ratio":    {profit / relax, "ratio"},
		"peak_rss_mb":    {rssMB, "MB"},
	}
	rep.notes = append(rep.notes, fmt.Sprintf("tail_ms is p95 over %d deltas (%d beyond it); %d sessions; quality prefix = the first session's %d deltas; set-ups %v s",
		len(c.latMS), beyond, len(c.createMS), len(tr.Deltas), setupS))
	return rep, nil
}
