package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sectorpack/internal/cache"
	"sectorpack/internal/core"
	"sectorpack/internal/exact"
	"sectorpack/internal/gen"
	"sectorpack/internal/model"
)

// HTTP workload shape. Both workloads drive a closed loop of httpClients
// clients (the machine's two cores) through sectorproxy; one op in
// batchEvery is a /solve/batch of batchSize instances.
const (
	httpClients = 2
	batchEvery  = 8
	batchSize   = 4
	// coldOpsPerSecond sizes the solve-cold ops generated in set-up: about
	// twice the request rate the mix sustains on a 2-core Xeon. A faster
	// program does not run out: later ops are generated on first use.
	coldOpsPerSecond = 100
	// hotPool is the number of distinct solve-hot bodies.
	hotPool = 16
)

// daemonOptions mirrors sectord's default request options (-seed 1,
// -max-tuples 200000), so the harness's fingerprints and replays match
// what the daemon computes.
func daemonOptions() core.Options {
	return core.Options{Seed: 1, ExactLimits: exact.Limits{MaxTuples: 200_000}}
}

// httpOp is one request: a /solve of one instance or a /solve/batch.
type httpOp struct {
	path   string
	solver string
	body   []byte
	items  []*model.Instance // the instances as sent, never mutated
	pool   []int             // solve-hot: pool index of each item
}

// solveBody and batchBody are the request envelopes sectord accepts.
type solveBody struct {
	Solver        string          `json:"solver"`
	Seed          *int64          `json:"seed,omitempty"`
	TimeoutMillis int64           `json:"timeout_ms,omitempty"`
	FormatVersion int             `json:"format_version"`
	Instance      *model.Instance `json:"instance"`
}

type batchBody struct {
	Solver        string            `json:"solver"`
	Seed          *int64            `json:"seed,omitempty"`
	TimeoutMillis int64             `json:"timeout_ms,omitempty"`
	FormatVersion int               `json:"format_version"`
	Instances     []*model.Instance `json:"instances"`
}

func newOp(solver string, items []*model.Instance) (*httpOp, error) {
	op := &httpOp{path: "/solve", solver: solver, items: items}
	var err error
	if len(items) == 1 {
		op.body, err = json.Marshal(solveBody{Solver: solver, FormatVersion: 1, Instance: items[0]})
	} else {
		op.path = "/solve/batch"
		op.body, err = json.Marshal(batchBody{Solver: solver, FormatVersion: 1, Instances: items})
	}
	return op, err
}

// isBatch reports whether op i of a sequence is a batch.
func isBatch(i int) bool { return i%batchEvery == batchEvery-1 }

// coldConfig is the generator config of solve-cold's k-th instance: the
// families, sizes and antenna counts cycle in a fixed order, so every run
// sees the same mix and only the seeded geometry differs. Sizes are
// weighted 3:2:1 towards n=100 so a run collects enough requests for a p98.
func coldConfig(cfg config, k int) gen.Config {
	fams := []gen.Family{gen.Uniform, gen.Hotspot, gen.Zipf, gen.Rings}
	ns := []int{100, 100, 100, 200, 200, 400}
	ms := []int{4, 8}
	if cfg.tiny {
		ns = []int{20, 20, 40}
		ms = []int{2, 3}
	}
	return gen.Config{
		Family: fams[k%len(fams)],
		M:      ms[(k/len(fams))%len(ms)],
		N:      ns[(k/(len(fams)*len(ms)))%len(ns)],
		Seed:   mix64(cfg.seed, k),
	}
}

// coldSolver alternates the two served solvers over solo and batch ops.
func coldSolver(i int) string {
	return []string{"greedy", "auto"}[(i/batchEvery+i)%2]
}

// coldOp generates solve-cold's op i. It depends only on the seed and i:
// the ops before it hold i + (batchSize-1)·(i/batchEvery) instances.
func coldOp(cfg config, i int) (*httpOp, error) {
	n := 1
	if isBatch(i) {
		n = batchSize
	}
	k := i + (batchSize-1)*(i/batchEvery)
	items := make([]*model.Instance, n)
	for t := range items {
		in, err := gen.Generate(coldConfig(cfg, k+t))
		if err != nil {
			return nil, err
		}
		items[t] = in
	}
	return newOp(coldSolver(i), items)
}

// coldOps is solve-cold's request sequence: the first ops are generated
// in set-up, and any op past them when a client first takes it, before
// its timed span starts.
type coldOps struct {
	cfg   config
	pre   []*httpOp
	mu    sync.Mutex
	extra map[int]*httpOp // guarded by mu
}

func newColdOps(cfg config) (*coldOps, error) {
	c := &coldOps{cfg: cfg, pre: make([]*httpOp, int(cfg.seconds*coldOpsPerSecond)+64), extra: map[int]*httpOp{}}
	for i := range c.pre {
		op, err := coldOp(cfg, i)
		if err != nil {
			return nil, err
		}
		c.pre[i] = op
	}
	return c, nil
}

func (c *coldOps) op(i int) (*httpOp, error) {
	if i < len(c.pre) {
		return c.pre[i], nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if op, ok := c.extra[i]; ok {
		return op, nil
	}
	op, err := coldOp(c.cfg, i)
	if err == nil {
		c.extra[i] = op
	}
	return op, err
}

// genHotPool builds solve-hot's 16 bodies (n=1000, m=8; uniform, zipf
// and rings, solved by greedy) and its request sequence: solo ops cycle
// through the pool, batch ops through four fixed groups of four.
func genHotPool(cfg config) (solo, batches []*httpOp, err error) {
	fams := []gen.Family{gen.Uniform, gen.Zipf, gen.Rings}
	n, m := 1000, 8
	if cfg.tiny {
		n, m = 60, 3
	}
	ins := make([]*model.Instance, hotPool)
	for k := range ins {
		if ins[k], err = gen.Generate(gen.Config{Family: fams[k%len(fams)], N: n, M: m, Seed: mix64(cfg.seed, k)}); err != nil {
			return nil, nil, err
		}
		op, err := newOp("greedy", ins[k:k+1])
		if err != nil {
			return nil, nil, err
		}
		op.pool = []int{k}
		solo = append(solo, op)
	}
	for g := 0; g < hotPool/batchSize; g++ {
		op, err := newOp("greedy", ins[g*batchSize:(g+1)*batchSize])
		if err != nil {
			return nil, nil, err
		}
		for t := 0; t < batchSize; t++ {
			op.pool = append(op.pool, g*batchSize+t)
		}
		batches = append(batches, op)
	}
	return solo, batches, nil
}

// hotOp is solve-hot's op i.
func hotOp(i int, solo, batches []*httpOp) *httpOp {
	if isBatch(i) {
		return batches[(i/batchEvery)%len(batches)]
	}
	return solo[(i-i/batchEvery)%len(solo)]
}

// answer is one served solution as the client sees it.
type answer struct {
	Solver      string    `json:"solver"`
	Algorithm   string    `json:"algorithm"`
	Profit      int64     `json:"profit"`
	UpperBound  float64   `json:"upper_bound"`
	Orientation []float64 `json:"orientation"`
	Owner       []int     `json:"owner"`
	Degraded    bool      `json:"degraded"`
	Error       string    `json:"error"`
}

// decodeAnswers parses a /solve or /solve/batch reply into per-item answers.
func decodeAnswers(op *httpOp, body []byte) ([]answer, error) {
	if op.path == "/solve" {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		return []answer{a}, nil
	}
	var b struct {
		Items []answer `json:"items"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	if len(b.Items) != len(op.items) {
		return nil, fmt.Errorf("batch reply has %d items for %d instances", len(b.Items), len(op.items))
	}
	return b.Items, nil
}

// checkAnswer is the client-side correctness gate for one served answer:
// not degraded, feasible for the instance that was sent (core.VerifySolution),
// and carrying a certified upper bound no lower than its positive profit.
// greedy and auto always serve that bound, so a missing one (upper_bound
// is omitted when 0) is the loosest bound and fails the gate.
func checkAnswer(in *model.Instance, a answer) error {
	if a.Error != "" {
		return fmt.Errorf("item error: %s", a.Error)
	}
	if a.Degraded {
		return fmt.Errorf("degraded answer")
	}
	sol := model.Solution{Profit: a.Profit, Assignment: &model.Assignment{Orientation: a.Orientation, Owner: a.Owner}}
	if err := core.VerifySolution(a.Solver, in, sol); err != nil {
		return err
	}
	if a.Profit <= 0 || float64(a.Profit) > a.UpperBound*(1+1e-9) {
		return fmt.Errorf("profit %d is not within (0, served upper bound %g]", a.Profit, a.UpperBound)
	}
	return nil
}

// strippedHash hashes a reply without its per-request fields (elapsed
// times and cache provenance), so a cache hit hashes like the fill-time
// answer it must equal.
func strippedHash(body []byte) [32]byte {
	h := sha256.New()
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i+1], body[i+1:]
		} else {
			body = nil
		}
		t := bytes.TrimLeft(line, " ")
		if bytes.HasPrefix(t, []byte(`"elapsed_ms":`)) || bytes.HasPrefix(t, []byte(`"cache":`)) {
			continue
		}
		h.Write(line)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Corruption modes (-corrupt): the value one received answer is given
// inside the harness, to prove the gate trips.
const (
	corruptProfit = "profit" // the profit gains a leading digit, so it no longer matches the assignment
	corruptBound  = "bound"  // the upper bound becomes 0, a bound the daemon failed to serve
)

// corrupter hands out exactly one corruption when a mode is set.
type corrupter struct {
	mode  string
	armed atomic.Bool
}

func newCorrupter(mode string) *corrupter {
	c := &corrupter{mode: mode}
	c.armed.Store(mode != "")
	return c
}

func (c *corrupter) fire() bool { return c.armed.CompareAndSwap(true, false) }

// corruptBody rewrites the first "profit" or "upper_bound" value of a
// reply, per mode. Either way the gate must reject whichever reply it hits.
func corruptBody(mode string, body []byte) []byte {
	key := []byte(`"profit": `)
	if mode == corruptBound {
		key = []byte(`"upper_bound": `)
	}
	i := bytes.Index(body, key)
	if i < 0 {
		return body
	}
	start := i + len(key)
	end := start
	for end < len(body) && bytes.IndexByte([]byte("0123456789.eE+-"), body[end]) >= 0 {
		end++
	}
	val := []byte("0")
	if mode == corruptProfit {
		val = append([]byte("1"), body[start:end]...)
	}
	out := append([]byte(nil), body[:start]...)
	out = append(out, val...)
	return append(out, body[end:]...)
}

// loopResult is one closed-loop phase.
type loopResult struct {
	latMS     []float64 // per completed op
	opIndex   []int     // the op index of each latMS entry
	attempted int64
	failed    int64
	elapsed   time.Duration
	next      int // first op index the phase did not start
}

// closedLoop runs clients workers, each sending its next op only after the
// previous one completed, taking op indices from first upward until the
// window closes. do performs op i and returns its latency and whether it
// succeeded; an error aborts the phase.
func closedLoop(clients int, first int, window time.Duration, do func(i int) (time.Duration, bool, error)) (loopResult, error) {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(window)
	var mu sync.Mutex
	res := loopResult{}
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var idx []int
			var attempted, failed int64
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				attempted++
				d, ok, err := do(i)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					break
				}
				if !ok {
					failed++
					continue
				}
				lat = append(lat, ms(d))
				idx = append(idx, i)
			}
			mu.Lock()
			res.latMS = append(res.latMS, lat...)
			res.opIndex = append(res.opIndex, idx...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.next = int(next.Load())
	return res, firstErr
}

// httpBench is the state one HTTP workload run shares across its phases.
type httpBench struct {
	cold   bool
	fleet  *fleet
	client *http.Client
	ops    func(i int) (*httpOp, error)
	bad    *corrupter

	mu      sync.Mutex
	replies map[int]reply // solve-cold: every reply, checked after the run; guarded by mu
	gateErr []string      // guarded by mu

	// solve-hot: the verified fill-time answer per pool body, and the
	// expected stripped hash per request body.
	pool     []*httpOp
	fill     []answer
	expected map[*httpOp][32]byte

	// Traced runs only: an in-process daemon and cache replaying the
	// served path, and the per-layer counters.
	srv http.Handler
	lib *cache.Cache
}

// gateFail records a correctness-gate failure (the first 20 are kept).
func (b *httpBench) gateFail(format string, args ...any) {
	b.mu.Lock()
	b.gateFailLocked(format, args...)
	b.mu.Unlock()
}

// gateFailLocked is gateFail for callers that hold b.mu.
func (b *httpBench) gateFailLocked(format string, args ...any) {
	if len(b.gateErr) < 20 {
		b.gateErr = append(b.gateErr, fmt.Sprintf(format, args...))
	}
}

// send performs op i through the proxy and applies the inline part of the
// correctness gate: solve-hot replies must hash like their fill-time
// answer; solve-cold replies are kept and checked after the run.
func (b *httpBench) send(ctx context.Context, i int) (reply, time.Duration, bool, error) {
	op, err := b.ops(i)
	if err != nil {
		return reply{}, 0, false, err
	}
	start := time.Now()
	r, err := post(ctx, b.client, b.fleet.proxy.url+op.path, op.body)
	d := time.Since(start)
	if err != nil || r.status != http.StatusOK {
		return r, d, false, nil
	}
	if b.bad.fire() {
		r.body = corruptBody(b.bad.mode, r.body)
	}
	if b.cold {
		b.mu.Lock()
		b.replies[i] = r
		b.mu.Unlock()
		return r, d, true, nil
	}
	if strippedHash(r.body) != b.expected[op] {
		b.gateFail("op %d: reply differs from the fill-time answer", i)
		return r, d, false, nil
	}
	return r, d, true, nil
}

// checkCold runs the deferred solve-cold gate over every kept reply.
func (b *httpBench) checkCold() (failed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, r := range b.replies {
		op, _ := b.ops(i)
		as, err := decodeAnswers(op, r.body)
		if err == nil {
			for t, a := range as {
				if err = checkAnswer(op.items[t], a); err != nil {
					err = fmt.Errorf("item %d: %w", t, err)
					break
				}
			}
		}
		if err != nil {
			failed++
			b.gateFailLocked("op %d: %v", i, err)
		}
	}
	return failed
}

// prefixQuality sums served profit and served upper bound over the first
// prefix ops of the sequence, which every run completes.
func (b *httpBench) prefixQuality(prefix int) (profit, bound float64, err error) {
	for i := 0; i < prefix; i++ {
		op, _ := b.ops(i)
		if !b.cold {
			for _, k := range op.pool {
				profit += float64(b.fill[k].Profit)
				bound += b.fill[k].UpperBound
			}
			continue
		}
		b.mu.Lock()
		r, ok := b.replies[i]
		b.mu.Unlock()
		if !ok {
			return 0, 0, fmt.Errorf("op %d of the quality prefix did not complete", i)
		}
		as, err := decodeAnswers(op, r.body)
		if err != nil {
			return 0, 0, err
		}
		for _, a := range as {
			profit += float64(a.Profit)
			bound += a.UpperBound
		}
	}
	return profit, bound, nil
}

// fillHot sends every pool body once through the proxy (the cache fill),
// one at a time so each fill's latency is its own solve and not a random
// pairing with another, verifies each answer, and records the expected
// reply hashes; then probes each batch group once, whose items must equal
// the fill answers. It returns the fill latencies.
func (b *httpBench) fillHot(ctx context.Context, solo, batches []*httpOp) ([]float64, error) {
	b.fill = make([]answer, len(solo))
	b.expected = map[*httpOp][32]byte{}
	lat := make([]float64, len(solo))
	for k, op := range solo {
		start := time.Now()
		r, err := post(ctx, b.client, b.fleet.proxy.url+op.path, op.body)
		lat[k] = ms(time.Since(start))
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", r.status, r.body)
		}
		var as []answer
		if err == nil {
			as, err = decodeAnswers(op, r.body)
		}
		if err == nil {
			err = checkAnswer(op.items[0], as[0])
		}
		if err != nil {
			return nil, fmt.Errorf("fill %d: %w", k, err)
		}
		b.fill[k] = as[0]
		b.expected[op] = strippedHash(r.body)
	}
	for g, op := range batches {
		r, err := post(ctx, b.client, b.fleet.proxy.url+op.path, op.body)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		var as []answer
		if err == nil {
			as, err = decodeAnswers(op, r.body)
		}
		for t := 0; err == nil && t < len(as); t++ {
			f := b.fill[op.pool[t]]
			a := as[t]
			if a.Profit != f.Profit || a.UpperBound != f.UpperBound || !slices.Equal(a.Owner, f.Owner) ||
				!slices.EqualFunc(a.Orientation, f.Orientation, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				err = fmt.Errorf("item %d differs from its fill-time answer", t)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("batch probe %d: %w", g, err)
		}
		b.expected[op] = strippedHash(r.body)
	}
	return lat, nil
}

// setupHTTP is one set-up: start the fleet, generate the bodies, and on
// solve-hot fill the cache. It returns the set-up time and, on solve-hot,
// the fill latencies.
func setupHTTP(ctx context.Context, cfg config, cold bool) (*httpBench, time.Duration, []float64, error) {
	start := time.Now()
	f, err := startFleet(cfg.bin)
	if err != nil {
		return nil, 0, nil, err
	}
	b := &httpBench{cold: cold, fleet: f, client: httpClient(), bad: newCorrupter(cfg.corrupt), replies: map[int]reply{}}
	var fillLat []float64
	if cold {
		ops, err := newColdOps(cfg)
		if err != nil {
			f.stop()
			return nil, 0, nil, err
		}
		b.ops = ops.op
	} else {
		solo, batches, err := genHotPool(cfg)
		if err == nil {
			b.pool = solo
			b.ops = func(i int) (*httpOp, error) { return hotOp(i, solo, batches), nil }
			fillLat, err = b.fillHot(ctx, solo, batches)
		}
		if err != nil {
			f.stop()
			return nil, 0, nil, err
		}
	}
	return b, time.Since(start), fillLat, nil
}

func runSolveCold(cfg config) (*report, error) { return runHTTP(cfg, true) }
func runSolveHot(cfg config) (*report, error)  { return runHTTP(cfg, false) }

// runHTTP runs solve-cold or solve-hot.
func runHTTP(cfg config, cold bool) (*report, error) {
	ctx := context.Background()
	setups := setupsPerRun
	if cfg.trace {
		setups = 1
	}
	var setupS, createMS []float64
	var b *httpBench
	for k := 0; k < setups; k++ {
		if b != nil {
			b.fleet.stop()
		}
		var d time.Duration
		var fill []float64
		var err error
		if b, d, fill, err = setupHTTP(ctx, cfg, cold); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		createMS = append(createMS, fill...)
	}
	defer b.fleet.stop()

	window := measureWindow(cfg)
	do := func(i int) (time.Duration, bool, error) {
		_, d, ok, err := b.send(ctx, i)
		return d, ok, err
	}
	res, err := closedLoop(httpClients, 0, window, do)
	if err != nil {
		return nil, err
	}
	rssMB := peakRSSMB(b.fleet.sectord.pid())
	rep := &report{}
	if cfg.trace {
		traced, tr, extra, err := b.tracedPhase(ctx, res.next, window)
		if err != nil {
			return nil, err
		}
		res.attempted += traced.attempted
		res.failed += traced.failed
		extra["trace.overhead_ratio"] = median(traced.latMS) / median(res.latMS)
		rep.Metrics, rep.notes = perLayerMetrics(tr, httpTree, extra)
		if err := tr.write(spanPath(cfg)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.notes = append(rep.notes, "spans: "+spanPath(cfg))
	}
	if cold {
		res.failed += b.checkCold()
	}
	rep.Attempted, rep.Failed = res.attempted, res.failed
	rep.Correct = len(b.gateErr) == 0
	for _, e := range b.gateErr {
		rep.notes = append(rep.notes, "GATE FAILED: "+e)
	}
	if cfg.trace {
		return rep, nil
	}

	prefix := 256
	if cfg.tiny {
		prefix = 8
	}
	profit, bound, err := b.prefixQuality(prefix)
	if err != nil {
		return nil, err
	}
	if cold {
		// Every solo request is the first solve of its instance.
		createMS = nil
		for t, i := range res.opIndex {
			if !isBatch(i) {
				createMS = append(createMS, res.latMS[t])
			}
		}
	}
	// tail_ms is the highest percentile with at least 10 samples beyond it
	// at 25 s: solve-cold completes about 1000 ops there, so p98.
	tailPct := 99.0
	if cold {
		tailPct = 98
	}
	tail, beyond := percentile(res.latMS, tailPct)
	ratio := 0.0
	if bound > 0 {
		ratio = profit / bound
	}
	rep.Metrics = map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"p50_ms":         {median(res.latMS), "ms"},
		"tail_ms":        {tail, "ms"},
		"throughput_ops": {float64(len(res.latMS)) / res.elapsed.Seconds(), "1/s"},
		"create_ms":      {median(createMS), "ms"},
		"profit_sum":     {profit, "profit"},
		"bound_ratio":    {ratio, "ratio"},
		"peak_rss_mb":    {rssMB, "MB"},
	}
	rep.notes = append(rep.notes, fmt.Sprintf("tail_ms is p%g over %d ops (%d beyond it); quality prefix = first %d ops; set-ups %v s",
		tailPct, len(res.latMS), beyond, prefix, setupS))
	return rep, nil
}
