package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"sectorpack/internal/angular"
	"sectorpack/internal/cache"
	"sectorpack/internal/cols"
	"sectorpack/internal/core"
	"sectorpack/internal/daemon"
	"sectorpack/internal/model"
)

// countMetrics are the per-layer metrics that are counts or ratios rather
// than times, with their units.
var countMetrics = map[string]string{
	"daemon.resp_bytes":          "bytes",
	"model.req_bytes":            "bytes",
	"cache.hit_ratio":            "ratio",
	"core.batch_speedup":         "ratio",
	"angular.candidates":         "count",
	"angular.eligible":           "count",
	"session.sweeps_kept_ratio":  "ratio",
	"session.steps_reused_ratio": "ratio",
	"trace.overhead_ratio":       "ratio",
}

// perLayerMetrics assembles a traced run's metrics: every timed layer of
// the tree plus the counts, with zeros for layers the workload never runs.
func perLayerMetrics(tr *tracer, tree []layerNode, counts map[string]float64) (map[string]metric, []string) {
	out, lines := tr.layerMetrics(tree)
	for name, unit := range countMetrics {
		out[name] = metric{counts[name], unit}
	}
	return out, lines
}

// httpTally accumulates a traced HTTP phase's counts.
type httpTally struct {
	mu                   sync.Mutex
	hits, lookups        int64
	respBytes, reqBytes  []float64
	candidates, eligible []float64
	batchSearch, batchMS float64
}

// tracedPhase is the second half of a traced run: the same closed loop,
// continuing the op sequence, where each op's request through the proxy
// (the traced op time) is followed by calls into every layer it crosses:
// the same body direct to sectord (for the proxy hop), the proxy's own
// decode and route key, an in-process daemon handling it, and the library
// calls the daemon makes, each timed as a span.
func (b *httpBench) tracedPhase(ctx context.Context, first int, window time.Duration) (loopResult, *tracer, map[string]float64, error) {
	b.srv = daemon.NewServer(daemon.Config{Timeout: 30 * time.Second, Seed: 1, MaxTuples: 200_000}).Handler()
	b.lib = cache.New(0)
	if !b.cold {
		if err := b.prefillInProcess(); err != nil {
			return loopResult{}, nil, nil, err
		}
	}
	tr := newTracer()
	tally := &httpTally{}
	do := func(i int) (time.Duration, bool, error) {
		ot := tr.begin(int64(i))
		var r reply
		var d time.Duration
		var ok bool
		var err error
		ot.timed("http.via", func() { r, d, ok, err = b.send(ctx, i) })
		if err != nil || !ok {
			return d, ok, err
		}
		err = b.replay(ctx, i, r, d, ot, tally)
		// A batch's items run in parallel on the daemon's worker pool, so
		// their one-by-one replays do not add up to its wall time: batches
		// feed core.batch_speedup and the counts, not the split.
		ot.finish(ms(d), !isBatch(i))
		return d, err == nil, err
	}
	res, err := closedLoop(httpClients, first, window, do)
	if err != nil {
		return res, nil, nil, err
	}
	counts := map[string]float64{
		"daemon.resp_bytes":  median(tally.respBytes),
		"model.req_bytes":    median(tally.reqBytes),
		"angular.candidates": median(tally.candidates),
		"angular.eligible":   median(tally.eligible),
	}
	if tally.lookups > 0 {
		counts["cache.hit_ratio"] = float64(tally.hits) / float64(tally.lookups)
	}
	if tally.batchMS > 0 {
		counts["core.batch_speedup"] = tally.batchSearch / tally.batchMS
	}
	return res, tr, counts, nil
}

// prefillInProcess gives the in-process daemon and the harness's cache the
// same warm state the real sectord has on solve-hot.
func (b *httpBench) prefillInProcess() error {
	for k, op := range b.pool {
		rec := httptest.NewRecorder()
		b.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, op.path, bytes.NewReader(op.body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process fill %d: status %d", k, rec.Code)
		}
		ins, err := daemonDecode(op)
		if err != nil {
			return err
		}
		fp, err := cache.NewFingerprint(ins[0], daemonOptions(), op.solver)
		if err != nil {
			return err
		}
		f := b.fill[op.pool[0]]
		b.lib.Put(fp, model.Solution{
			Profit: f.Profit, UpperBound: f.UpperBound, Algorithm: f.Algorithm,
			Assignment: &model.Assignment{Orientation: f.Orientation, Owner: f.Owner},
		})
	}
	return nil
}

// replay times op i's layers after its real request r (latency d).
func (b *httpBench) replay(ctx context.Context, i int, r reply, d time.Duration, ot *opTrace, tally *httpTally) error {
	op, err := b.ops(i)
	if err != nil {
		return err
	}
	hits, lookups := cacheOutcome(op, r)
	hop := d
	if b.cold {
		// The op itself was a miss; time the proxy on a hit of the same
		// body, as the direct request below is one.
		var again reply
		hop = ot.timed("http.via_hit", func() { again, err = post(ctx, b.client, b.fleet.proxy.url+op.path, op.body) })
		if err == nil && again.status != http.StatusOK {
			err = fmt.Errorf("repeat via proxy: status %d", again.status)
		}
		if err != nil {
			return err
		}
	}
	var direct reply
	dd := ot.timed("http.direct", func() { direct, err = post(ctx, b.client, b.fleet.sectord.url+op.path, op.body) })
	if err == nil && direct.status != http.StatusOK {
		err = fmt.Errorf("direct: status %d", direct.status)
	}
	if err != nil {
		return err
	}
	ot.set("sectorproxy.hop", ms(hop)-ms(dd))
	ot.timed("sectorproxy.route_key", func() { err = proxyRouteKeys(op) })
	if err != nil {
		return fmt.Errorf("route key: %w", err)
	}
	rec := httptest.NewRecorder()
	ot.timed("daemon.handle", func() {
		b.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, op.path, bytes.NewReader(op.body)))
	})
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process daemon: status %d", rec.Code)
	}
	var ins []*model.Instance
	ot.timed("model.decode", func() { ins, err = daemonDecode(op) })
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	solver, err := core.Get(op.solver)
	if err != nil {
		return err
	}
	opt := daemonOptions()
	skip := opt
	skip.SkipBound = true
	var searchMS, candidates, eligible float64
	for _, in := range ins {
		var fp *cache.Fingerprint
		ot.timed("cache.fingerprint", func() { fp, err = cache.NewFingerprint(in, opt, op.solver) })
		if err != nil {
			return err
		}
		var sol model.Solution
		var hit bool
		ot.timed("cache.lookup", func() { sol, hit = b.lib.Get(fp) })
		if !hit {
			ot.timed("cols.build", func() { cols.New(in) })
			eng := angular.NewEngine(in)
			ot.timed("angular.prewarm", func() { err = eng.Prewarm(ctx) })
			if err != nil {
				return err
			}
			for j := range in.Antennas {
				candidates += float64(len(eng.Candidates(j)))
				eligible += float64(eng.Sweep(j).Len())
			}
			searchMS += ms(ot.timed("core.search", func() { sol, err = solver(ctx, in, skip) }))
			if err != nil {
				return fmt.Errorf("search: %w", err)
			}
			ot.timed("core.bound", func() { sol.UpperBound = core.UpperBound(in) })
		}
		ot.timed("core.verify", func() { err = core.VerifySolution(op.solver, in, sol) })
		if err != nil {
			return fmt.Errorf("verify replayed answer: %w", err)
		}
	}
	var batchMS float64
	if b.cold && len(ins) > 1 {
		batchMS = ms(ot.timed("core.batch", func() {
			for _, res := range core.SolveBatch(ctx, ins, solver, core.BatchOptions{
				Options: skip, SolverName: op.solver, Workers: daemon.DefaultMaxInflight,
			}) {
				if res.Err != nil && err == nil {
					err = res.Err
				}
			}
		}))
		if err != nil {
			return fmt.Errorf("batch: %w", err)
		}
	}

	tally.mu.Lock()
	defer tally.mu.Unlock()
	tally.hits += hits
	tally.lookups += lookups
	tally.respBytes = append(tally.respBytes, float64(len(direct.body)))
	tally.reqBytes = append(tally.reqBytes, float64(len(op.body)))
	if searchMS > 0 {
		tally.candidates = append(tally.candidates, candidates)
		tally.eligible = append(tally.eligible, eligible)
	}
	if batchMS > 0 {
		tally.batchSearch += searchMS
		tally.batchMS += batchMS
	}
	return nil
}

// cacheOutcome counts the cache hits and lookups an answer reports in its
// X-Sectord-Cache header ("hit"/"miss"/... for /solve, a
// "hits=..,misses=..,collapsed=..,bypass=.." summary for /solve/batch).
func cacheOutcome(op *httpOp, r reply) (hits, lookups int64) {
	if op.path == "/solve" {
		if r.cache == "hit" {
			return 1, 1
		}
		return 0, 1
	}
	var h, m, c, by int64
	if _, err := fmt.Sscanf(r.cache, "hits=%d,misses=%d,collapsed=%d,bypass=%d", &h, &m, &c, &by); err != nil {
		return 0, int64(len(op.items))
	}
	return h, h + m + c
}

// daemonDecode decodes a body the way sectord does: strict JSON into the
// request envelope, then Normalize and Validate every instance.
func daemonDecode(op *httpOp) ([]*model.Instance, error) {
	dec := json.NewDecoder(bytes.NewReader(op.body))
	dec.DisallowUnknownFields()
	var ins []*model.Instance
	if op.path == "/solve" {
		var req solveBody
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		ins = []*model.Instance{req.Instance}
	} else {
		var req batchBody
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		ins = req.Instances
	}
	for _, in := range ins {
		in.Normalize()
		if err := in.Validate(); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// proxyRouteKeys does sectorproxy's per-request work on a body: decode it
// (a batch envelope with raw items, then each item again), Normalize,
// Validate, and compute the consistent-hash routing key.
func proxyRouteKeys(op *httpOp) error {
	opt := daemonOptions()
	key := func(in *model.Instance, solver string) error {
		in.Normalize()
		if err := in.Validate(); err != nil {
			return err
		}
		_, err := cache.RoutingKey(in, opt, solver)
		return err
	}
	if op.path == "/solve" {
		var req solveBody
		if err := json.Unmarshal(op.body, &req); err != nil {
			return err
		}
		return key(req.Instance, req.Solver)
	}
	var env struct {
		Solver    string            `json:"solver"`
		Instances []json.RawMessage `json:"instances"`
	}
	if err := json.Unmarshal(op.body, &env); err != nil {
		return err
	}
	for _, raw := range env.Instances {
		var in *model.Instance
		if err := json.Unmarshal(raw, &in); err != nil {
			return err
		}
		if err := key(in, env.Solver); err != nil {
			return err
		}
	}
	return nil
}
