package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer, kept in memory and
// written out as one JSON line when the run ends. Every span of an op
// shares the op's ID; Parent is the op's root span.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and, per op, the summed time of each layer.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span     // guarded by mu
	ops   []opRecord // guarded by mu
}

// opRecord is one traced op: its time and each layer's inclusive time
// (summed over the op's items), in milliseconds.
type opRecord struct {
	opMS   float64
	layers map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opTrace is an op being traced. It is used by one goroutine.
type opTrace struct {
	t      *tracer
	op     int64
	root   int64
	start  time.Time
	spans  []span
	layers map[string]float64
}

func (t *tracer) begin(op int64) *opTrace {
	return &opTrace{t: t, op: op, root: t.ids.Add(1), start: time.Now(), layers: map[string]float64{}}
}

// timed runs fn as a span named name and adds its time to the layer of
// the same name. On a nil opTrace (an untraced op) it only times fn.
func (o *opTrace) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if o == nil {
		return end.Sub(start)
	}
	o.spans = append(o.spans, span{
		Op: o.op, ID: o.t.ids.Add(1), Parent: o.root, Name: name,
		Start: int64(start.Sub(o.t.t0)), End: int64(end.Sub(o.t.t0)),
	})
	d := end.Sub(start)
	o.layers[name] += ms(d)
	return d
}

// set records a layer time derived from other spans (the proxy hop).
func (o *opTrace) set(layer string, v float64) { o.layers[layer] = v }

// finish closes the op's root span. When attribute is set, the op's layer
// times join the per-layer split, attributed against opMS, the traced op
// time.
func (o *opTrace) finish(opMS float64, attribute bool) {
	end := time.Now()
	o.spans = append(o.spans, span{
		Op: o.op, ID: o.root, Name: "op",
		Start: int64(o.start.Sub(o.t.t0)), End: int64(end.Sub(o.t.t0)),
	})
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.spans...)
	if attribute {
		o.t.ops = append(o.t.ops, opRecord{opMS: opMS, layers: o.layers})
	}
	o.t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerNode is one layer of a workload's attribution tree: its time is
// part of its parent's (the op's, for top-level layers), and its self time
// is its time minus its children's.
type layerNode struct {
	name   string
	parent string
}

// httpTree is how a /solve op's time divides: the proxy hop (via-proxy
// minus direct latency for the same body) around the proxy's own decode
// and route key, and the daemon's in-process handling around the library
// calls it makes. The rest of the op is loopback transport and the client.
var httpTree = []layerNode{
	{"sectorproxy.hop", ""},
	{"sectorproxy.route_key", "sectorproxy.hop"},
	{"daemon.handle", ""},
	{"model.decode", "daemon.handle"},
	{"cache.fingerprint", "daemon.handle"},
	{"cache.lookup", "daemon.handle"},
	{"core.search", "daemon.handle"},
	{"angular.prewarm", "core.search"},
	{"cols.build", "angular.prewarm"},
	{"core.bound", "daemon.handle"},
	{"core.verify", "daemon.handle"},
}

// churnTree is how churn-100k's session calls divide: session.New around
// the engine prewarm, and session.Apply around the delta materialization
// and the engine rebase; the session's self time is its greedy solve.
var churnTree = []layerNode{
	{"session.create", ""},
	{"angular.prewarm", "session.create"},
	{"cols.build", "angular.prewarm"},
	{"session.apply", ""},
	{"model.apply_delta", "session.apply"},
	{"angular.rebase", "session.apply"},
}

// selfMetrics are the layers whose self time is reported as a metric of
// its own (<layer>.self_ms), and the layer whose self it is.
var selfMetrics = map[string]string{
	"sectorproxy.self": "sectorproxy.hop",
	"daemon.self":      "daemon.handle",
	"session.self":     "session.apply",
}

// timedLayers are all layers reported as <layer>_ms and <layer>_share.
var timedLayers = []string{
	"sectorproxy.hop", "sectorproxy.route_key", "sectorproxy.self",
	"daemon.handle", "daemon.self",
	"model.decode", "model.apply_delta",
	"cache.fingerprint", "cache.lookup",
	"core.search", "core.bound", "core.verify",
	"cols.build", "angular.prewarm", "angular.rebase",
	"session.create", "session.apply", "session.self",
	"trace.unattributed",
}

// layerMetrics attributes the traced ops over the tree and returns each
// layer's median time per op (over the ops it ran in) and its share of
// the total traced op time, plus the table lines showing that the self
// times and the unattributed remainder add up to the op time.
func (t *tracer) layerMetrics(tree []layerNode) (map[string]metric, []string) {
	t.mu.Lock()
	ops := t.ops
	t.mu.Unlock()
	children := map[string][]string{}
	for _, n := range tree {
		children[n.parent] = append(children[n.parent], n.name)
	}
	self := func(rec opRecord, name string) (float64, bool) {
		v, ok := rec.layers[name]
		if name == "" {
			v, ok = rec.opMS, true
		}
		if !ok {
			return 0, false
		}
		for _, c := range children[name] {
			v -= rec.layers[c]
		}
		return v, true
	}
	perOp := map[string][]float64{}
	total := map[string]float64{}
	selfTotal := map[string]float64{}
	var opTotal float64
	var opMS []float64
	for _, rec := range ops {
		opTotal += rec.opMS
		opMS = append(opMS, rec.opMS)
		for _, n := range tree {
			if v, ok := rec.layers[n.name]; ok {
				perOp[n.name] = append(perOp[n.name], v)
				total[n.name] += v
				s, _ := self(rec, n.name)
				selfTotal[n.name] += s
			}
		}
		u, _ := self(rec, "")
		perOp["trace.unattributed"] = append(perOp["trace.unattributed"], u)
		total["trace.unattributed"] += u
		for m, of := range selfMetrics {
			if s, ok := self(rec, of); ok {
				perOp[m] = append(perOp[m], s)
				total[m] += s
			}
		}
	}
	share := func(v float64) float64 {
		if opTotal == 0 {
			return 0
		}
		return v / opTotal
	}
	out := map[string]metric{}
	for _, name := range timedLayers {
		out[name+"_ms"] = metric{median(perOp[name]), "ms"}
		out[name+"_share"] = metric{share(total[name]), "ratio"}
	}
	out["trace.op_ms"] = metric{median(opMS), "ms"}

	lines := []string{fmt.Sprintf("-- per-layer split over %d traced ops (%.1f ms traced op time in total)", len(ops), opTotal),
		fmt.Sprintf("   %-24s %12s %10s %10s", "layer", "median ms", "share", "self share")}
	accounted := 0.0
	for _, n := range tree {
		lines = append(lines, fmt.Sprintf("   %-24s %12.4f %9.2f%% %9.2f%%", indent(tree, n)+n.name,
			median(perOp[n.name]), 100*share(total[n.name]), 100*share(selfTotal[n.name])))
		accounted += selfTotal[n.name]
	}
	u := total["trace.unattributed"]
	lines = append(lines,
		fmt.Sprintf("   %-24s %12.4f %9s %9.2f%%", "unattributed", median(perOp["trace.unattributed"]), "", 100*share(u)),
		fmt.Sprintf("   %-24s %12.4f %9s %9.2f%%", "op (sum of self)", median(opMS), "", 100*share(accounted+u)))
	return out, lines
}

func indent(tree []layerNode, n layerNode) string {
	parent := map[string]string{}
	for _, m := range tree {
		parent[m.name] = m.parent
	}
	s := ""
	for p := n.parent; p != ""; p = parent[p] {
		s += "  "
	}
	return s
}
