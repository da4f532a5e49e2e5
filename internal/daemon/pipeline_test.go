package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sectorpack/internal/core"
	"sectorpack/internal/model"
)

// The route × failure-class table: every POST route of the request
// pipeline (/solve, a /solve/batch item, POST /session and POST
// /session/{id}/delta) is driven into every failure class it can reach,
// and the test pins the status, the error string and the one counter that
// moved. The four routes share one admission step and one error
// taxonomy, so a row that differs between routes is a wire difference a
// client can see.

// pipelineBaseN is the customer count of sectorsInstance. The fault
// solvers answer like greedy up to it and misbehave above it, so a session
// can be opened on the base instance and a delta adding one customer
// trips the fault.
const pipelineBaseN = 5

// registerFaultAbove registers a solver that runs greedy on instances of
// at most pipelineBaseN customers and fault on larger ones.
func registerFaultAbove(name string, fault func(ctx context.Context, in *model.Instance) (model.Solution, error)) {
	core.Register(name, func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		if in.N() <= pipelineBaseN {
			return core.SolveGreedy(ctx, in, opt)
		}
		return fault(ctx, in)
	})
}

// pipelineFaults registers one fault solver per solver-side failure class
// and returns their names.
func pipelineFaults(t *testing.T) map[string]string {
	names := map[string]string{
		"panic":    "test-pipe-panic",
		"deadline": "test-pipe-hang",
		"invalid":  "test-pipe-invalid",
		"plain":    "test-pipe-plain",
	}
	registerFaultAbove(names["panic"], func(context.Context, *model.Instance) (model.Solution, error) {
		panic("injected: " + names["panic"])
	})
	registerFaultAbove(names["deadline"], func(ctx context.Context, _ *model.Instance) (model.Solution, error) {
		<-ctx.Done()
		return model.Solution{}, ctx.Err()
	})
	registerFaultAbove(names["invalid"], func(_ context.Context, in *model.Instance) (model.Solution, error) {
		// Every customer on antenna 0: uncovered and over capacity.
		as := model.NewAssignment(in.N(), in.M())
		var profit int64
		for i := range as.Owner {
			as.Owner[i] = 0
			profit += in.Customers[i].Profit
		}
		return model.Solution{Assignment: as, Profit: profit}, nil
	})
	registerFaultAbove(names["plain"], func(context.Context, *model.Instance) (model.Solution, error) {
		return model.Solution{}, errors.New(names["plain"] + ": injected failure")
	})
	t.Cleanup(func() {
		for _, name := range names {
			core.Unregister(name)
		}
	})
	return names
}

// extraCustomer is the customer a delta adds to trip a fault solver.
var extraCustomer = model.Customer{Theta: 2.0, R: 1, Demand: 1, Profit: 1}

// grownInstance is sectorsInstance plus extraCustomer: large enough to trip
// the fault solvers on the one-shot routes.
func grownInstance() *model.Instance {
	in := sectorsInstance()
	in.Customers = append(in.Customers, extraCustomer)
	return in.Normalize()
}

// pipelineCounters reads the failure counters the table pins.
func pipelineCounters(s *Server) map[string]int64 {
	return map[string]int64{
		"shed":          s.shed.Value(),
		"failures":      s.failures.Value(),
		"panics":        s.panics.Value(),
		"cancellations": s.cancellations.Value(),
		"invalid":       s.invalid.Value(),
	}
}

// pipelineWant is one table cell. msg is the exact error string unless
// prefix is set; an empty counter marks a class the route cannot reach.
type pipelineWant struct {
	status  int
	msg     string
	prefix  bool
	counter string
}

func TestPipelineRouteFailureTable(t *testing.T) {
	faults := pipelineFaults(t)
	classes := []string{"shed", "bad JSON", "unknown field", "format_version", "missing instance",
		"unknown solver", "panic", "deadline", "invalid", "plain"}

	solveFailed := func(class string) pipelineWant {
		name := faults[class]
		switch class {
		case "panic":
			return pipelineWant{500, fmt.Sprintf("solve failed: core: solver %q panicked: injected: %s", name, name), false, "panics"}
		case "deadline":
			return pipelineWant{503, "solve aborted: context deadline exceeded", false, "cancellations"}
		case "invalid":
			return pipelineWant{500, fmt.Sprintf("solve failed: core: solver %q returned an invalid solution: ", name), true, "invalid"}
		default:
			return pipelineWant{400, "solve failed: " + name + ": injected failure", false, "failures"}
		}
	}
	admission := map[string]pipelineWant{
		"shed":             {429, "server at capacity", false, "shed"},
		"bad JSON":         {400, "decode request: unexpected EOF", false, "failures"},
		"unknown field":    {400, `decode request: json: unknown field "bogus"`, false, "failures"},
		"format_version":   {400, "unsupported format_version 2 (want 1)", false, "failures"},
		"missing instance": {400, "request missing instance", false, "failures"},
		"unknown solver":   {400, `core: unknown solver "test-pipe-none" (have `, true, "failures"},
	}
	want := func(route, class string) pipelineWant {
		if w, ok := admission[class]; ok {
			switch {
			case route == "batch" && class == "missing instance":
				return pipelineWant{200, "missing instance", false, "failures"}
			case route == "delta" && class == "missing instance":
				return pipelineWant{404, `no session "s-none" (expired or never created)`, false, "failures"}
			case route == "delta" && class == "unknown solver":
				return pipelineWant{} // the solver is fixed when the session opens
			}
			return w
		}
		w := solveFailed(class)
		if route == "batch" {
			// A batch item carries the solver's error as is.
			w.status, w.msg = 200, strings.TrimPrefix(strings.TrimPrefix(w.msg, "solve failed: "), "solve aborted: ")
		}
		return w
	}

	for _, route := range []string{"solve", "batch", "create", "delta"} {
		for _, class := range classes {
			w := want(route, class)
			if w.counter == "" {
				continue
			}
			t.Run(route+"/"+class, func(t *testing.T) {
				s := NewServer(Config{MaxInflight: 2})
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()

				solver := faults[class]
				switch class {
				case "shed", "bad JSON", "unknown field", "format_version", "missing instance":
					solver = "greedy"
				case "unknown solver":
					solver = "test-pipe-none"
				}
				body := map[string]any{"format_version": 1}
				if class == "deadline" {
					body["timeout_ms"] = 50
				}
				path := "/solve"
				switch route {
				case "solve", "create":
					if route == "create" {
						path = "/session"
					}
					body["solver"] = solver
					if class != "missing instance" {
						body["instance"] = grownInstance()
					}
				case "batch":
					path = "/solve/batch"
					body["solver"] = solver
					body["instances"] = []any{grownInstance()}
					if class == "missing instance" {
						body["instances"] = []any{nil}
					}
				case "delta":
					create, err := json.Marshal(map[string]any{"solver": solver, "format_version": 1, "instance": sectorsInstance()})
					if err != nil {
						t.Fatal(err)
					}
					resp, raw := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/session", create)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("create: %d %s", resp.StatusCode, raw)
					}
					id := decodeSessResp(t, raw).SessionID
					if class == "missing instance" {
						id = "s-none"
					}
					path = "/session/" + id + "/delta"
					body["delta"] = model.Delta{Add: []model.Customer{extraCustomer}}
				}
				switch class {
				case "unknown field":
					body["bogus"] = true
				case "format_version":
					body["format_version"] = 2
				}
				raw, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				if class == "bad JSON" {
					raw = []byte(`{"format_version": 1,`)
				}

				before := pipelineCounters(s)
				if class == "shed" {
					for range cap(s.sem) {
						s.sem <- struct{}{}
					}
				}
				resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
				if class == "shed" {
					for range cap(s.sem) {
						<-s.sem
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var out struct {
					Error string           `json:"error"`
					Items []batchItemReply `json:"items"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatalf("response not JSON: %v", err)
				}
				msg := out.Error
				if route == "batch" && resp.StatusCode == http.StatusOK {
					if len(out.Items) != 1 {
						t.Fatalf("batch reply has %d items, want 1", len(out.Items))
					}
					msg = out.Items[0].Error
				}

				if resp.StatusCode != w.status {
					t.Errorf("status %d, want %d (error %q)", resp.StatusCode, w.status, msg)
				}
				if (w.prefix && !strings.HasPrefix(msg, w.msg)) || (!w.prefix && msg != w.msg) {
					t.Errorf("error %q, want %q (prefix %v)", msg, w.msg, w.prefix)
				}
				if class == "shed" {
					if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
						t.Errorf("shed Retry-After = %q, want a positive number of seconds", resp.Header.Get("Retry-After"))
					}
				}
				after := pipelineCounters(s)
				for name, v := range after {
					wantMoved := int64(0)
					if name == w.counter {
						wantMoved = 1
					}
					if moved := v - before[name]; moved != wantMoved {
						t.Errorf("sectord.%s moved by %d, want %d", name, moved, wantMoved)
					}
				}
			})
		}
	}
}
