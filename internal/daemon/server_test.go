package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/model"
)

// sectorsInstance is a small unit-demand Sectors instance every registered
// solver can handle (unit demands keep unitflow happy, n=5 keeps exact
// cheap).
func sectorsInstance() *model.Instance {
	in := &model.Instance{
		Name:    "srv-sectors",
		Variant: model.Sectors,
		Customers: []model.Customer{
			{Theta: 0.1, R: 1, Demand: 1},
			{Theta: 0.5, R: 2, Demand: 1},
			{Theta: 1.2, R: 1, Demand: 1},
			{Theta: 3.0, R: 3, Demand: 1},
			{Theta: 5.5, R: 2, Demand: 1},
		},
		Antennas: []model.Antenna{
			{Rho: 1.0, Range: 5, Capacity: 3},
			{Rho: 1.5, Range: 5, Capacity: 3},
		},
	}
	return in.Normalize()
}

func disjointInstance() *model.Instance {
	in := &model.Instance{
		Name:    "srv-disjoint",
		Variant: model.DisjointAngles,
		Customers: []model.Customer{
			{Theta: 0.2, R: 1, Demand: 1},
			{Theta: 2.0, R: 1, Demand: 1},
			{Theta: 4.0, R: 1, Demand: 1},
		},
		Antennas: []model.Antenna{
			{Rho: 1.0, Capacity: 2},
			{Rho: 1.0, Capacity: 2},
		},
	}
	return in.Normalize()
}

func solveBody(t *testing.T, solver string, in *model.Instance, extra map[string]any) []byte {
	t.Helper()
	req := map[string]any{"solver": solver, "format_version": 1, "instance": in}
	for k, v := range extra {
		req[k] = v
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postSolve(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestSolveAllRegisteredSolvers(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Timeout: 30 * time.Second}).Handler())
	defer ts.Close()
	for _, name := range core.Names() {
		if strings.HasPrefix(name, "test-") {
			continue // solvers injected by other tests in this package
		}
		in := sectorsInstance()
		if name == "disjoint-dp" {
			in = disjointInstance()
		}
		resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, name, in, nil))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, body)
			continue
		}
		var sr solveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Errorf("%s: bad response JSON: %v", name, err)
			continue
		}
		if sr.Solver != name || sr.Algorithm == "" {
			t.Errorf("%s: response names solver %q algorithm %q", name, sr.Solver, sr.Algorithm)
		}
		as := &model.Assignment{Orientation: sr.Orientation, Owner: sr.Owner}
		if err := as.Check(in); err != nil {
			t.Errorf("%s: returned infeasible assignment: %v", name, err)
		}
		if got := as.Profit(in); got != sr.Profit {
			t.Errorf("%s: profit %d but assignment recomputes to %d", name, sr.Profit, got)
		}
	}
}

func TestSolveBadRequests(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	cases := []struct {
		name string
		body string
		want int
	}{
		{"invalid JSON", "{not json", http.StatusBadRequest},
		{"unknown solver", string(solveBody(t, "no-such-solver", sectorsInstance(), nil)), http.StatusBadRequest},
		{"missing instance", `{"solver":"greedy","format_version":1}`, http.StatusBadRequest},
		{"bad format version", string(bytes.Replace(solveBody(t, "greedy", sectorsInstance(), nil), []byte(`"format_version":1`), []byte(`"format_version":9`), 1)), http.StatusBadRequest},
		{"invalid instance", `{"solver":"greedy","format_version":1,"instance":{"variant":0,"customers":[{"id":0,"theta":0,"r":-2,"demand":1}],"antennas":[]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postSolve(t, ts.Client(), ts.URL, []byte(tc.body))
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (want %d), body %s", tc.name, resp.StatusCode, tc.want, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not JSON with error field: %s", tc.name, body)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d, want 405", resp.StatusCode)
	}
}

// TestSolveRejectsOutOfDomain: an instance past the numeric domain (here a
// total profit just over 2^53) is a 400 whose message names the limit, not
// a silently wrapped answer.
func TestSolveRejectsOutOfDomain(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	in := sectorsInstance()
	in.Customers[0].Profit = model.MaxMagnitude
	for _, solver := range []string{"greedy", "exact"} {
		resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, solver, in, nil))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (want 400), body %s", solver, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "MaxMagnitude = 2^53") {
			t.Errorf("%s: error %q does not name the 2^53 limit (%v)", solver, er.Error, err)
		}
	}
}

func TestSolveAllowlist(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Allowed: []string{"greedy"}}).Handler())
	defer ts.Close()
	resp, _ := postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("allowed solver: status %d, want 200", resp.StatusCode)
	}
	resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, "localsearch", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("disallowed solver: status %d (want 400), body %s", resp.StatusCode, body)
	}
}

// registerBlockingSolver installs a solver that parks until release is
// closed (or its ctx ends), reporting entry on started.
func registerBlockingSolver(name string, started chan<- struct{}, release <-chan struct{}) {
	core.Register(name, func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return model.Solution{
				Assignment: model.NewAssignment(in.N(), in.M()),
				Algorithm:  name,
			}, nil
		case <-ctx.Done():
			return model.Solution{}, ctx.Err()
		}
	})
}

func TestSolveDeadlineSurfacesContextError(t *testing.T) {
	started := make(chan struct{}, 1)
	registerBlockingSolver("test-park", started, nil)
	ts := httptest.NewServer(NewServer(Config{Timeout: time.Hour}).Handler())
	defer ts.Close()
	body := solveBody(t, "test-park", sectorsInstance(), map[string]any{"timeout_ms": 30})
	start := time.Now()
	resp, out := postSolve(t, ts.Client(), ts.URL, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (want 503), body %s", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), context.DeadlineExceeded.Error()) {
		t.Errorf("body %q does not surface the context error", out)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline response took %v, want prompt abort", elapsed)
	}
}

func TestSolveShedsAtCapacity(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	registerBlockingSolver("test-gate", started, release)
	ts := httptest.NewServer(NewServer(Config{MaxInflight: 1}).Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/solve", "application/json",
			bytes.NewReader(solveBody(t, "test-gate", sectorsInstance(), nil)))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the solver")
	}

	resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d (want 429), body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request finished with %d, want 200", code)
	}
	// Capacity is free again.
	resp, body = postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain: status %d, body %s", resp.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := NewServer(Config{MaxInflight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", sectorsInstance(), nil))
	postSolve(t, ts.Client(), ts.URL, []byte("{bad"))
	resp, _ := postSolve(t, ts.Client(), ts.URL, solveBody(t, "no-such", sectorsInstance(), nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("setup: unknown solver gave %d", resp.StatusCode)
	}

	vresp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	intVar := func(name string) int64 {
		var v int64
		if err := json.Unmarshal(vars[name], &v); err != nil {
			t.Fatalf("var %s = %s: %v", name, vars[name], err)
		}
		return v
	}
	if got := intVar("sectord.requests"); got != 3 {
		t.Errorf("requests = %d, want 3", got)
	}
	if got := intVar("sectord.solved"); got != 1 {
		t.Errorf("solved = %d, want 1", got)
	}
	if got := intVar("sectord.failures"); got != 2 {
		t.Errorf("failures = %d, want 2", got)
	}
	var hist struct {
		Count   int64            `json:"count"`
		TotalMS float64          `json:"total_ms"`
		Buckets map[string]int64 `json:"buckets"`
	}
	raw, ok := vars["sectord.latency.greedy"]
	if !ok {
		t.Fatalf("no greedy latency histogram in %v", vars)
	}
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatalf("latency histogram not JSON: %v", err)
	}
	if hist.Count != 1 || len(hist.Buckets) != 1 {
		t.Errorf("greedy histogram count=%d buckets=%v, want one observation", hist.Count, hist.Buckets)
	}

	// A second Server in the same process must not panic (the metrics are
	// not published to the global expvar registry).
	NewServer(Config{})
}

func TestServeGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	registerBlockingSolver("test-drain", started, release)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := NewServer(Config{DrainTimeout: 10 * time.Second})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()
	url := fmt.Sprintf("http://%s", ln.Addr())

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/solve", "application/json",
			bytes.NewReader(solveBody(t, "test-drain", sectorsInstance(), nil)))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the solver")
	}

	cancel() // the SIGTERM path: signal.NotifyContext cancels this ctx
	time.Sleep(50 * time.Millisecond)
	close(release)

	if code := <-first; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200 (graceful drain)", code)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("Serve returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
}

func TestSolveZeroWidthRayOverHTTP(t *testing.T) {
	in := &model.Instance{
		Variant: model.Sectors,
		Customers: []model.Customer{
			{Theta: 1.0, R: 2, Demand: 1},
			{Theta: 2.0, R: 2, Demand: 1},
		},
		Antennas: []model.Antenna{{Rho: 0, Range: 5, Capacity: 2}},
	}
	in.Normalize()
	ts := httptest.NewServer(NewServer(Config{}).Handler())
	defer ts.Close()
	resp, body := postSolve(t, ts.Client(), ts.URL, solveBody(t, "greedy", in, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ray instance: status %d, body %s", resp.StatusCode, body)
	}
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Profit != 1 {
		t.Errorf("ray profit = %d, want 1 (one aligned customer)", sr.Profit)
	}
}

// syncBuffer lets a test poll the daemon's log output while a daemon
// goroutine is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
