// The request pipeline every POST route runs: one admission step (POST
// only, the inflight shed, the body decode and the format_version check),
// one error taxonomy for failed solves (solveError), one accounting of
// served solves (served), one per-instance solve path for /solve and
// /solve/batch (solveItem), and one structured log line per request.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"sectorpack/internal/core"
	"sectorpack/internal/exact"
	"sectorpack/internal/model"
)

// request is one request's trip through the pipeline: its ID, its start
// time and what its log line reports.
type request struct {
	w     http.ResponseWriter
	rid   string
	start time.Time

	action  string // session routes: create, delta or delete; empty on the solve routes
	session string // session routes: the session ID, once known

	solver   string
	status   int
	outcome  string // ok, degraded, batch, closed, shed, bad_request, cancelled, panic, invalid, error
	degraded bool
	detail   string
	profit   int64
}

// begin starts a request; action is empty for the solve routes. The
// caller defers s.logRequest on the result.
func (s *Server) begin(w http.ResponseWriter, action string) *request {
	return &request{
		w:       w,
		rid:     s.nextRequestID(),
		start:   time.Now(),
		action:  action,
		status:  http.StatusInternalServerError,
		outcome: "error",
	}
}

func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.ridPrefix, s.reqSeq.Add(1))
}

// fail answers the request with an error body.
func (q *request) fail(status int, outcome, msg string) {
	q.status, q.outcome, q.detail = status, outcome, msg
	writeJSON(q.w, status, errorResponse{Error: msg})
}

// ok records a served solution for the log line.
func (q *request) ok(sol model.Solution) {
	q.status, q.outcome, q.degraded = http.StatusOK, "ok", sol.Degraded
	q.profit, q.detail = sol.Profit, sol.FallbackDetail
	if sol.Degraded {
		q.outcome = "degraded"
	}
}

// logRequest writes the request's one structured log line. Answers at 500
// and above log at warn level, except degraded answers and cancellations.
func (s *Server) logRequest(q *request) {
	attrs := []slog.Attr{
		slog.String("request_id", q.rid),
		slog.String("solver", q.solver),
		slog.Float64("duration_ms", float64(time.Since(q.start))/float64(time.Millisecond)),
		slog.String("outcome", q.outcome),
		slog.Bool("degraded", q.degraded),
		slog.Int("status", q.status),
	}
	msg := "solve"
	if q.action != "" {
		msg = "session"
		attrs = append(attrs, slog.String("action", q.action), slog.String("session_id", q.session))
	}
	if q.outcome == "ok" || q.outcome == "degraded" {
		attrs = append(attrs, slog.Int64("profit", q.profit))
	}
	if q.detail != "" {
		attrs = append(attrs, slog.String("detail", q.detail))
	}
	level := slog.LevelInfo
	if q.status >= 500 && q.outcome != "degraded" && q.outcome != "cancelled" {
		level = slog.LevelWarn
	}
	s.logger.LogAttrs(context.Background(), level, msg, attrs...)
}

// envelope is the version field every POST body carries.
type envelope struct {
	FormatVersion int `json:"format_version"`
}

func (e *envelope) version() int { return e.FormatVersion }

// versioned is a POST body: anything that embeds envelope.
type versioned interface{ version() int }

// admit is the admission step every POST route shares, in this order:
// POST only (405), shed with 429 when every inflight slot is busy (before
// the body is read, so a saturated server refuses work cheaply), the
// route's query error, then decode the body into body with unknown fields
// rejected and check its format_version. A refused request has been
// answered and counted. An admitted one holds an inflight slot, which the
// caller gives back with s.release.
func (s *Server) admit(q *request, r *http.Request, queryErr error, body versioned) bool {
	if r.Method != http.MethodPost {
		q.w.Header().Set("Allow", http.MethodPost)
		s.reject(q, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.shed.Add(1)
		s.setRetryAfter(q.w)
		q.fail(http.StatusTooManyRequests, "shed", "server at capacity")
		return false
	}
	msg := ""
	if queryErr != nil {
		msg = queryErr.Error()
	} else {
		dec := json.NewDecoder(http.MaxBytesReader(q.w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(body); err != nil {
			msg = "decode request: " + err.Error()
		} else if v := body.version(); v != 1 {
			msg = fmt.Sprintf("unsupported format_version %d (want 1)", v)
		}
	}
	if msg != "" {
		s.release()
		s.reject(q, http.StatusBadRequest, msg)
		return false
	}
	return true
}

// release gives back the inflight slot admit took.
func (s *Server) release() { <-s.sem }

// reject answers a request refused before any solve ran, counting it as a
// failure.
func (s *Server) reject(q *request, status int, msg string) {
	s.failures.Add(1)
	q.fail(status, "bad_request", msg)
}

// resolve applies the empty-name default and the allowlist, then resolves
// through the registry (whose solvers are panic-isolated). An unknown or
// disallowed solver is rejected.
func (s *Server) resolve(q *request, name string) (string, core.Solver, bool) {
	if name == "" {
		name = "auto"
	}
	q.solver = name
	solver, err := core.Get(name)
	if s.allowed != nil && !s.allowed[name] {
		err = fmt.Errorf("solver %q not allowed (allowed: %v)", name, s.cfg.Allowed)
	}
	if err != nil {
		s.reject(q, http.StatusBadRequest, err.Error())
		return name, nil, false
	}
	return name, solver, true
}

// parseSolveParams reads the solve routes' query knobs: ?degraded=allow
// opts into the hedged fallback, ?cache=bypass opts out of the cache.
func parseSolveParams(r *http.Request) (degraded, bypass bool, err error) {
	q := r.URL.Query()
	switch v := q.Get("degraded"); v {
	case "", "deny":
	case "allow":
		degraded = true
	default:
		return false, false, fmt.Errorf("invalid degraded=%q (want allow or deny)", v)
	}
	switch v := q.Get("cache"); v {
	case "", "use":
	case "bypass":
		bypass = true
	default:
		return false, false, fmt.Errorf("invalid cache=%q (want use or bypass)", v)
	}
	return degraded, bypass, nil
}

// solveTimeout combines the server deadline with a request's timeout_ms:
// the request may tighten the server deadline, never loosen it.
func (s *Server) solveTimeout(requestMillis int64) time.Duration {
	timeout := s.cfg.Timeout
	if requestMillis > 0 {
		if t := time.Duration(requestMillis) * time.Millisecond; timeout <= 0 || t < timeout {
			timeout = t
		}
	}
	return timeout
}

// solveContext puts the solve deadline (solveTimeout) on ctx.
func (s *Server) solveContext(ctx context.Context, requestMillis int64) (context.Context, context.CancelFunc) {
	if timeout := s.solveTimeout(requestMillis); timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

func (s *Server) solveOptions(seed *int64) core.Options {
	opt := core.Options{Seed: s.cfg.Seed, ExactLimits: exact.Limits{MaxTuples: s.cfg.MaxTuples}}
	if seed != nil {
		opt.Seed = *seed
	}
	return opt
}

// solveError is the one error taxonomy of a failed solve, on every route:
// it bumps the counter of err's class and returns the status, the log
// outcome and the message a client sees. A panic is logged with its
// stack.
func (s *Server) solveError(rid string, err error) (status int, outcome, msg string) {
	var pe *core.PanicError
	var ie *core.InvalidSolutionError
	switch {
	case errors.As(err, &pe):
		s.panics.Add(1)
		s.logger.Error("solver panic",
			slog.String("request_id", rid),
			slog.String("solver", pe.Solver),
			slog.String("panic", fmt.Sprint(pe.Value)),
			slog.String("stack", string(pe.Stack)))
		return http.StatusInternalServerError, "panic", "solve failed: " + pe.Error()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.cancellations.Add(1)
		return http.StatusServiceUnavailable, "cancelled", "solve aborted: " + err.Error()
	case errors.As(err, &ie):
		s.invalid.Add(1)
		return http.StatusInternalServerError, "invalid", "solve failed: " + ie.Error()
	default:
		s.failures.Add(1)
		return http.StatusBadRequest, "error", "solve failed: " + err.Error()
	}
}

// served counts a served solution: solved, the solver's latency, and for
// a degraded answer the fallback, the primary's panic and a hedge win.
func (s *Server) served(name string, sol model.Solution, elapsed time.Duration) {
	if sol.Degraded {
		s.fallbacks.Add(1)
		if sol.FallbackReason == core.FallbackPanic {
			s.panics.Add(1)
		}
		if sol.HedgeWin {
			s.hedgeWins.Add(1)
		}
	}
	s.solved.Add(1)
	s.observeLatency(name, elapsed)
}

// solvePlan is what a solve route settled before solving: the solver, its
// options and the request's cache and degraded knobs.
type solvePlan struct {
	name     string
	solver   core.Solver
	opt      core.Options
	bypass   bool
	degraded bool
}

// solveItem is the one per-instance solve of /solve and /solve/batch. It
// goes through the cache or, when degraded answers are allowed, races the
// cache-fronted solver against the greedy safety net (core.SolveHedged);
// both legs are panic-isolated and gated, so any answer is feasible. The
// string is the X-Sectord-Cache value. The fallback leg never touches the
// cache, so a degraded answer reports bypass.
func (s *Server) solveItem(ctx context.Context, in *model.Instance, p solvePlan) (model.Solution, string, error) {
	if !p.degraded {
		return s.solveThroughCache(ctx, p.name, p.solver, in, p.opt, p.bypass)
	}
	// A primary abandoned at the deadline may still finish after
	// SolveHedged returns, so its cache outcome is read under mu.
	var mu sync.Mutex
	out := cacheBypass
	primary := func(ctx context.Context, in *model.Instance, opt core.Options) (model.Solution, error) {
		sol, o, err := s.solveThroughCache(ctx, p.name, p.solver, in, opt, p.bypass)
		mu.Lock()
		out = o
		mu.Unlock()
		return sol, err
	}
	sol, err := core.SolveHedged(ctx, in, primary, core.HedgeOptions{Options: p.opt, PrimaryName: p.name})
	if err != nil || sol.Degraded {
		return sol, cacheBypass, err
	}
	mu.Lock()
	defer mu.Unlock()
	return sol, out, nil
}
