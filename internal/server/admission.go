// admission.go is boundsd's one request path for compute (admit) and
// its cost-aware admission layer. Every compute request, JSON or
// NDJSON, is classified by the registry's cost classes (registry.Cost)
// before it takes any resource:
//
//   - closed-form work (bounds lookups, scenario listings, batches of
//     pure lookups) bypasses the compute slots entirely — arithmetic
//     never queues behind a Monte-Carlo flood;
//   - analytic-adversary work (crash verifies, sweeps) takes a general
//     MaxInflight slot, waiting up to the request budget, and answers
//     503 when the server is saturated (the pre-admission behavior,
//     unchanged);
//   - Monte-Carlo/simulation work takes a slot from the much smaller
//     MaxInflightHeavy pool and waits at most ShedAfter for one: under
//     overload the excess is shed immediately with 429 + Retry-After
//     instead of queueing, so an expensive flood degrades into fast,
//     explicit backpressure while the cheap classes keep their
//     latency.
//
// The same file carries the /readyz readiness signal: a cold or
// precomputing server serves traffic but reports 503 on /readyz until
// cmd/boundsd flips it, so load balancers don't route to a node that
// would answer every request at cold-start cost.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/registry"
)

// errShed marks a heavy request shed because every heavy compute slot
// stayed busy for ShedAfter. Maps to 429 + Retry-After.
var errShed = errors.New("server: heavy compute shed under overload")

// RetryAfterSeconds is the Retry-After hint on shed (429) responses:
// long enough for a heavy slot to turn over, short enough that a
// well-behaved client retries into the next admission window.
const RetryAfterSeconds = 1

// admissionClasses is the fixed accounting order (metrics, tests).
var admissionClasses = []registry.Cost{registry.CostClosedForm, registry.CostAnalytic, registry.CostMonteCarlo}

// admissionCounters is one class's admission accounting.
type admissionCounters struct {
	admitted atomic.Int64
	shed     atomic.Int64
	inflight atomic.Int64
}

// counters resolves a class's counters; unknown classes account (and
// are admitted) as the heaviest class, so a misconfigured scenario is
// throttled, never fast-pathed.
func (s *Server) counters(class registry.Cost) *admissionCounters {
	if c, ok := s.admission[class]; ok {
		return c
	}
	return s.admission[registry.CostMonteCarlo]
}

// budgetCtx derives the request's compute context: the server default
// budget, optionally lowered (never raised) by ?timeout_ms, rooted in
// the request context so a client disconnect cancels it too. Scenario
// job constructors reached under it find the process-wide solver memo
// through solver.From's fallback.
func (s *Server) budgetCtx(r *http.Request, p map[string]string) (context.Context, context.CancelFunc, time.Duration, error) {
	budget := s.cfg.Timeout
	if raw, ok := p["timeout_ms"]; ok && raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms <= 0 {
			return nil, nil, 0, fmt.Errorf("%w: %q must be a positive integer", errBadParam, "timeout_ms")
		}
		if d := time.Duration(ms) * time.Millisecond; d < budget {
			budget = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	return ctx, cancel, budget, nil
}

// admit is the one request path of every compute route — /v1/verify,
// /v1/sweep, /v1/simulate, /v1/batch and /v1/strategies, JSON and
// NDJSON alike. It derives the budget context (a bad ?timeout_ms is a
// 400), admits the request under its cost class (see acquire) and runs
// serve on the request's own goroutine while the slot is held. serve
// writes its answer to w, or returns an error for admit to write. A
// panic in serve (scenario callbacks are a plugin point) is a 500
// while nothing has been written; a stream that has started cannot
// change its status, so its panic propagates.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, p map[string]string, class registry.Cost, serve func(ctx context.Context, w http.ResponseWriter, budget time.Duration) error) {
	ctx, cancel, budget, err := s.budgetCtx(r, p)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	release, err := s.acquire(ctx, budget, class)
	if err != nil {
		s.writeComputeErr(w, err)
		return
	}
	defer release()
	defer func() {
		if rec := recover(); rec != nil {
			if sr, ok := w.(*statusRecorder); ok && sr.code != 0 {
				panic(rec)
			}
			s.writeComputeErr(w, fmt.Errorf("server: computation panicked: %v", rec))
		}
	}()
	if err := serve(ctx, w, budget); err != nil {
		s.writeComputeErr(w, err)
	}
}

// compute is admit for a single answer: fn runs under the budget
// context and its answer comes back for the caller to render once the
// slot is released (ok is false when admit has written an error).
// Abandonment is the engine's: engine.Run returns as soon as ctx ends
// and leaves the job to finish detached (memoized on success), so fn
// returns promptly, and a finished context maps to errTimeout or
// errClientGone. Work outside the engine — scenario job constructors,
// the strategy compile — is not abandoned; it is bounded instead.
func (s *Server) compute(w http.ResponseWriter, r *http.Request, p map[string]string, class registry.Cost, fn func(ctx context.Context) (any, error)) (v any, ok bool) {
	s.admit(w, r, p, class, func(ctx context.Context, _ http.ResponseWriter, budget time.Duration) error {
		var err error
		v, err = fn(ctx)
		switch {
		case errors.Is(ctx.Err(), context.Canceled):
			return fmt.Errorf("%w before the computation finished", errClientGone)
		case ctx.Err() != nil:
			return fmt.Errorf("%w after %v", errTimeout, budget)
		}
		ok = err == nil
		return err
	})
	return v, ok
}

// acquire admits one request of the given cost class and returns its
// release function. Closed-form work is never blocked; analytic work
// waits for a general MaxInflight slot until the budget expires
// (errBusy -> 503); Monte-Carlo work waits at most ShedAfter for one
// of the MaxInflightHeavy slots and is shed (errShed -> 429) rather
// than queued past that.
func (s *Server) acquire(ctx context.Context, budget time.Duration, class registry.Cost) (release func(), err error) {
	c := s.counters(class)
	admit := func(sem chan struct{}) func() {
		c.admitted.Add(1)
		c.inflight.Add(1)
		return func() {
			c.inflight.Add(-1)
			if sem != nil {
				<-sem
			}
		}
	}
	switch class {
	case registry.CostClosedForm:
		return admit(nil), nil
	case registry.CostAnalytic:
		select {
		case s.sem <- struct{}{}:
			return admit(s.sem), nil
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.Canceled) {
				return nil, fmt.Errorf("%w while waiting for a compute slot", errClientGone)
			}
			return nil, fmt.Errorf("%w: no compute slot freed within %v", errBusy, budget)
		}
	default: // CostMonteCarlo and anything unknown: the heavy pool.
		select {
		case s.heavySem <- struct{}{}:
			return admit(s.heavySem), nil
		default:
		}
		wait := s.cfg.ShedAfter
		if wait > budget {
			wait = budget
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case s.heavySem <- struct{}{}:
			return admit(s.heavySem), nil
		case <-timer.C:
			c.shed.Add(1)
			return nil, fmt.Errorf("%w: all %d heavy slots stayed busy for %v", errShed, cap(s.heavySem), wait)
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.Canceled) {
				return nil, fmt.Errorf("%w while waiting for a heavy compute slot", errClientGone)
			}
			c.shed.Add(1)
			return nil, fmt.Errorf("%w: no heavy slot freed within the %v budget", errShed, budget)
		}
	}
}

// writeComputeErr maps a compute-path error to its status and writes
// it, attaching the Retry-After hint on shed responses.
func (s *Server) writeComputeErr(w http.ResponseWriter, err error) {
	s.noteStrategyErr(err)
	code := computeStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	}
	writeErr(w, code, err)
}

// SetReady flips the /readyz readiness signal. Servers start ready
// unless Config.StartUnready; cmd/boundsd starts unready and flips
// after snapshot restore / precompute finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// handleReadyz is the readiness probe: 200 once warm-up (snapshot
// restore, precompute) is done, 503 before. Liveness stays on
// /healthz — a warming server is alive, just not ready for traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "warming")
		return
	}
	fmt.Fprintln(w, "ok")
}
