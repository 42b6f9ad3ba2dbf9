// Package server is the HTTP layer of boundsd: a JSON API over the
// scenario registry and the evaluation engine. Endpoints:
//
//	GET  /healthz         liveness probe
//	GET  /readyz          readiness probe: 503 until warm-up is done
//	GET  /metrics         Prometheus-style text: request, admission and engine counters
//	GET  /v1/scenarios    the registry listing (self-describing fault models)
//	*    /v1/bounds       closed-form bounds: single cell (k, f) or grid (kmax)
//	*    /v1/verify       run the scenario's verification job through the engine
//	*    /v1/sweep        measured (m, k, f) grid sweep (ComputeSweep over engine.SweepStream)
//	*    /v1/simulate     run the scenario's simulator over a distance grid
//	POST /v1/batch        heterogeneous bounds/verify/simulate sub-requests (batch.go)
//	POST /v1/strategies   compile and register a strategy program (strategies.go)
//
// The grid endpoints (/v1/bounds in kmax mode, /v1/sweep and
// /v1/simulate) accept ?format=markdown to render through the same
// tables cmd/bounds, cmd/experiments and cmd/searchsim print
// (byte-identical). /v1/sweep, /v1/simulate and /v1/batch stream
// when the client sends Accept: application/x-ndjson (or
// ?format=ndjson): one row JSON object per line in grid order,
// interleaved with '#'-prefixed heartbeat comment lines so idle proxies
// keep the connection open. Rows are flushed whenever the next row is
// not ready yet, at most once per millisecond (a row that arrives
// sooner is flushed by a timer when the millisecond is up); heartbeats
// and the final status line are flushed at once. The streamed rows are
// byte-identical to (and in the same order as) the rows array of the
// batch JSON answer.
//
// /v1/verify and /v1/simulate accept the Monte-Carlo knobs of sampled
// scenarios: ?seed= overrides the deterministic (m, k, f, samples)
// seed derivation, ?samples= overrides the horizon-derived sample
// count (out-of-range values are a 400, not a silent clamp), and ?p=
// sets the per-visit fault probability of the pfaulty-halfline model.
// Sampled answers carry the effective samples/seed back, plus a
// clamped flag and warning when a horizon-derived count was clamped.
//
// The four compute routes share one handler (handle) and each has one
// prepare function, which /v1/batch uses for its items too. That one
// parse bounds the inputs: m is at most 64, and k, f and kmax at most
// Config.MaxKMax.
//
// Compute requests run under a per-request timeout (?timeout_ms,
// capped by the server configuration) that actually cancels the work:
// the context flows into the engine, which stops claiming cells and
// aborts in-flight evaluations at their next cooperative check, so a
// timed-out or disconnected request frees its workers within one cell
// evaluation. Every compute route, in every representation, goes
// through one request path (admit, admission.go) and runs on the
// request's goroutine; the engine is the only abandonment layer — a job
// that ignores its context finishes detached on an engine goroutine (a
// successful result still lands in the cache, so an identical retry is
// instant). Sweeps keep going past failing cells: the response
// carries the partial table with per-cell error fields (plus an errors
// section in markdown mode). Invalid input is a 400 with a JSON error
// body; an exceeded budget is a 504; a saturated server is a 503.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/pfaulty"
	"repro/internal/registry"
	"repro/internal/strategy"
	"repro/internal/strategy/program"
)

// Defaults for Config zero values.
const (
	// DefaultTimeout bounds one request's compute budget.
	DefaultTimeout = 30 * time.Second
	// DefaultCacheCapacity bounds the engine result cache of a server
	// constructed without an explicit engine.
	DefaultCacheCapacity = 4096
	// DefaultMaxKMax caps k, f and kmax (grid cells grow quadratically
	// with kmax, per-cell job state with k).
	DefaultMaxKMax = 16
	// DefaultMaxInflight caps the compute requests being actively waited
	// on. Cancellation propagates into the engine, so a timed-out
	// request's work stops (and its slot frees) within one cooperative
	// check rather than when the computation happens to finish.
	DefaultMaxInflight = 32
	// DefaultHorizon is the sweep/verify horizon when unspecified —
	// the value the recorded experiment tables use.
	DefaultHorizon = 2e5
	// DefaultHeartbeat is the interval between comment lines on an NDJSON
	// sweep stream with no row ready to send.
	DefaultHeartbeat = 10 * time.Second
	// DefaultShedAfter is how long a Monte-Carlo-class request waits for
	// a heavy compute slot before it is shed with 429. Short by design:
	// under overload, fast explicit backpressure beats a queue.
	DefaultShedAfter = 100 * time.Millisecond
	// DefaultSimHorizon is the /v1/simulate distance-grid upper end
	// when unspecified (simulations are per-target work; the verify
	// horizon default would be needlessly expensive here).
	DefaultSimHorizon = 100.0
	// DefaultSimPoints is the /v1/simulate distance-grid size when
	// unspecified.
	DefaultSimPoints = 8
	// MaxSimPoints caps client-supplied simulate grids.
	MaxSimPoints = 128
	// maxHorizon caps client-supplied horizons.
	maxHorizon = 1e8
)

// errTimeout marks an exceeded per-request compute budget.
var errTimeout = errors.New("server: request timed out")

// errBusy marks a request that could not get a compute slot within its
// budget (the server is saturated with in-flight work).
var errBusy = errors.New("server: too many in-flight computations")

// errClientGone marks a request whose client disconnected before the
// computation finished.
var errClientGone = errors.New("server: client closed the request")

// errBadParam marks request-parameter failures detected inside the
// compute path, so computeStatus can map them to 400.
var errBadParam = errors.New("server: bad request parameter")

// Config configures a Server; zero values select the defaults above.
type Config struct {
	// Engine executes the verification jobs and sweeps. Defaults to a
	// GOMAXPROCS pool with a DefaultCacheCapacity-bounded LRU cache.
	Engine *engine.Engine
	// Registry resolves scenario names. Defaults to registry.Default().
	Registry *registry.Registry
	// Timeout is the per-request compute budget; requests may lower it
	// via ?timeout_ms but never exceed it.
	Timeout time.Duration
	// MaxKMax caps k, f and kmax on every route and batch item: the
	// kmax of grid requests and the k and f of single cells alike.
	MaxKMax int
	// MaxInflight caps the compute requests being actively waited on.
	MaxInflight int
	// MaxInflightHeavy caps the Monte-Carlo/simulation-class requests
	// being actively waited on — a separate, smaller pool so expensive
	// floods contend with each other, not with analytic traffic.
	// Defaults to max(1, MaxInflight/4).
	MaxInflightHeavy int
	// ShedAfter is how long a heavy request waits for one of the
	// MaxInflightHeavy slots before it is shed with 429 + Retry-After.
	ShedAfter time.Duration
	// StartUnready makes /readyz answer 503 until SetReady(true) —
	// cmd/boundsd uses it to gate traffic behind snapshot restore and
	// precompute.
	StartUnready bool
	// Heartbeat is the comment-line interval on NDJSON sweep streams.
	Heartbeat time.Duration
}

// Server is the boundsd HTTP handler. Construct with New.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	start    time.Time
	sem      chan struct{} // general compute slots (MaxInflight)
	heavySem chan struct{} // Monte-Carlo-class slots (MaxInflightHeavy)
	ready    atomic.Bool   // the /readyz signal

	// admission carries the per-cost-class accounting, fully populated
	// at construction like the route counters.
	admission map[registry.Cost]*admissionCounters

	// Per-route counters, fully populated at construction (the route
	// set is static, "other" catches the rest), so the request path
	// reads them lock-free.
	reqs map[string]*atomic.Int64
	errs map[string]*atomic.Int64

	// strategies is the bounded store of user-registered compiled
	// strategy programs (see strategies.go), with its counters.
	strategies           *strategyStore
	strategyCompiles     atomic.Int64
	strategyRejects      atomic.Int64
	strategyGasExhausted atomic.Int64
}

// routes is the static route set; unknown paths count under "other".
var routes = []string{"/healthz", "/readyz", "/metrics", "/v1/scenarios", "/v1/bounds", "/v1/verify", "/v1/sweep", "/v1/simulate", "/v1/batch", "/v1/strategies", "other"}

// New returns a ready-to-serve handler.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = engine.NewWithCache(0, DefaultCacheCapacity)
	}
	if cfg.Registry == nil {
		cfg.Registry = registry.Default()
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxKMax <= 0 {
		cfg.MaxKMax = DefaultMaxKMax
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxInflightHeavy <= 0 {
		cfg.MaxInflightHeavy = cfg.MaxInflight / 4
		if cfg.MaxInflightHeavy < 1 {
			cfg.MaxInflightHeavy = 1
		}
	}
	if cfg.ShedAfter <= 0 {
		cfg.ShedAfter = DefaultShedAfter
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		start:      time.Now(),
		sem:        make(chan struct{}, cfg.MaxInflight),
		heavySem:   make(chan struct{}, cfg.MaxInflightHeavy),
		admission:  make(map[registry.Cost]*admissionCounters, len(admissionClasses)),
		reqs:       make(map[string]*atomic.Int64, len(routes)),
		errs:       make(map[string]*atomic.Int64, len(routes)),
		strategies: newStrategyStore(),
	}
	s.ready.Store(!cfg.StartUnready)
	for _, class := range admissionClasses {
		s.admission[class] = &admissionCounters{}
	}
	for _, route := range routes {
		s.reqs[route] = &atomic.Int64{}
		s.errs[route] = &atomic.Int64{}
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("/v1/bounds", s.handle((*Server).boundsCall))
	s.mux.HandleFunc("/v1/verify", s.handle((*Server).verifyCall))
	s.mux.HandleFunc("/v1/sweep", s.handle((*Server).sweepCall))
	s.mux.HandleFunc("/v1/simulate", s.handle((*Server).simulateCall))
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/strategies", s.handleStrategies)
	return s
}

// Engine exposes the server's engine (stats, cache control).
func (s *Server) Engine() *engine.Engine { return s.cfg.Engine }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := r.URL.Path
	if _, ok := s.reqs[route]; !ok {
		route = "other"
	}
	s.reqs[route].Add(1)
	rec := &statusRecorder{ResponseWriter: w}
	s.mux.ServeHTTP(rec, r)
	if rec.code >= 400 {
		s.errs[route].Add(1)
	}
}

// statusRecorder captures the response code for the error counters
// and the compute path's panic guard; code is 0 until something is
// written. It passes Flush through, so the NDJSON streams' flushes
// reach the connection, and unwraps for http.ResponseController.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush implements http.Flusher; it is a no-op when the wrapped writer
// cannot flush.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap returns the wrapped writer (see http.ResponseController).
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "boundsd_uptime_seconds %g\n", time.Since(s.start).Seconds())
	ready := 0
	if s.ready.Load() {
		ready = 1
	}
	fmt.Fprintf(w, "boundsd_ready %d\n", ready)
	for _, class := range admissionClasses {
		c := s.admission[class]
		fmt.Fprintf(w, "boundsd_admission_admitted_total{class=%q} %d\n", string(class), c.admitted.Load())
		fmt.Fprintf(w, "boundsd_admission_shed_total{class=%q} %d\n", string(class), c.shed.Load())
		fmt.Fprintf(w, "boundsd_admission_inflight{class=%q} %d\n", string(class), c.inflight.Load())
	}
	fmt.Fprintf(w, "boundsd_admission_heavy_slots %d\n", cap(s.heavySem))
	fmt.Fprintf(w, "boundsd_strategy_compiles_total %d\n", s.strategyCompiles.Load())
	fmt.Fprintf(w, "boundsd_strategy_rejects_total %d\n", s.strategyRejects.Load())
	fmt.Fprintf(w, "boundsd_strategy_gas_exhausted_total %d\n", s.strategyGasExhausted.Load())
	fmt.Fprintf(w, "boundsd_strategy_store_size %d\n", s.strategies.len())
	sorted := append([]string(nil), routes...)
	sort.Strings(sorted)
	for _, route := range sorted {
		fmt.Fprintf(w, "boundsd_requests_total{path=%q} %d\n", route, s.reqs[route].Load())
		fmt.Fprintf(w, "boundsd_request_errors_total{path=%q} %d\n", route, s.errs[route].Load())
	}
	st := s.cfg.Engine.Stats()
	fmt.Fprintf(w, "boundsd_engine_workers %d\n", s.cfg.Engine.Workers())
	fmt.Fprintf(w, "boundsd_engine_cache_hits_total %d\n", st.Hits)
	fmt.Fprintf(w, "boundsd_engine_cache_misses_total %d\n", st.Misses)
	fmt.Fprintf(w, "boundsd_engine_cache_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(w, "boundsd_engine_cache_size %d\n", st.Size)
	fmt.Fprintf(w, "boundsd_engine_cache_capacity %d\n", st.Capacity)
	fmt.Fprintf(w, "boundsd_engine_dedup_total %d\n", st.Deduped)
	fmt.Fprintf(w, "boundsd_engine_cancelled_runs_total %d\n", st.Cancelled)
	fmt.Fprintf(w, "boundsd_engine_inflight_jobs %d\n", st.InFlight)
	fmt.Fprintf(w, "boundsd_solver_strategy_hits_total %d\n", st.Solver.StrategyHits)
	fmt.Fprintf(w, "boundsd_solver_strategy_misses_total %d\n", st.Solver.StrategyMisses)
	fmt.Fprintf(w, "boundsd_solver_base_hits_total %d\n", st.Solver.BaseHits)
	fmt.Fprintf(w, "boundsd_solver_base_misses_total %d\n", st.Solver.BaseMisses)
	fmt.Fprintf(w, "boundsd_solver_strategy_memo_size %d\n", st.Solver.StrategySize)
	fmt.Fprintf(w, "boundsd_solver_base_memo_size %d\n", st.Solver.BaseSize)
	fmt.Fprintf(w, "boundsd_kernel_builds_total %d\n", st.Kernel.Builds)
	fmt.Fprintf(w, "boundsd_kernel_pool_reuses_total %d\n", st.Kernel.PoolReuses)
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": s.cfg.Registry.All()})
}

// maxBodyBytes bounds request bodies (parameter objects and batch
// arrays alike).
const maxBodyBytes = 1 << 20

// queryParams reads the query string, rejecting repeated keys: with
// ?k=3&k=5 the historical behavior silently took the first value, and
// a request whose intent is ambiguous should fail loudly instead.
func queryParams(r *http.Request) (map[string]string, error) {
	out := make(map[string]string)
	for key, vals := range r.URL.Query() {
		if len(vals) > 1 {
			return nil, fmt.Errorf("parameter %q repeated %d times in the query string", key, len(vals))
		}
		if len(vals) == 1 {
			out[key] = vals[0]
		}
	}
	return out, nil
}

// coerceParam renders one JSON body field as a parameter string (the
// scalar types a query string can express).
func coerceParam(key string, val any) (string, error) {
	switch v := val.(type) {
	case string:
		return v, nil
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64), nil
	case bool:
		return strconv.FormatBool(v), nil
	default:
		return "", fmt.Errorf("field %q has unsupported type", key)
	}
}

// params reads request parameters from the query string and, for POSTs
// with a JSON body, from the top-level object fields. A parameter may
// arrive through either channel but not both: the historical behavior
// let the body silently override a same-named query parameter, so a
// client disagreeing with itself got whichever value the merge favored
// — now it gets a 400 naming the parameter. Repeated query keys are
// rejected the same way.
func params(r *http.Request) (map[string]string, error) {
	out, err := queryParams(r)
	if err != nil {
		return nil, err
	}
	if r.Method == http.MethodPost && r.Body != nil {
		var body map[string]any
		if err := decodeBody(r.Body, &body); err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("bad JSON body: %w", err)
		}
		for key, val := range body {
			if _, dup := out[key]; dup {
				return nil, fmt.Errorf("parameter %q supplied in both the query string and the JSON body", key)
			}
			s, err := coerceParam(key, val)
			if err != nil {
				return nil, fmt.Errorf("bad JSON body: %w", err)
			}
			out[key] = s
		}
	}
	return out, nil
}

// decodeBody decodes the one JSON document of a request body into v.
// Trailing data is an error, not ignored; an empty body is io.EOF.
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}

func intParam(p map[string]string, key string, def int) (int, error) {
	raw, ok := p[key]
	if !ok || raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %w", key, err)
	}
	return v, nil
}

func floatParam(p map[string]string, key string, def float64) (float64, error) {
	raw, ok := p[key]
	if !ok || raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %w", key, err)
	}
	return v, nil
}

// scenarioParam resolves the "model" parameter (default crash).
func (s *Server) scenarioParam(p map[string]string) (registry.Scenario, error) {
	name := p["model"]
	if name == "" {
		name = "crash"
	}
	return s.cfg.Registry.Get(name)
}

// maxM caps the ray count m of every request: the jobs a cell builds
// hold per-ray state, and m(f+1) must not overflow.
const maxM = 64

// cappedParam is intParam for a parameter the server caps at max.
func cappedParam(p map[string]string, key string, def, max int) (int, error) {
	v, err := intParam(p, key, def)
	if err == nil && v > max {
		err = fmt.Errorf("%s %d exceeds the server cap %d", key, v, max)
	}
	return v, err
}

// call is one prepared compute request, the output of a route's
// prepare function (boundsCall, verifyCall, simulateCall, sweepCall):
// the admission class plus the answer. The answer is a value computed
// at prepare time (closed-form bounds, which therefore bypass
// admission) or work to run under the request's budget. markdown, when
// set, renders the answer for ?format=markdown.
type call struct {
	class    registry.Cost
	value    any
	work     work
	markdown func(v any) string
}

// work is a prepared computation (verifyWork, simulateWork, sweepWork):
// one allocation holding what its prepare parsed.
type work interface {
	answer(ctx context.Context) (any, error)
}

// rowWork is work that also streams its answer as NDJSON rows; rows is
// admit's serve.
type rowWork interface {
	work
	rows(ctx context.Context, w http.ResponseWriter, budget time.Duration) error
}

// handle serves one compute route from its prepare function. Any parse
// or prepare error is a 400. NDJSON rows stream through admit when the
// client negotiates them and the work has rows; otherwise the answer
// runs through compute (or is the prepared value) and is written as
// markdown on ?format=markdown when the call renders it, else as JSON.
func (s *Server) handle(prepare func(*Server, map[string]string) (call, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, err := params(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		c, err := prepare(s, p)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if rw, ok := c.work.(rowWork); ok && wantsNDJSON(r, p) {
			s.admit(w, r, p, c.class, rw.rows)
			return
		}
		v := c.value
		if c.work != nil {
			var ok bool
			if v, ok = s.compute(w, r, p, c.class, c.work.answer); !ok {
				return
			}
		}
		if c.markdown != nil && p["format"] == "markdown" {
			writeText(w, c.markdown(v))
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
}

// cellParams reads the scenario and the (m, k, f) cell of a bounds,
// verify or simulate request. m defaults to 2 and must lie in [1,
// maxM]; an unset k or f reads 0 or -1 for the caller to reject;
// neither may exceed Config.MaxKMax. These caps bound the memory of
// every job built from the cell.
func (s *Server) cellParams(p map[string]string) (sc registry.Scenario, m, k, f int, err error) {
	if sc, err = s.scenarioParam(p); err != nil {
		return sc, 0, 0, 0, err
	}
	m, err1 := cappedParam(p, "m", 2, maxM)
	k, err2 := cappedParam(p, "k", 0, s.cfg.MaxKMax)
	f, err3 := cappedParam(p, "f", -1, s.cfg.MaxKMax)
	if err = errors.Join(err1, err2, err3); err == nil && m < 1 {
		err = fmt.Errorf("%w: %q must be >= 1, got %d", errBadParam, "m", m)
	}
	return sc, m, k, f, err
}

// boundsCall prepares /v1/bounds: a *BoundsTable in grid mode (kmax
// set), a *BoundsAnswer in single-cell mode, computed here — the answer
// is closed-form arithmetic, so it never waits for admission.
func (s *Server) boundsCall(p map[string]string) (call, error) {
	sc, m, k, f, err := s.cellParams(p)
	if err != nil {
		return call{}, err
	}
	kmax, err := cappedParam(p, "kmax", 0, s.cfg.MaxKMax)
	if err != nil {
		return call{}, err
	}
	// Grid mode: kmax set. Single-cell mode: k (and optionally f) set.
	if kmax > 0 {
		if p["strategy"] != "" {
			return call{}, fmt.Errorf("%w: strategy= applies to a single (m, k, f) cell, not a kmax grid", errBadParam)
		}
		table, err := ComputeBoundsTable(sc, m, kmax)
		if err != nil {
			return call{}, err
		}
		return call{class: registry.CostClosedForm, value: table,
			markdown: func(v any) string { return v.(*BoundsTable).Markdown() }}, nil
	}
	if k <= 0 || f < 0 {
		return call{}, errors.New("need either kmax (grid mode) or k and f (single mode)")
	}
	// A ?strategy=<hash> must resolve and instantiate at (m, k, f) —
	// an unknown hash or out-of-regime instantiation is a 400 — but the
	// closed-form payload itself is strategy-independent (the bounds of
	// Theorems 1/6 bound the problem, not one submitted program), so
	// the answer bytes are identical with and without the parameter.
	if _, err := s.scriptedStrategy(p, sc, m, k, f); err != nil {
		return call{}, err
	}
	// The per-cell logic is the grid table's (computeCellBound).
	cb, err := computeCellBound(sc, m, k, f)
	if err != nil {
		return call{}, err
	}
	ans := &BoundsAnswer{
		Scenario: sc.Name, M: m, K: k, F: f, Q: m * (f + 1),
		Rho: cb.Rho, Regime: cb.Regime.String(),
		Lower: Float(cb.Lambda), AlphaStar: Float(cb.AlphaStar),
	}
	upper, uerr := sc.UpperBound(m, k, f)
	switch {
	case uerr == nil:
		ans.Upper = Float(upper)
		ans.HasUpper = true
	case errors.Is(uerr, registry.ErrNoUpperBound) || cb.Regime == bounds.RegimeUnsolvable:
		ans.Upper = Float(nan())
	default:
		return call{}, uerr
	}
	return call{class: registry.CostClosedForm, value: ans}, nil
}

// requestParams reads the scenario and the common scenario-request
// parameters (the cell, horizon plus the Monte-Carlo knobs
// seed/samples/p) into a registry.Request.
func (s *Server) requestParams(p map[string]string, defHorizon float64) (registry.Scenario, registry.Request, error) {
	sc, m, k, f, err := s.cellParams(p)
	if err != nil {
		return sc, registry.Request{}, err
	}
	horizon, err1 := floatParam(p, "horizon", defHorizon)
	samples, err2 := intParam(p, "samples", 0)
	pr, err3 := floatParam(p, "p", 0)
	req := registry.Request{M: m, K: k, F: f, Horizon: horizon, Samples: samples, P: pr}
	if raw, ok := p["seed"]; ok && raw != "" {
		seed, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || seed < 0 {
			return sc, req, fmt.Errorf("%w: %q must be a non-negative integer", errBadParam, "seed")
		}
		req.Seed = seed
	}
	if err := errors.Join(err1, err2, err3); err != nil {
		return sc, req, err
	}
	// Range-check every numeric parameter by name before anything
	// reaches registry or core code: a negative sample count must be a
	// 400 naming the parameter, never a computed absurdity.
	if k <= 0 || f < 0 {
		return sc, req, errors.New("need k and f")
	}
	if samples < 0 {
		return sc, req, fmt.Errorf("%w: %q must be >= 0, got %d", errBadParam, "samples", samples)
	}
	if pr < 0 || pr >= 1 {
		return sc, req, fmt.Errorf("%w: %q must lie in [0, 1), got %g", errBadParam, "p", pr)
	}
	if !(horizon > 1) || horizon > maxHorizon {
		return sc, req, fmt.Errorf("horizon %g out of range (1, %g]", horizon, maxHorizon)
	}
	return sc, req, nil
}

// verifyCall prepares /v1/verify. A ?strategy=<hash> parameter
// resolves through the strategy store to a program instance bound to
// (m, k, f); resolution and instantiation failures (unknown hash,
// out-of-regime parameters) are 400s here, not compute errors.
func (s *Server) verifyCall(p map[string]string) (call, error) {
	sc, req, err := s.requestParams(p, DefaultHorizon)
	if err != nil {
		return call{}, err
	}
	inst, err := s.scriptedStrategy(p, sc, req.M, req.K, req.F)
	if err != nil {
		return call{}, err
	}
	return call{class: sc.Cost, work: &verifyWork{s: s, sc: sc, req: req, inst: inst}}, nil
}

// verifyWork is a prepared /v1/verify request.
type verifyWork struct {
	s    *Server
	sc   registry.Scenario
	req  registry.Request
	inst *program.Instance
}

// answer runs the scenario's verification job and shapes the
// /v1/verify payload. Job construction happens under ctx too:
// constructors are a plugin point that may do nontrivial work (root
// finding, strategy materialization), and it must not escape the
// request's compute bound.
//
// A non-nil inst (a resolved ?strategy=<hash> program) replaces the
// scenario's job with an exact-adversary evaluation of the scripted
// strategy; everything else — closed-form lower bound, gap, shaping —
// is identical, so a script reproducing a built-in family answers
// byte-identically to it.
func (v *verifyWork) answer(ctx context.Context) (any, error) {
	sc, req := v.sc, v.req
	var job engine.Job
	if v.inst != nil {
		job = engine.ExactRatio{Strategy: v.inst, Faults: req.F, Horizon: req.Horizon}
	} else {
		var err error
		job, err = sc.VerifyJob(ctx, req)
		if err != nil {
			return nil, err
		}
	}
	res, err := v.s.cfg.Engine.Run(ctx, job)
	if err != nil {
		return nil, err
	}
	ans := &VerifyAnswer{
		Scenario: sc.Name, M: req.M, K: req.K, F: req.F, Horizon: req.Horizon,
		Value: Float(res.Value), Lower: Float(nan()), RelGap: Float(nan()),
		Samples: res.Samples, Seed: res.Seed, Clamped: res.Clamped,
	}
	if res.Clamped {
		ans.Warning = fmt.Sprintf("horizon %g derived a sample count outside [%d, %d]; running %d samples — pass samples= to choose explicitly",
			req.Horizon, registry.MinSamples, registry.MaxSamples, res.Samples)
	}
	if lower, err := sc.ClosedForm(req); err == nil {
		ans.Lower = Float(lower)
		if lower > 0 {
			ans.RelGap = Float((res.Value - lower) / lower)
		}
	}
	if res.Eval.WorstRatio != 0 {
		ans.Evaluated = true
		ans.WorstRay = res.Eval.WorstRay
		ans.WorstX = Float(res.Eval.WorstX)
	}
	return ans, nil
}

// simulateCall prepares /v1/simulate: the scenario's simulator over a
// log-spaced distance grid, answered as a *SimulateTable or streamed
// as its SimRow rows.
func (s *Server) simulateCall(p map[string]string) (call, error) {
	sc, req, err := s.requestParams(p, DefaultSimHorizon)
	if err != nil {
		return call{}, err
	}
	if sc.SimulateJob == nil {
		return call{}, fmt.Errorf("scenario %q has no simulator (simulatable: %v)", sc.Name, s.cfg.Registry.SimulatableNames())
	}
	points, err := intParam(p, "points", DefaultSimPoints)
	if err != nil {
		return call{}, err
	}
	if points < 2 || points > MaxSimPoints {
		return call{}, fmt.Errorf("points %d out of range [2, %d]", points, MaxSimPoints)
	}
	return call{class: registry.CostMonteCarlo, work: &simulateWork{s: s, sc: sc, req: req, points: points},
		markdown: func(v any) string { return v.(*SimulateTable).Markdown() }}, nil
}

// simulateWork is a prepared /v1/simulate request.
type simulateWork struct {
	s      *Server
	sc     registry.Scenario
	req    registry.Request
	points int
}

// answer runs the simulate table. Per-row failures ride inside the
// table (partial progress is never thrown away); only whole-request
// failures propagate.
func (sim *simulateWork) answer(ctx context.Context) (any, error) {
	table, err := ComputeSimulate(ctx, sim.s.cfg.Engine, sim.sc, sim.req, sim.points)
	if err != nil && (table == nil || len(table.Rows) == 0) {
		return nil, err
	}
	return table, nil
}

// rows streams one SimRow JSON object per line in grid order
// (ndjsonStream), byte-identical to the rows of the batch JSON answer
// (both shape through simRowOf). Job construction happens before the
// headers, so a scenario rejecting the request — or panicking — is
// still a proper 400 (or 500) rather than a truncated stream.
func (sim *simulateWork) rows(ctx context.Context, w http.ResponseWriter, budget time.Duration) error {
	dists, jobs, err := simulateJobs(ctx, sim.sc, sim.req, sim.points)
	if err != nil {
		return err
	}
	enc := getEncoder()
	defer putEncoder(enc)
	ndjsonStream(ctx, w, sim.s.cfg.Heartbeat, budget, len(jobs), sim.s.cfg.Engine.RunStream(ctx, jobs),
		func(b []byte, jr engine.JobResult) ([]byte, error) {
			return enc.appendCompact(b, simRowOf(sim.sc, sim.req, dists[jr.Index], jr))
		})
	return nil
}

// sweepCall prepares /v1/sweep: the measured (m, k, f) grid up to kmax,
// answered as a *SweepTable or streamed as its SweepCell rows.
func (s *Server) sweepCall(p map[string]string) (call, error) {
	// The measured grid sweep is the crash model's (engine.Sweep runs
	// the crash verification job per cell); reject other models rather
	// than mislabeling crash numbers as theirs.
	sc, err := s.scenarioParam(p)
	if err != nil {
		return call{}, err
	}
	if sc.Name != "crash" {
		return call{}, fmt.Errorf("sweep supports only the crash scenario (the measured grid runs the crash verification job); got %q", sc.Name)
	}
	m, err1 := cappedParam(p, "m", 2, maxM)
	kmax, err2 := cappedParam(p, "kmax", 6, s.cfg.MaxKMax)
	horizon, err3 := floatParam(p, "horizon", DefaultHorizon)
	if err := errors.Join(err1, err2, err3); err != nil {
		return call{}, err
	}
	if m < 2 || kmax < 1 {
		return call{}, fmt.Errorf("need m >= 2 and kmax >= 1, got m=%d kmax=%d", m, kmax)
	}
	if !(horizon > 1) || horizon > maxHorizon {
		return call{}, fmt.Errorf("horizon %g out of range (1, %g]", horizon, maxHorizon)
	}
	// Validate the rendering style before burning a sweep on it. The
	// line grid renders as the Theorem 1 (E1) table, m-ray grids as the
	// Theorem 6 (E4) table; ?table= overrides.
	markdown := func(v any) string { return v.(*SweepTable).MarkdownRays() }
	switch style := p["table"]; {
	case style == "line" || style == "" && m == 2:
		markdown = func(v any) string { return v.(*SweepTable).MarkdownLine() }
	case style != "" && style != "rays":
		return call{}, fmt.Errorf("unknown table style %q (want line or rays)", style)
	}
	return call{class: registry.CostAnalytic, work: &sweepWork{s: s, cells: engine.Grid(m, kmax), horizon: horizon},
		markdown: markdown}, nil
}

// sweepWork is a prepared /v1/sweep request.
type sweepWork struct {
	s       *Server
	cells   []engine.Cell
	horizon float64
}

// answer runs the sweep table. Per-cell failures ride inside the table
// (partial progress is never thrown away); only whole-request failures
// propagate.
func (sw *sweepWork) answer(ctx context.Context) (any, error) {
	table, err := ComputeSweep(ctx, sw.s.cfg.Engine, sw.cells, sw.horizon, nil)
	var ce *engine.CellError
	if err != nil && !errors.As(err, &ce) {
		return nil, err
	}
	return table, nil
}

// rows streams one SweepCell JSON object per line in grid order: each
// cell goes from the engine worker that finishes it straight to
// ndjsonStream and is appended without reflection, byte-identical to
// the cells of the batch JSON answer. Cancellation (timeout or client
// disconnect) stops the engine within one cell evaluation and
// truncates the stream cleanly.
func (sw *sweepWork) rows(ctx context.Context, w http.ResponseWriter, budget time.Duration) error {
	ndjsonStream(ctx, w, sw.s.cfg.Heartbeat, budget, len(sw.cells), sw.s.cfg.Engine.SweepStream(ctx, sw.cells, sw.horizon),
		func(b []byte, cr engine.CellResult) ([]byte, error) {
			cell := SweepCellOf(cr)
			return cell.appendJSON(b), nil
		})
	return nil
}

// wantsNDJSON negotiates the streaming representation of /v1/sweep,
// /v1/simulate and /v1/batch: an explicit ?format= wins, and the
// Accept header applies only when the query string chooses none.
func wantsNDJSON(r *http.Request, p map[string]string) bool {
	return p["format"] == "ndjson" ||
		(p["format"] == "" && strings.Contains(r.Header.Get("Accept"), "application/x-ndjson"))
}

// flushGap is the shortest interval between two flushes of an NDJSON
// stream's rows. Each flush is a write to the connection, so flushing
// every row of a fast stream would cost more than the rows do; rows
// that arrive within flushGap of a flush wait for the next one.
const flushGap = time.Millisecond

// ndjsonStream is the shared NDJSON writer of /v1/sweep, /v1/simulate
// and /v1/batch: one JSON object per line, appended by appendRow, as
// rows arrive; '#'-prefixed heartbeat comments while nothing is ready;
// and a final '# done rows=N' or '# truncated after M/N rows: <reason>'
// status comment. Rows are flushed to the client whenever no next row
// is ready, but at most once per flushGap; a row still unflushed then
// is flushed by a timer when the gap has passed. Heartbeats and the
// status line are always flushed. The caller has validated the request
// and acquired its compute slot; rows must be closed by the producer
// (every producer closes on ctx cancellation).
func ndjsonStream[T any](ctx context.Context, w http.ResponseWriter, heartbeat, budget time.Duration, total int, rows <-chan T, appendRow func([]byte, T) ([]byte, error)) {
	flusher, _ := w.(http.Flusher)
	var (
		lastFlush time.Time
		unflushed bool
	)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
		lastFlush, unflushed = time.Now(), false
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	// flushC is the pending-row timer's channel while it runs, nil
	// otherwise. The timer is only ever reset after its value has been
	// received, so no stale tick can cut a later gap short.
	var (
		flushTimer *time.Timer
		flushC     <-chan time.Time
	)
	defer func() {
		if flushTimer != nil {
			flushTimer.Stop()
		}
	}()
	buf := make([]byte, 0, 512)
	emitted := 0
	for {
		var (
			row T
			ok  bool
		)
		select {
		case row, ok = <-rows:
		default:
			// No row is ready: hand the client what it has, or wake up
			// when the gap since the last flush has passed.
			if unflushed && flushC == nil {
				if wait := flushGap - time.Since(lastFlush); wait > 0 {
					if flushTimer == nil {
						flushTimer = time.NewTimer(wait)
					} else {
						flushTimer.Reset(wait)
					}
					flushC = flushTimer.C
				} else {
					flush()
				}
			}
			select {
			case row, ok = <-rows:
			case <-ticker.C:
				io.WriteString(w, "# heartbeat\n")
				flush()
				continue
			case <-flushC:
				flushC = nil
				continue
			}
		}
		if !ok {
			break
		}
		var err error
		if buf, err = appendRow(buf[:0], row); err != nil {
			fmt.Fprintf(w, "# error: %v\n", err)
			flush()
			return
		}
		buf = append(buf, '\n')
		w.Write(buf)
		emitted++
		unflushed = true
	}
	if emitted < total {
		reason := "cancelled"
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			reason = fmt.Sprintf("timeout after %v", budget)
		}
		fmt.Fprintf(w, "# truncated after %d/%d rows: %s\n", emitted, total, reason)
	} else {
		fmt.Fprintf(w, "# done rows=%d\n", emitted)
	}
	flush()
}

// computeStatus classifies an error from the compute path. Raw context
// errors surface when engine work is consumed without compute's
// mapping (the batch endpoint's per-row evaluation, stream setup): they
// classify like its sentinels.
func computeStatus(err error) int {
	switch {
	case errors.Is(err, errTimeout), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, errBusy):
		return http.StatusServiceUnavailable
	case errors.Is(err, errShed):
		return http.StatusTooManyRequests
	case errors.Is(err, errClientGone), errors.Is(err, context.Canceled):
		// 499 is the de-facto (nginx) "client closed request" code; the
		// client is gone, the status only feeds the error counters.
		return 499
	}
	var ce *engine.CellError
	if errors.As(err, &ce) || errors.Is(err, bounds.ErrInvalidParams) ||
		errors.Is(err, errBadParam) || errors.Is(err, registry.ErrNotVerifiable) ||
		errors.Is(err, registry.ErrInvalidRequest) || errors.Is(err, pfaulty.ErrBadParams) {
		return http.StatusBadRequest
	}
	// Strategy-program failures are the client's script misbehaving —
	// a compile error, a gas bomb, a round explosion, an invalid emit,
	// or a coverage gap the adversary detects — all 400s naming the
	// violated limit, never 500s.
	if errors.Is(err, program.ErrCompile) || errors.Is(err, program.ErrGasExhausted) ||
		errors.Is(err, program.ErrTooManyRounds) || errors.Is(err, program.ErrEval) ||
		errors.Is(err, program.ErrBadParams) || errors.Is(err, strategy.ErrBadParams) ||
		errors.Is(err, strategy.ErrTooManyRounds) || errors.Is(err, adversary.ErrUncovered) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func nan() float64 { return math.NaN() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	// Encode into pooled scratch, then write in one call. The indented
	// encoder produces the same bytes the per-call json.NewEncoder(w)
	// did (an Encoder buffers the whole document before writing, so the
	// error behavior — nothing written on a marshal failure — is
	// unchanged too).
	enc := getEncoder()
	defer putEncoder(enc)
	if err := enc.indented.Encode(v); err == nil {
		w.Write(enc.buf.Bytes())
	}
}

func writeText(w http.ResponseWriter, text string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
