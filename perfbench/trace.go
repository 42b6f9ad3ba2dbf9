package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/strategy"
	"repro/internal/strategy/program"
	"repro/internal/trajectory"
)

// layerSpec names one per-layer metric and its unit.
type layerSpec struct{ name, unit string }

// traceOps are the request kinds the server metrics are kept per.
var traceOps = []string{loadgen.OpBounds, loadgen.OpVerify, loadgen.OpSimulate, loadgen.OpBatch, loadgen.OpSweep, loadgen.OpStrategies}

// layers are the layers self time is reported for, outermost first.
var layers = []string{"transport", "server", "registry", "engine", "simulator", "solver", "adversary", "strategy", "program"}

// perLayerSpecs lists every metric a traced run reports. A metric of a
// request kind or path the workload never exercises reads 0.
func perLayerSpecs() []layerSpec {
	specs := []layerSpec{{"transport.us", "us"}, {"transport.conns_opened", "count"}}
	for _, op := range traceOps {
		specs = append(specs, []layerSpec{
			{"server.handler_us." + op, "us"}, {"server.self_us." + op, "us"}, {"server.resp_bytes." + op, "bytes"},
		}...)
	}
	specs = append(specs, []layerSpec{{"server.allocs_per_req", "count"}, {"server.shed_rate", "ratio"}}...)
	for _, class := range admissionClasses {
		specs = append(specs, []layerSpec{{"server.admitted." + class, "count"}, {"server.shed." + class, "count"}}...)
	}
	specs = append(specs, []layerSpec{
		{"registry.job_build_us", "us"},
		{"engine.run_hit_us", "us"}, {"engine.run_miss_us", "us"}, {"engine.sweep_us", "us"},
		{"engine.pfaulty_job_us", "us"}, {"engine.shoreline_job_us", "us"}, {"engine.evacuation_job_us", "us"},
		{"engine.hit_ratio", "ratio"}, {"engine.dedup_ratio", "ratio"}, {"engine.evictions_per_req", "count"},
		{"solver.strategy_us", "us"}, {"solver.pfaulty_base_us", "us"},
		{"solver.hit_ratio", "ratio"}, {"solver.newton_iters_per_miss", "count"},
		{"adversary.build_us", "us"}, {"adversary.query_us", "us"}, {"adversary.shoreline_us", "us"},
		{"adversary.allocs_per_call", "count"}, {"adversary.builds_per_req", "count"}, {"adversary.pool_reuse_ratio", "ratio"},
		{"strategy.rounds_us", "us"}, {"program.rounds_us", "us"}, {"program.compile_us", "us"},
	}...)
	for _, l := range layers {
		specs = append(specs, layerSpec{l + ".self_us", "us"})
	}
	return append(specs, []layerSpec{
		{"trace.overhead_us", "us"}, {"trace.requests", "count"},
		{"client.latency_p99_ms", "ms"}, {"client.bounds_p99_ms", "ms"}, {"client.lag_p99_ms", "ms"},
	}...)
}

// span is one timed call at a layer boundary of one replayed request.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer replays a workload's inputs in-process, one request at a time,
// through stacks built and warmed alike and fed the same requests in
// the same order, so each sees the workload's own cache state:
//
//   - plain: a loopback client and an httptest server around a
//     server.Server, recording nothing but the round trip (the untraced
//     baseline of the tracing overhead);
//   - loop: the same with ServeHTTP timed inside the listener, so the
//     transport's share is the round trip minus ServeHTTP;
//   - rec: Server.ServeHTTP on an httptest.NewRecorder, no socket;
//   - eng: the registry job constructors and an engine, called the way
//     the handlers call them;
//   - the solver, strategy, program, adversary and simulator entry
//     points, on the inputs of every job the engine stack missed on.
//
// The engines run one worker, so a request's child spans are
// sequential and a layer's self time is its span minus its children's.
// The solver memo and the evaluator pool are process-wide and shared by
// the stacks.
type tracer struct {
	ctx         context.Context
	in          *inputs
	plain, loop *loopback
	rec         *server.Server
	eng         *engine.Engine
	start       time.Time
	spans       []span
	obs         map[string][]float64 // per-call observations by metric name
	self        map[string]float64   // summed self time by layer, µs
	items       int
	buf         []trajectory.Round
	triples     map[[3]int]bool // (m, k, f) of the cyclic strategies replayed
	problems    []string
}

// loopback is an in-process HTTP listener around a handler and the
// client that calls it.
type loopback struct {
	ts     *httptest.Server
	client *http.Client
	// t0 and t1 bracket the last ServeHTTP call in Unix ns (timed
	// loopbacks only; requests are sequential).
	t0, t1 atomic.Int64
}

func newLoopback(h http.Handler, timed bool) *loopback {
	lb := &loopback{}
	if timed {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			lb.t0.Store(t0.UnixNano())
			lb.t1.Store(time.Now().UnixNano())
		})
	}
	lb.ts = httptest.NewServer(h)
	lb.client = lb.ts.Client()
	return lb
}

// do sends one request and reads the whole answer, returning the status
// and the client-side start and end of the round trip.
func (lb *loopback) do(ctx context.Context, p loadgen.Plan) (int, time.Time, time.Time, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, p.Method, lb.ts.URL+p.Path, bytes.NewReader(p.Body))
	if err != nil {
		return 0, t0, t0, err
	}
	if p.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := lb.client.Do(req)
	if err != nil {
		return 0, t0, time.Now(), err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, t0, time.Now(), err
}

// newServer builds one replay stack's server, warmed as boundsd is.
func (t *tracer) newServer(eng *engine.Engine) (*server.Server, error) {
	srv := server.New(server.Config{Engine: eng})
	if t.in.w.precompute() {
		if _, err := srv.Precompute(t.ctx, precomputeSpec()); err != nil {
			return nil, fmt.Errorf("precompute: %w", err)
		}
	}
	if t.in.w.warm != nil {
		if _, err := registerOn(srv, t.in.scripts); err != nil {
			return nil, fmt.Errorf("in-process: %w", err)
		}
	}
	return srv, nil
}

// newEngine is one replay stack's engine: one worker, boundsd's cache.
func newEngine() *engine.Engine { return engine.NewWithCache(1, server.DefaultCacheCapacity) }

// traceReplay replays the workload's inputs for the run length and
// returns the per-layer metrics (with the untraced window's counter
// deltas and tails from m) and the replay's failures.
func traceReplay(ctx context.Context, w *workload, in *inputs, m *measurement, o options) (map[string]metric, []string, error) {
	t := &tracer{
		ctx:     ctx,
		in:      in,
		obs:     make(map[string][]float64),
		self:    make(map[string]float64),
		triples: make(map[[3]int]bool),
	}
	var srvs [3]*server.Server
	for i := range srvs {
		srv, err := t.newServer(newEngine())
		if err != nil {
			return nil, nil, err
		}
		srvs[i] = srv
	}
	t.plain = newLoopback(srvs[0], false)
	defer t.plain.ts.Close()
	t.loop = newLoopback(srvs[1], true)
	defer t.loop.ts.Close()
	t.rec = srvs[2]
	t.eng = newEngine()
	if w.precompute() {
		if _, err := server.New(server.Config{Engine: t.eng}).Precompute(ctx, precomputeSpec()); err != nil {
			return nil, nil, fmt.Errorf("precompute: %w", err)
		}
	}
	t.start = time.Now()
	deadline := t.start.Add(time.Duration(o.seconds) * time.Second)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		p := in.plan(i)
		t.replay(p)
		if p.Follow != "" {
			prog, err := in.compile(scriptOf(p.Body))
			if err != nil {
				t.fail("strategy script: " + err.Error())
				continue
			}
			t.replay(loadgen.Plan{Index: i, Op: loadgen.OpVerify, Method: http.MethodGet,
				Path: p.Follow + "&strategy=" + url.QueryEscape(prog.Hash())})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	out := t.metrics(m)
	t.report(os.Stdout, out)
	if o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
		if err := writeSpans(path, t.spans); err != nil {
			return nil, nil, err
		}
		fmt.Printf("  %d spans written to %s\n", len(t.spans), path)
	}
	return out, t.problems, nil
}

func (t *tracer) span(req int, name, parent string, t0, t1 time.Time) float64 {
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent,
		Start: t0.Sub(t.start).Nanoseconds(), End: t1.Sub(t.start).Nanoseconds()})
	return micros(t1.Sub(t0))
}

func (t *tracer) observe(name string, v float64) { t.obs[name] = append(t.obs[name], v) }

func (t *tracer) fail(problem string) { t.problems = append(t.problems, "traced replay: "+problem) }

// replay runs one request through every stack.
func (t *tracer) replay(p loadgen.Plan) {
	n := t.items
	t.items++
	q := query(p.Path)
	if p.Op == loadgen.OpSimulate && q.Get("model") == "pfaulty-halfline" {
		// The solver memo is process-wide: settle this p before any stack
		// runs, so all of them see the same memo state. The miss path is
		// timed on its own (solver.pfaulty_base_us).
		_, _, _ = solver.Shared().PFaultyBase(qfloat(q, "p", registry.DefaultFaultProbability))
	}

	// The two loopback stacks take turns going first: the first to see a
	// request's data pays the colder CPU caches, and alternating keeps
	// that out of the tracing overhead.
	plain := func() {
		status, a, b, err := t.plain.do(t.ctx, p)
		t.check("plain loopback", p, status, err)
		t.observe("untraced", micros(b.Sub(a)))
	}
	if n%2 == 0 {
		plain()
	}
	status, c0, c1, err := t.loop.do(t.ctx, p)
	t.check("loopback", p, status, err)
	if n%2 == 1 {
		plain()
	}
	client := t.span(n, "client", "", c0, c1)
	inner := t.span(n, "listener.ServeHTTP", "client", time.Unix(0, t.loop.t0.Load()), time.Unix(0, t.loop.t1.Load()))
	t.observe("traced", client)
	t.observe("transport.us", client-inner)
	t.self["transport"] += client - inner

	req := httptest.NewRequest(p.Method, p.Path, bytes.NewReader(p.Body))
	if p.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r0 := time.Now()
	t.rec.ServeHTTP(rec, req)
	r1 := time.Now()
	runtime.ReadMemStats(&after)
	t.check("recorder", p, rec.Code, nil)
	handler := t.span(n, "Server.ServeHTTP", "client", r0, r1)
	t.observe("server.handler_us."+p.Op, handler)
	t.observe("server.resp_bytes."+p.Op, float64(rec.Body.Len()))
	t.observe("server.allocs_per_req", float64(after.Mallocs-before.Mallocs))

	self := handler - t.below(n, p, q)
	t.observe("server.self_us."+p.Op, self)
	t.self["server"] += self
}

func (t *tracer) check(stack string, p loadgen.Plan, status int, err error) {
	if err != nil || status != http.StatusOK {
		t.fail(fmt.Sprintf("%s %s %s: status %d, error %v", stack, p.Method, p.Path, status, err))
	}
}

// below times what the handler calls for one request, as the handler
// calls it, and returns the time in µs.
func (t *tracer) below(n int, p loadgen.Plan, q url.Values) float64 {
	switch p.Op {
	case loadgen.OpBounds:
		return t.bounds(n, q)
	case loadgen.OpVerify:
		return t.verify(n, q)
	case loadgen.OpSimulate:
		return t.simulate(n, q)
	case loadgen.OpSweep:
		return t.sweep(n, q)
	case loadgen.OpBatch:
		var items []map[string]any
		if err := json.Unmarshal(p.Body, &items); err != nil {
			t.fail("batch body: " + err.Error())
			return 0
		}
		total := 0.0
		for _, item := range items {
			iq := url.Values{}
			for k, v := range item {
				iq.Set(k, fmt.Sprint(v))
			}
			switch iq.Get("op") {
			case "bounds":
				total += t.bounds(n, iq)
			case "verify":
				total += t.verify(n, iq)
			}
		}
		return total
	case loadgen.OpStrategies:
		t0 := time.Now()
		_, err := program.Compile(scriptOf(p.Body))
		d := t.span(n, "program.Compile", "Server.ServeHTTP", t0, time.Now())
		if err != nil {
			t.fail("program.Compile: " + err.Error())
		}
		t.observe("program.compile_us", d)
		t.self["program"] += d
		return d
	}
	return 0
}

// bounds times the scenario's closed-form bound functions.
func (t *tracer) bounds(n int, q url.Values) float64 {
	sc, err := registry.Get(modelOf(q))
	if err != nil {
		t.fail(err.Error())
		return 0
	}
	m, k, f := qint(q, "m", 2), qint(q, "k", 0), qint(q, "f", -1)
	t0 := time.Now()
	// An error here is the cell's regime (no finite bound), which the
	// answer reports; the time is what matters.
	_, _ = sc.LowerBound(m, k, f)
	_, _ = sc.UpperBound(m, k, f)
	d := t.span(n, "registry.bounds", "Server.ServeHTTP", t0, time.Now())
	t.self["registry"] += d
	return d
}

// verify times the verify job's construction and its engine run, then
// the kernel calls of a miss.
func (t *tracer) verify(n int, q url.Values) float64 {
	m, k, f := qint(q, "m", 2), qint(q, "k", 0), qint(q, "f", -1)
	h := qfloat(q, "horizon", server.DefaultHorizon)
	ctx := solver.With(t.ctx, t.eng.Solver())
	var (
		job  engine.Job
		inst *program.Instance
		err  error
	)
	t0 := time.Now()
	if hash := q.Get("strategy"); hash != "" {
		if prog := t.in.program(hash); prog == nil {
			err = fmt.Errorf("unknown strategy %s", hash)
		} else if inst, err = prog.New(m, k, f); err == nil {
			job = engine.ExactRatio{Strategy: inst, Faults: f, Horizon: h}
		}
	} else {
		var sc registry.Scenario
		if sc, err = registry.Get(modelOf(q)); err == nil {
			job, err = sc.VerifyJob(ctx, registry.Request{M: m, K: k, F: f, Horizon: h})
		}
	}
	t1 := time.Now()
	if err != nil {
		t.fail("verify job: " + err.Error())
		return 0
	}
	build := t.span(n, "registry.VerifyJob", "Server.ServeHTTP", t0, t1)
	t.observe("registry.job_build_us", build)
	t.self["registry"] += build
	run, miss := t.run(n, ctx, job)
	leaves := 0.0
	switch {
	case miss && inst != nil:
		leaves = t.scripted(n, inst, f, h)
	case miss:
		leaves = t.cyclic(n, "engine.Run", m, k, f, h)
	}
	t.self["engine"] += run - leaves
	return build + run
}

// run times one engine.Run and reports whether it missed the cache.
func (t *tracer) run(n int, ctx context.Context, job engine.Job) (float64, bool) {
	misses := t.eng.Stats().Misses
	t0 := time.Now()
	_, err := t.eng.Run(ctx, job)
	d := t.span(n, "engine.Run", "Server.ServeHTTP", t0, time.Now())
	if err != nil {
		t.fail("engine.Run: " + err.Error())
	}
	miss := t.eng.Stats().Misses > misses
	if miss {
		t.observe("engine.run_miss_us", d)
	} else {
		t.observe("engine.run_hit_us", d)
	}
	return d, miss
}

// cyclic times the kernel calls of one optimal-strategy evaluation —
// the solver lookup, the native rounds the evaluator build generates,
// the build and the query — plus the same rounds through the
// strategy-program VM, and returns the calls' total in µs.
func (t *tracer) cyclic(n int, parent string, m, k, f int, h float64) float64 {
	t.triples[[3]int{m, k, f}] = true
	t0 := time.Now()
	s, err := solver.Shared().Strategy(m, k, f)
	ds := t.span(n, "solver.Strategy", parent, t0, time.Now())
	if err != nil {
		t.fail("solver.Strategy: " + err.Error())
		return ds
	}
	t1 := time.Now()
	for r := 0; r < k; r++ {
		if out, err := s.AppendRounds(t.buf[:0], r, h); err == nil {
			t.buf = out
		}
	}
	dr := micros(time.Since(t1))
	t.observe("strategy.rounds_us", dr)
	if inst, err := strategy.CyclicProgram().New(m, k, f); err == nil {
		t2 := time.Now()
		for r := 0; r < k; r++ {
			if out, err := inst.AppendRounds(t.buf[:0], r, h); err == nil {
				t.buf = out
			}
		}
		t.observe("program.rounds_us", micros(time.Since(t2)))
	}
	build, query := t.evaluate(n, parent, s, f, h)
	t.self["solver"] += ds
	t.self["strategy"] += dr
	t.self["adversary"] += build + query - dr
	return ds + build + query
}

// scripted times the kernel calls of one scripted-strategy evaluation:
// the VM rounds the build generates, the build and the query.
func (t *tracer) scripted(n int, inst *program.Instance, f int, h float64) float64 {
	t0 := time.Now()
	for r := 0; r < inst.K(); r++ {
		if out, err := inst.AppendRounds(t.buf[:0], r, h); err == nil {
			t.buf = out
		}
	}
	dp := micros(time.Since(t0))
	build, query := t.evaluate(n, "engine.Run", inst, f, h)
	t.self["program"] += dp
	t.self["adversary"] += build + query - dp
	return build + query
}

// evaluate times an exact-adversary evaluation: NewEvaluator, then
// ExactRatio, then Release, counting the allocations of the three.
func (t *tracer) evaluate(n int, parent string, s strategy.Strategy, f int, h float64) (build, query float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	ev, err := adversary.NewEvaluator(s, h)
	t1 := time.Now()
	if err != nil {
		t.fail("adversary.NewEvaluator: " + err.Error())
		return 0, 0
	}
	_, err = ev.ExactRatio(t.ctx, f)
	t2 := time.Now()
	ev.Release()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.fail("Evaluator.ExactRatio: " + err.Error())
	}
	build = t.span(n, "adversary.NewEvaluator", parent, t0, t1)
	query = t.span(n, "Evaluator.ExactRatio", parent, t1, t2)
	t.observe("adversary.build_us", build)
	t.observe("adversary.query_us", query)
	t.observe("adversary.allocs_per_call", float64(after.Mallocs-before.Mallocs))
	return build, query
}

// simFamilyMetric maps a simulated scenario to its job-time metric.
var simFamilyMetric = map[string]string{
	"pfaulty-halfline": "engine.pfaulty_job_us",
	"shoreline":        "engine.shoreline_job_us",
	"evacuation-line":  "engine.evacuation_job_us",
}

// simulate times the per-row simulate jobs' construction and engine
// runs, then the simulator run of every row that missed; it also times,
// on the same inputs, the entry points the rows reach only through a
// memo (the p-faulty base solve) or the verify path (the shoreline
// adversary).
func (t *tracer) simulate(n int, q url.Values) float64 {
	sc, err := registry.Get(modelOf(q))
	if err != nil {
		t.fail(err.Error())
		return 0
	}
	req := simRequest(q)
	ctx := solver.With(t.ctx, t.eng.Solver())
	t0 := time.Now()
	dists := engine.LogGrid(req.Horizon, qint(q, "points", server.DefaultSimPoints))
	jobs := make([]engine.Job, 0, len(dists))
	for _, d := range dists {
		rq := req
		rq.Dist = d
		job, err := sc.SimulateJob(ctx, rq)
		if err != nil {
			t.fail("simulate job: " + err.Error())
			return 0
		}
		jobs = append(jobs, job)
	}
	build := t.span(n, "registry.SimulateJob", "Server.ServeHTTP", t0, time.Now())
	t.observe("registry.job_build_us", build)
	t.self["registry"] += build
	total, leaves := 0.0, 0.0
	for _, job := range jobs {
		run, miss := t.run(n, ctx, job)
		total += run
		if !miss {
			continue
		}
		j0 := time.Now()
		_, err := job.Run(ctx)
		d := t.span(n, "simulator."+sc.Name, "engine.Run", j0, time.Now())
		if err != nil {
			t.fail("simulator: " + err.Error())
		}
		if name := simFamilyMetric[sc.Name]; name != "" {
			t.observe(name, d)
		}
		t.self["simulator"] += d
		leaves += d
	}
	t.self["engine"] += total - leaves
	switch sc.Name {
	case "pfaulty-halfline":
		p := req.P
		if p == 0 {
			p = registry.DefaultFaultProbability
		}
		s0 := time.Now()
		if _, _, err := solver.New().PFaultyBase(p); err != nil {
			t.fail("solver.PFaultyBase: " + err.Error())
		}
		t.observe("solver.pfaulty_base_us", micros(time.Since(s0)))
	case "shoreline":
		s0 := time.Now()
		se, err := adversary.NewShorelineEvaluator(adversary.SpreadHeadings(req.K), req.Horizon)
		if err == nil {
			_, err = se.ExactRatio(t.ctx, req.F)
			se.Release()
		}
		if err != nil {
			t.fail("shoreline evaluator: " + err.Error())
		}
		t.observe("adversary.shoreline_us", micros(time.Since(s0)))
	case "evacuation-line":
		t.triples[[3]int{2, req.K, req.F}] = true
	}
	return build + total
}

// sweep times engine.Sweep, then the kernel calls of every
// search-regime cell when the sweep missed the cache.
func (t *tracer) sweep(n int, q url.Values) float64 {
	m, kmax, h := qint(q, "m", 2), qint(q, "kmax", 6), qfloat(q, "horizon", server.DefaultHorizon)
	cells := engine.Grid(m, kmax)
	misses := t.eng.Stats().Misses
	t0 := time.Now()
	_, err := t.eng.Sweep(t.ctx, cells, h)
	d := t.span(n, "engine.Sweep", "Server.ServeHTTP", t0, time.Now())
	if err != nil {
		t.fail("engine.Sweep: " + err.Error())
	}
	t.observe("engine.sweep_us", d)
	leaves := 0.0
	if t.eng.Stats().Misses > misses {
		for _, c := range cells {
			if r, err := bounds.Classify(c.M, c.K, c.F); err == nil && r == bounds.RegimeSearch {
				leaves += t.cyclic(n, "engine.Sweep", c.M, c.K, c.F, h)
			}
		}
	}
	t.self["engine"] += d - leaves
	return d
}

// metrics reduces the replay's observations to the per-layer metrics:
// medians per call, mean self time per request per layer, and the
// untraced window's /metrics deltas, tails and connection count.
func (t *tracer) metrics(m *measurement) map[string]metric {
	specs := perLayerSpecs()
	out := make(map[string]metric, len(specs))
	units := make(map[string]string, len(specs))
	for _, s := range specs {
		units[s.name] = s.unit
	}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{v, units[name]}
	}
	for name, xs := range t.obs {
		if _, ok := units[name]; ok {
			set(name, median(xs))
		}
	}
	items := float64(max(t.items, 1))
	for _, l := range layers {
		set(l+".self_us", t.self[l]/items)
	}
	set("trace.overhead_us", median(t.obs["traced"])-median(t.obs["untraced"]))
	set("trace.requests", float64(t.items))
	set("solver.strategy_us", strategyHitUs(t.triples))

	attempted := float64(m.col.attempted)
	hits, misses := m.delta("boundsd_engine_cache_hits_total"), m.delta("boundsd_engine_cache_misses_total")
	set("engine.hit_ratio", ratio(hits, hits+misses))
	set("engine.dedup_ratio", ratio(m.delta("boundsd_engine_dedup_total"), hits+misses))
	set("engine.evictions_per_req", ratio(m.delta("boundsd_engine_cache_evictions_total"), attempted))
	var sh, sm float64
	for _, kind := range []string{"alpha", "strategy", "base", "horizon"} {
		sh += m.delta("boundsd_solver_" + kind + "_hits_total")
		sm += m.delta("boundsd_solver_" + kind + "_misses_total")
	}
	set("solver.hit_ratio", ratio(sh, sh+sm))
	set("solver.newton_iters_per_miss", ratio(m.delta("boundsd_solver_newton_iterations_total"), m.delta("boundsd_solver_alpha_misses_total")))
	builds := m.delta("boundsd_kernel_builds_total")
	set("adversary.builds_per_req", ratio(builds, attempted))
	set("adversary.pool_reuse_ratio", ratio(m.delta("boundsd_kernel_pool_reuses_total"), builds))
	for _, class := range admissionClasses {
		set("server.admitted."+class, m.delta(admittedKey(class)))
		set("server.shed."+class, m.delta(shedKey(class)))
	}
	set("server.shed_rate", ratio(float64(m.col.shed), attempted))
	set("transport.conns_opened", float64(m.dials))
	set("client.latency_p99_ms", quantile(m.col.lat, 0.99))
	set("client.bounds_p99_ms", quantile(m.col.bounds, 0.99))
	set("client.lag_p99_ms", quantile(m.col.lag, 0.99))
	for _, s := range specs {
		if _, ok := out[s.name]; !ok {
			out[s.name] = metric{0, s.unit}
		}
	}
	return out
}

// report prints the self-time breakdown and the tracing overhead.
func (t *tracer) report(w io.Writer, out map[string]metric) {
	fmt.Fprintf(w, "  traced replay of %d requests; self time per request by layer:\n", t.items)
	total := 0.0
	for _, l := range layers {
		total += out[l+".self_us"].Value
	}
	for _, l := range layers {
		v := out[l+".self_us"].Value
		fmt.Fprintf(w, "    %-10s %10.2f us  %5.1f%%\n", l, v, 100*ratio(v, total))
	}
	fmt.Fprintf(w, "  tracing overhead %.2f us per request (loopback p50 %.2f us traced, %.2f us untraced)\n",
		out["trace.overhead_us"].Value, median(t.obs["traced"]), median(t.obs["untraced"]))
}

// strategyHitUs times solver.Shared().Strategy on its hit path with
// GOMAXPROCS concurrent callers — every lookup takes the solver's one
// mutex — and returns the mean latency of one call in µs.
func strategyHitUs(triples map[[3]int]bool) float64 {
	keys := make([][3]int, 0, len(triples))
	for k := range triples {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		keys = append(keys, [3]int{2, 3, 1})
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a[0] < b[0] || (a[0] == b[0] && (a[1] < b[1] || (a[1] == b[1] && a[2] < b[2])))
	})
	sv := solver.Shared()
	for _, k := range keys {
		_, _ = sv.Strategy(k[0], k[1], k[2]) // warm: the timed calls are hits
	}
	const calls = 20000
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				k := keys[i%len(keys)]
				_, _ = sv.Strategy(k[0], k[1], k[2])
			}
		}()
	}
	wg.Wait()
	return micros(time.Since(start)) / calls
}

// writeSpans writes the replay's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// precomputeSpec is boundsd's -precompute pass (cmd/boundsd/warm.go),
// rebuilt from the same loadgen pools, so the in-process servers of a
// traced serve-hot replay start from boundsd's cache state.
func precomputeSpec() server.PrecomputeSpec {
	pools := loadgen.DefaultPools()
	spec := server.PrecomputeSpec{
		SweepM:    2,
		SweepKmax: maxOf(pools.SweepKmax),
		Horizon:   maxOf(pools.SweepHorizons),
		Requests:  make(map[string][]registry.Request),
	}
	for _, t := range pools.Triples() {
		for _, h := range pools.VerifyHorizons {
			spec.Requests["crash"] = append(spec.Requests["crash"], registry.Request{M: t[0], K: t[1], F: t[2], Horizon: h})
		}
	}
	simHorizon := maxOf(pools.SimHorizons)
	for _, p := range pools.SimPfaultyP {
		spec.Requests["pfaulty-halfline"] = append(spec.Requests["pfaulty-halfline"],
			registry.Request{M: 1, K: 1, F: 0, P: p, Horizon: simHorizon})
	}
	for _, kf := range pools.ShorelineKFs {
		spec.Requests["shoreline"] = append(spec.Requests["shoreline"],
			registry.Request{M: 2, K: kf[0], F: kf[1], Horizon: simHorizon})
	}
	for _, f := range pools.EvacuationFs {
		spec.Requests["evacuation-line"] = append(spec.Requests["evacuation-line"],
			registry.Request{M: 2, K: 2*f + 1, F: f, Horizon: simHorizon})
	}
	return spec
}

func maxOf[T int | float64](pool []T) T {
	best := pool[0]
	for _, v := range pool[1:] {
		best = max(best, v)
	}
	return best
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
