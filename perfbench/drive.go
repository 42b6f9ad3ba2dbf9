package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
)

// requestTimeout bounds one request, headers through the last body byte.
const requestTimeout = 30 * time.Second

// Answer sampling for the post-run check: request i is re-checked when
// splitmix64(seed ^ i) is divisible by sampleEvery, up to maxSamples
// answers per run.
const (
	sampleEvery = 16
	maxSamples  = 48
)

// maxLagMs bounds the open loop's send lateness: a window whose 99th
// percentile lag exceeds it measured the generator, not boundsd. Such a
// window is driven again, up to maxWindows windows in all; a run whose
// every window is invalid fails.
const (
	maxLagMs   = 20.0
	maxWindows = 3
)

// collector files every attempt of the measured window.
type collector struct {
	mu        sync.Mutex
	lat       []float64 // ms, scheduled (open loop) or actual send to last body byte, every attempt
	bounds    []float64 // ms, the /v1/bounds attempts
	lag       []float64 // ms, open-loop send lateness
	byOp      map[string]map[string]int64
	attempted int64
	ok, shed  int64
	failed    int64
	problems  []string // the first few failures, for the report
	samples   []sample
	scripts   map[string]string // hash -> script of every strategy registered in the window
}

// sample is one kept answer for the post-run check.
type sample struct {
	plan loadgen.Plan
	body []byte
}

func (col *collector) record(p loadgen.Plan, class string, lat time.Duration, problem string, keep bool, body []byte) {
	ms := float64(lat.Nanoseconds()) / 1e6
	col.mu.Lock()
	defer col.mu.Unlock()
	col.attempted++
	if col.byOp[p.Op] == nil {
		col.byOp[p.Op] = make(map[string]int64)
	}
	col.byOp[p.Op][class]++
	switch class {
	case loadgen.Class2xx:
		col.ok++
	case loadgen.ClassShed:
		col.shed++
	}
	col.lat = append(col.lat, ms)
	if p.Op == loadgen.OpBounds {
		col.bounds = append(col.bounds, ms)
	}
	if problem != "" {
		col.failed++
		if len(col.problems) < 10 {
			col.problems = append(col.problems, fmt.Sprintf("%s %s: %s", p.Method, p.Path, problem))
		}
		return
	}
	if keep && class == loadgen.Class2xx && len(col.samples) < maxSamples {
		col.samples = append(col.samples, sample{plan: p, body: body})
	}
}

// tallies shapes the per-op class counts for loadgen.ReconcileRequests.
func (col *collector) tallies() *loadgen.Result {
	res := &loadgen.Result{Endpoints: make(map[string]*loadgen.EndpointResult)}
	for op, classes := range col.byOp {
		ep := &loadgen.EndpointResult{ByClass: classes}
		for _, n := range classes {
			ep.Count += n
		}
		res.Endpoints[op] = ep
	}
	return res
}

// client issues the measured requests. Its transport caps connections
// at GOMAXPROCS and keeps them all idle between requests, so a burst
// never churns connections; dials counts every connection it opens.
type client struct {
	base  string
	w     *workload
	in    *inputs
	http  *http.Client
	dials atomic.Int64
	col   collector
}

func newClient(base string, w *workload, in *inputs) *client {
	c := &client{base: base, w: w, in: in}
	c.col.byOp = make(map[string]map[string]int64)
	c.col.scripts = make(map[string]string)
	conns := runtime.GOMAXPROCS(0)
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.http = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
	return c
}

// keep reports whether request i's answer is sampled for the check.
func (c *client) keep(i int) bool {
	return splitmix64(uint64(c.in.seed)^uint64(i))%sampleEvery == 0
}

// openLoop sends request i at start + i/rate whether or not earlier
// requests have been answered, timing each from its scheduled send.
func (c *client) openLoop(ctx context.Context, start time.Time, window time.Duration) {
	n := int(c.w.rate * window.Seconds())
	var wg sync.WaitGroup
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / c.w.rate))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag := float64(time.Since(due).Nanoseconds()) / 1e6
		c.col.mu.Lock()
		c.col.lag = append(c.col.lag, lag)
		c.col.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.exec(ctx, c.in.plan(i), due)
		}()
	}
	wg.Wait()
}

// closedLoop runs GOMAXPROCS callers, each sending its next request as
// soon as the previous one is answered, until the window closes.
func (c *client) closedLoop(ctx context.Context, start time.Time, window time.Duration) {
	deadline := start.Add(window)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				p := c.in.plan(int(next.Add(1) - 1))
				c.exec(ctx, p, time.Now())
			}
		}()
	}
	wg.Wait()
}

// exec sends one planned request, checks and files its answer, and for
// a strategy registration sends the verify of the registered hash.
func (c *client) exec(ctx context.Context, p loadgen.Plan, sched time.Time) {
	status, body, err := c.do(ctx, p.Method, p.Path, p.Body)
	lat := time.Since(sched)
	class, problem := c.classify(p, status, body, err)
	keep := c.keep(p.Index)
	c.col.record(p, class, lat, problem, keep, body)
	if p.Follow == "" || class != loadgen.Class2xx || problem != "" {
		return
	}
	var ans server.StrategiesAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return // classify already failed an unparsable registration
	}
	c.col.mu.Lock()
	c.col.scripts[ans.Hash] = scriptOf(p.Body)
	c.col.mu.Unlock()
	f := loadgen.Plan{Index: p.Index, Op: loadgen.OpVerify, Method: http.MethodGet,
		Path: p.Follow + "&strategy=" + url.QueryEscape(ans.Hash)}
	sent := time.Now()
	status, body, err = c.do(ctx, f.Method, f.Path, nil)
	lat = time.Since(sent)
	class, problem = c.classify(f, status, body, err)
	c.col.record(f, class, lat, problem, keep, body)
}

// do sends one request and reads the whole answer.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// classify buckets an attempt into a loadgen status class and names
// what is wrong with it, if anything: a transport error, a timeout, an
// unexpected status, or an answer that fails its structural check.
func (c *client) classify(p loadgen.Plan, status int, body []byte, err error) (class, problem string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return loadgen.ClassTimeout, "timed out"
	case err != nil:
		return loadgen.ClassTransport, err.Error()
	case status == http.StatusTooManyRequests:
		// A shed answer is admission control at work, not an error. Even
		// serve-hot sheds when the box stalls for longer than boundsd's
		// default shed-after while its heavy slots are full.
		return loadgen.ClassShed, ""
	case status >= 400 && status < 500:
		return loadgen.Class4xx, fmt.Sprintf("status %d: %.200s", status, body)
	case status != http.StatusOK:
		return loadgen.Class5xx, fmt.Sprintf("status %d: %.200s", status, body)
	}
	return loadgen.Class2xx, checkAnswer(p, body)
}

// measurement is what one measured window observed.
type measurement struct {
	col           *collector
	wall          float64 // seconds from the first send to the last answer
	cpuMs         float64 // boundsd user+system CPU over the window
	peakKiB       int64   // boundsd VmHWM at the end of the window
	lagP99        float64 // ms, the open loop's send lateness at its 99th percentile
	dials         int64   // connections the client opened
	before, after map[string]float64
	// checks lists the failed /metrics reconciliations, answer checks
	// and validity conditions; each counts as a failure.
	checks []string
}

// drive runs the workload's measured window against d and checks it.
func drive(ctx context.Context, w *workload, in *inputs, d *daemon, o options) (*measurement, error) {
	c := newClient(d.base, w, in)
	defer c.http.CloseIdleConnections()
	// A separate client scrapes /metrics, so the measured client's
	// connection count covers the workload's traffic alone.
	scraper := &http.Client{Timeout: 10 * time.Second}
	defer scraper.CloseIdleConnections()
	before, err := loadgen.ScrapeMetrics(ctx, scraper, d.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	window := time.Duration(o.seconds) * time.Second
	start := time.Now()
	if w.rate > 0 {
		c.openLoop(ctx, start, window)
	} else {
		c.closedLoop(ctx, start, window)
	}
	wall := time.Since(start).Seconds()
	cpu1, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	after, err := loadgen.ScrapeMetrics(ctx, scraper, d.base)
	if err != nil {
		return nil, err
	}
	peak, err := d.peakRSSKiB()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := &measurement{
		col:     &c.col,
		wall:    wall,
		cpuMs:   float64(cpu1-cpu0) * 1000 / clockTicks,
		peakKiB: peak,
		lagP99:  quantile(c.col.lag, 0.99),
		dials:   c.dials.Load(),
		before:  before,
		after:   after,
	}
	if rr := loadgen.ReconcileRequests(before, after, c.col.tallies()); !rr.OK() {
		for _, mm := range rr.Mismatches {
			m.checks = append(m.checks, "/metrics reconciliation: "+mm)
		}
	}
	scripts := make(map[string]string, len(c.col.scripts)+len(in.scripts))
	for h, s := range c.col.scripts {
		scripts[h] = s
	}
	for i, s := range in.scripts {
		scripts[in.hashes[i]] = s
	}
	m.checks = append(m.checks, verifyAnswers(ctx, in, c.col.samples, scripts)...)
	return m, nil
}

// delta is a /metrics counter's change over the window.
func (m *measurement) delta(key string) float64 { return m.after[key] - m.before[key] }

// valid reports whether the open loop kept to its schedule; a closed
// loop always does.
func (m *measurement) valid(w *workload) bool { return w.rate == 0 || m.lagP99 <= maxLagMs }

// endToEnd computes the gated metrics of an untraced run.
func endToEnd(m *measurement, setup float64) map[string]metric {
	answered := float64(len(m.col.lat))
	return map[string]metric{
		"setup_s":               {setup, "s"},
		"latency_p50_ms":        {quantile(m.col.lat, 0.5), "ms"},
		"goodput_rps":           {float64(m.col.ok) / m.wall, "1/s"},
		"server_cpu_ms_per_req": {m.cpuMs / answered, "ms"},
		"peak_rss_mb":           {float64(m.peakKiB) / 1024, "MB"},
	}
}

// report prints the run's human summary: traffic, tails, lag and the
// server-side counter deltas.
func (m *measurement) report(w io.Writer, wl *workload, o options) {
	col := m.col
	loop := fmt.Sprintf("closed loop of %d callers", runtime.GOMAXPROCS(0))
	if wl.rate > 0 {
		loop = fmt.Sprintf("open loop at %g req/s", wl.rate)
	}
	fmt.Fprintf(w, "perfbench %s (seed %d): %s for %ds over %.3fs; %d attempted, %d answered 2xx, %d shed, %d failed\n",
		wl.name, o.seed, loop, o.seconds, m.wall, col.attempted, col.ok, col.shed, col.failed+int64(len(m.checks)))
	ops := make([]string, 0, len(col.byOp))
	for op := range col.byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(w, "  %-10s %v\n", op, col.byOp[op])
	}
	attempted := float64(col.attempted)
	fmt.Fprintf(w, "  error_rate %.4g (ratio), shed_rate %.4g (ratio), latency_p99_ms %.4g ms, bounds_p99_ms %.4g ms (%d samples)\n",
		float64(col.failed+int64(len(m.checks)))/attempted, float64(col.shed)/attempted,
		quantile(col.lat, 0.99), quantile(col.bounds, 0.99), len(col.bounds))
	fmt.Fprintf(w, "  generator lag p99 %.3g ms (max %.3g ms); %d connections opened; %d answers re-checked\n",
		quantile(col.lag, 0.99), quantile(col.lag, 1), m.dials, len(col.samples))
	fmt.Fprintf(w, "  boundsd /metrics deltas per attempted request:\n")
	for _, key := range costCounters() {
		fmt.Fprintf(w, "    %-56s %.4g\n", key, m.delta(key)/attempted)
	}
}

// costCounters are the boundsd counters whose per-request deltas the
// report prints: the server-side cost of the window read from outside.
func costCounters() []string {
	keys := []string{
		"boundsd_engine_cache_hits_total", "boundsd_engine_cache_misses_total",
		"boundsd_engine_cache_evictions_total", "boundsd_engine_dedup_total",
	}
	for _, kind := range []string{"alpha", "strategy", "base", "horizon"} {
		keys = append(keys, "boundsd_solver_"+kind+"_hits_total", "boundsd_solver_"+kind+"_misses_total")
	}
	keys = append(keys, "boundsd_solver_newton_iterations_total",
		"boundsd_kernel_builds_total", "boundsd_kernel_extends_total", "boundsd_kernel_pool_reuses_total",
		"boundsd_strategy_compiles_total", "boundsd_strategy_rejects_total", "boundsd_strategy_gas_exhausted_total")
	for _, class := range admissionClasses {
		keys = append(keys, admittedKey(class), shedKey(class))
	}
	return keys
}

// admissionClasses are boundsd's admission cost classes.
var admissionClasses = []string{"closed-form", "analytic", "montecarlo"}

func admittedKey(class string) string {
	return fmt.Sprintf("boundsd_admission_admitted_total{class=%q}", class)
}

func shedKey(class string) string {
	return fmt.Sprintf("boundsd_admission_shed_total{class=%q}", class)
}

// printMetrics prints each metric by name, value and unit.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
