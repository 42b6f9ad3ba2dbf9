package server

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/registry"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz = (%d, %q)", code, body)
	}
}

func TestScenariosListing(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/scenarios")
	if code != http.StatusOK {
		t.Fatalf("scenarios = %d: %s", code, body)
	}
	var payload struct {
		Scenarios []registry.Scenario `json:"scenarios"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(payload.Scenarios))
	for _, sc := range payload.Scenarios {
		names = append(names, sc.Name)
		if sc.Description == "" || len(sc.Params) == 0 {
			t.Errorf("scenario %q not self-describing in the listing", sc.Name)
		}
	}
	want := []string{"byzantine", "byzantine-line", "crash", "evacuation-line", "pfaulty-halfline", "probabilistic", "shoreline"}
	if len(names) != len(want) {
		t.Fatalf("scenario names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("scenario[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	for _, sc := range payload.Scenarios {
		switch sc.Name {
		case "pfaulty-halfline", "byzantine-line", "crash", "shoreline", "evacuation-line":
			if !sc.Simulatable {
				t.Errorf("scenario %q should advertise a simulator", sc.Name)
			}
		}
		// The catalog carries the objective capability: evacuation is
		// the one evacuate-objective entry, everything else answers
		// find.
		wantObj := registry.ObjectiveFind
		if sc.Name == "evacuation-line" {
			wantObj = registry.ObjectiveEvacuate
		}
		if sc.Objective != wantObj {
			t.Errorf("scenario %q objective = %q in the listing, want %q", sc.Name, sc.Objective, wantObj)
		}
	}
}

func TestBoundsSingleCell(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/bounds?m=2&k=3&f=1")
	if code != http.StatusOK {
		t.Fatalf("bounds = %d: %s", code, body)
	}
	var ans BoundsAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	want, _ := bounds.AMKF(2, 3, 1)
	if math.Abs(float64(ans.Lower)-want) > 1e-12 || !ans.HasUpper {
		t.Errorf("bounds answer = %+v, want tight %g", ans, want)
	}
	if ans.Regime != "search" || ans.Q != 4 {
		t.Errorf("bounds answer = %+v", ans)
	}
}

func TestBoundsByzantineNoUpper(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/bounds?m=2&k=3&f=1&model=byzantine")
	if code != http.StatusOK {
		t.Fatalf("bounds = %d: %s", code, body)
	}
	var ans BoundsAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.HasUpper {
		t.Errorf("byzantine must have no upper bound: %+v", ans)
	}
	if !strings.Contains(body, `"upper": null`) {
		t.Errorf("missing null upper in %s", body)
	}
}

func TestBoundsGridMarkdownMatchesRenderer(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/bounds?m=2&kmax=6&format=markdown")
	if code != http.StatusOK {
		t.Fatalf("bounds grid = %d: %s", code, body)
	}
	sc, err := registry.Get("crash")
	if err != nil {
		t.Fatal(err)
	}
	table, err := ComputeBoundsTable(sc, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if body != table.Markdown() {
		t.Errorf("endpoint bytes differ from shared renderer:\n--- endpoint ---\n%s\n--- renderer ---\n%s", body, table.Markdown())
	}
	if !strings.Contains(body, "A(m=2, k, f): optimal competitive ratio (Theorems 1 and 6)") {
		t.Errorf("markdown table missing legacy title:\n%s", body)
	}
}

func TestBoundsBadInput(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, query := range []string{
		"/v1/bounds?m=zebra&kmax=3",            // unparsable int
		"/v1/bounds?m=2",                       // neither kmax nor (k, f)
		"/v1/bounds?m=2&kmax=999",              // over the cap
		"/v1/bounds?m=0&kmax=3",                // m < 1
		"/v1/bounds?m=2&k=3&f=1&model=martian", // unknown scenario
		"/v1/bounds?m=2&k=-1&f=0",              // invalid k
	} {
		code, body := get(t, ts.URL+query)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d (want 400): %s", query, code, body)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("%s: error body missing: %s", query, body)
		}
	}
}

func TestVerifyMatchesClosedForm(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/verify?m=2&k=3&f=1&horizon=20000")
	if code != http.StatusOK {
		t.Fatalf("verify = %d: %s", code, body)
	}
	var ans VerifyAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	want, _ := bounds.AMKF(2, 3, 1)
	if math.Abs(float64(ans.Value)-want)/want > 1e-3 || !ans.Evaluated {
		t.Errorf("verify answer = %+v, want ~%g", ans, want)
	}
}

func TestVerifyCacheHit(t *testing.T) {
	eng := engine.NewWithCache(0, 64)
	ts := newTestServer(t, Config{Engine: eng})
	url := ts.URL + "/v1/verify?m=2&k=3&f=1&horizon=20000"
	if code, body := get(t, url); code != http.StatusOK {
		t.Fatalf("first verify = %d: %s", code, body)
	}
	st := eng.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first request: %+v, want 1 miss", st)
	}
	if code, _ := get(t, url); code != http.StatusOK {
		t.Fatal("second verify failed")
	}
	st = eng.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("after second request: %+v, want 1 miss / 1 hit", st)
	}
}

func TestVerifyBadInput(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, query := range []string{
		"/v1/verify?m=2&k=4&f=1",                 // trivial regime: not verifiable
		"/v1/verify?m=2&k=3&f=1&model=byzantine", // no verification known
		"/v1/verify?m=2&k=3",                     // f missing
		"/v1/verify?m=2&k=3&f=1&horizon=0",       // horizon out of range
		"/v1/verify?m=2&k=3&f=1&horizon=1e99",    // horizon too large
		"/v1/verify?m=2&k=3&f=1&timeout_ms=-5",   // bad timeout
	} {
		code, body := get(t, ts.URL+query)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d (want 400): %s", query, code, body)
		}
	}
}

// slowJob stalls long enough to trip any sub-second budget.
type slowJob struct{ d time.Duration }

func (j slowJob) Key() string { return "slow" }

// Run deliberately ignores ctx: it models a non-cooperative job, so the
// timeout tests exercise the abandon-and-finish-detached path.
func (j slowJob) Run(context.Context) (engine.Result, error) {
	time.Sleep(j.d)
	return engine.Result{Value: 1}, nil
}

// slowRegistry wraps the builtin entries plus a scenario whose
// verification takes ~forever relative to the test budget.
func slowRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	r := registry.NewRegistry()
	for _, sc := range registry.Default().All() {
		if err := r.Register(sc); err != nil {
			t.Fatal(err)
		}
	}
	err := r.Register(registry.Scenario{
		Name:        "slow",
		Description: "test scenario: verification sleeps",
		Objective:   registry.ObjectiveFind,
		Params:      []registry.Param{{Name: "m", Kind: registry.KindInt, Doc: "unused"}},
		Verifiable:  true,
		Validate:    func(m, k, f int) error { return nil },
		LowerBound:  func(m, k, f int) (float64, error) { return 1, nil },
		UpperBound:  func(m, k, f int) (float64, error) { return 1, nil },
		VerifyJob: func(ctx context.Context, req registry.Request) (engine.Job, error) {
			return slowJob{d: 2 * time.Second}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestVerifyTimeout(t *testing.T) {
	ts := newTestServer(t, Config{Registry: slowRegistry(t), Timeout: 50 * time.Millisecond})
	start := time.Now()
	code, body := get(t, ts.URL+"/v1/verify?m=2&k=1&f=0&model=slow")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow verify = %d (want 504): %s", code, body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timeout took %v, budget was 50ms", elapsed)
	}
	if !strings.Contains(body, "timed out") {
		t.Errorf("timeout body: %s", body)
	}
}

func TestVerifyPerRequestTimeoutParam(t *testing.T) {
	// The request may lower the budget below the server default.
	ts := newTestServer(t, Config{Registry: slowRegistry(t), Timeout: 10 * time.Second})
	start := time.Now()
	code, _ := get(t, ts.URL+"/v1/verify?m=2&k=1&f=0&model=slow&timeout_ms=40")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("verify with timeout_ms=40 = %d (want 504)", code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("per-request timeout took %v", elapsed)
	}
}

func TestSweepMarkdownMatchesRenderer(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is too slow for -short")
	}
	eng := engine.New(0)
	ts := newTestServer(t, Config{Engine: eng})
	code, body := get(t, ts.URL+"/v1/sweep?m=2&kmax=4&horizon=20000&format=markdown")
	if code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", code, body)
	}
	table, err := ComputeSweep(context.Background(), eng, engine.Grid(2, 4), 20000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if body != table.MarkdownLine() {
		t.Errorf("sweep endpoint bytes differ from shared renderer:\n--- endpoint ---\n%s\n--- renderer ---\n%s", body, table.MarkdownLine())
	}
}

func TestSweepJSON(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/sweep?m=2&kmax=3&horizon=5000")
	if code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", code, body)
	}
	var table SweepTable
	if err := json.Unmarshal([]byte(body), &table); err != nil {
		t.Fatal(err)
	}
	if len(table.Cells) != 6 { // k=1..3, f=0..k-1
		t.Fatalf("sweep cells = %d, want 6", len(table.Cells))
	}
	for _, c := range table.Cells {
		if c.Regime == "unsolvable" && !math.IsNaN(float64(c.Closed)) {
			t.Errorf("unsolvable cell %+v should have null closed bound", c)
		}
		if c.Evaluated {
			want, _ := bounds.AMKF(c.M, c.K, c.F)
			if math.Abs(float64(c.Measured)-want)/want > 5e-3 {
				t.Errorf("cell %+v measured far from %g", c, want)
			}
		}
	}
}

func TestSweepBadInput(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, query := range []string{
		"/v1/sweep?m=1&kmax=3",
		"/v1/sweep?m=2&kmax=0",
		"/v1/sweep?m=2&kmax=64",
		"/v1/sweep?m=2&kmax=3&horizon=-4",
		"/v1/sweep?m=2&kmax=3&format=markdown&table=pie",
	} {
		code, body := get(t, ts.URL+query)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d (want 400): %s", query, code, body)
		}
	}
}

func TestMetricsAndCounters(t *testing.T) {
	ts := newTestServer(t, Config{})
	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/v1/bounds?m=2&k=3&f=1")
	get(t, ts.URL+"/v1/bounds?m=bad") // 400
	get(t, ts.URL+"/nope")            // 404, counted as "other"
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		`boundsd_requests_total{path="/healthz"} 1`,
		`boundsd_requests_total{path="/v1/bounds"} 2`,
		`boundsd_request_errors_total{path="/v1/bounds"} 1`,
		`boundsd_requests_total{path="other"} 1`,
		"boundsd_engine_workers",
		"boundsd_engine_cache_hits_total",
		"boundsd_engine_dedup_total",
		"boundsd_engine_cancelled_runs_total",
		"boundsd_engine_inflight_jobs",
		"boundsd_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsKernelSeries: /metrics exports the kernel's build and
// pool-reuse counters and no series for the removed incremental
// horizon path.
func TestMetricsKernelSeries(t *testing.T) {
	ts := newTestServer(t, Config{})
	get(t, ts.URL+"/v1/verify?m=2&k=3&f=1")
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{"boundsd_kernel_builds_total ", "boundsd_kernel_pool_reuses_total "} {
		if !strings.Contains(body, "\n"+want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "extend") {
		t.Errorf("metrics still list an extend series:\n%s", body)
	}
}

func TestPostJSONBody(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/bounds", "application/json",
		strings.NewReader(`{"m": 2, "k": 3, "f": 1, "model": "crash"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST bounds = %d", resp.StatusCode)
	}
	var ans BoundsAnswer
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	want, _ := bounds.AMKF(2, 3, 1)
	if math.Abs(float64(ans.Lower)-want) > 1e-12 {
		t.Errorf("POST answer = %+v", ans)
	}
	// Malformed body is a 400.
	resp2, err := http.Post(ts.URL+"/v1/bounds", "application/json", strings.NewReader(`{"m": [`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed POST = %d (want 400)", resp2.StatusCode)
	}
	// A body is one JSON document: trailing data is a 400, never
	// silently dropped; trailing whitespace is fine.
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"m": 2, "k": 3, "f": 1} {"k": 99}`, http.StatusBadRequest},
		{`{"m": 2, "k": 3, "f": 1}garbage`, http.StatusBadRequest},
		{`{"m": 2, "k": 3, "f": 1}}`, http.StatusBadRequest},
		{"{\"m\": 2, \"k\": 3, \"f\": 1}\n\t ", http.StatusOK},
	} {
		code, body := post(t, ts.URL+"/v1/bounds", c.body)
		if code != c.want {
			t.Errorf("POST bounds %q = %d (want %d): %s", c.body, code, c.want, body)
		}
	}
}

func TestFloatJSONRoundTrip(t *testing.T) {
	in := []Float{Float(1.5), Float(math.NaN()), Float(math.Inf(1))}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[1.5,null,null]" {
		t.Errorf("marshal = %s", data)
	}
	var out []Float
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if float64(out[0]) != 1.5 || !math.IsNaN(float64(out[1])) || !math.IsNaN(float64(out[2])) {
		t.Errorf("round trip = %v", out)
	}
}

// panicJob blows up inside the engine — the stand-in for a buggy
// third-party scenario callback.
type panicJob struct{}

func (panicJob) Key() string { return "panic" }
func (panicJob) Run(context.Context) (engine.Result, error) {
	panic("scenario bug")
}

func TestComputePanicIsA500NotACrash(t *testing.T) {
	r := slowRegistry(t)
	if err := r.Register(registry.Scenario{
		Name:        "panicky",
		Description: "test scenario: verification panics",
		Objective:   registry.ObjectiveFind,
		Params:      []registry.Param{{Name: "m", Kind: registry.KindInt, Doc: "unused"}},
		Verifiable:  true,
		Validate:    func(m, k, f int) error { return nil },
		LowerBound:  func(m, k, f int) (float64, error) { return 1, nil },
		UpperBound:  func(m, k, f int) (float64, error) { return 1, nil },
		VerifyJob: func(ctx context.Context, req registry.Request) (engine.Job, error) {
			return panicJob{}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Registry: r})
	code, body := get(t, ts.URL+"/v1/verify?m=2&k=1&f=0&model=panicky")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking verify = %d (want 500): %s", code, body)
	}
	if !strings.Contains(body, "panicked") {
		t.Errorf("panic body: %s", body)
	}
	// The daemon survived: a normal request still works.
	if code, _ := get(t, ts.URL+"/v1/bounds?m=2&k=3&f=1"); code != http.StatusOK {
		t.Errorf("server did not survive the panic: %d", code)
	}
}

func TestComputeSaturationIsA503(t *testing.T) {
	// One compute slot, already taken (a request is still waiting on its
	// computation): the next compute request cannot get a slot within
	// its budget -> 503. The slot is occupied directly — timed-out
	// requests no longer hold theirs, because cancellation actually
	// stops their work.
	srv := New(Config{Timeout: 10 * time.Second, MaxInflight: 1})
	srv.sem <- struct{}{}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	code, body := get(t, ts.URL+"/v1/verify?m=2&k=3&f=1&timeout_ms=100")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated verify = %d (want 503): %s", code, body)
	}
	if !strings.Contains(body, "in-flight") {
		t.Errorf("saturation body: %s", body)
	}
	// Freeing the slot restores service.
	<-srv.sem
	if code, body := get(t, ts.URL+"/v1/verify?m=2&k=3&f=1&horizon=5000"); code != http.StatusOK {
		t.Errorf("verify after slot freed = %d: %s", code, body)
	}
}

// TestParamsRejectConflicts is the params() bugfix contract: a POST
// body silently overriding a same-named query parameter, or a repeated
// query key silently taking the first value, are now 400s naming the
// parameter.
func TestParamsRejectConflicts(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Same parameter through both channels (even with equal values).
	resp, err := http.Post(ts.URL+"/v1/bounds?k=3", "application/json",
		strings.NewReader(`{"m": 2, "k": 5, "f": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("query/body conflict = %d (want 400): %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `\"k\"`) || !strings.Contains(string(body), "both") {
		t.Errorf("conflict error does not name the parameter: %s", body)
	}
	// Repeated query key.
	code, got := get(t, ts.URL+"/v1/bounds?m=2&k=3&k=5&f=1")
	if code != http.StatusBadRequest {
		t.Errorf("repeated query key = %d (want 400): %s", code, got)
	}
	if !strings.Contains(got, `\"k\"`) || !strings.Contains(got, "repeated") {
		t.Errorf("repeated-key error does not name the parameter: %s", got)
	}
	// Disjoint query and body parameters still merge fine.
	resp2, err := http.Post(ts.URL+"/v1/bounds?m=2", "application/json",
		strings.NewReader(`{"k": 3, "f": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("disjoint query+body = %d (want 200)", resp2.StatusCode)
	}
}

// TestHandlersRejectNegativeParams is the bad-value matrix: every
// negative or out-of-range numeric parameter must be a 400 naming the
// parameter — never a panic, never a computed absurdity.
func TestHandlersRejectNegativeParams(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		query string
		name  string // parameter the error must mention
	}{
		{"/v1/bounds?m=-3&k=3&f=1", "m"},
		{"/v1/bounds?m=-3&kmax=4", "m"},
		{"/v1/verify?m=-3&k=3&f=1", "m"},
		{"/v1/verify?m=2&k=3&f=1&samples=-5", "samples"},
		{"/v1/verify?m=2&k=3&f=1&seed=-4", "seed"},
		{"/v1/verify?model=pfaulty-halfline&m=1&k=1&f=0&p=-0.5", "p"},
		{"/v1/verify?model=pfaulty-halfline&m=1&k=1&f=0&p=1.5", "p"},
		{"/v1/simulate?model=crash&m=-2&k=3&f=1", "m"},
		{"/v1/simulate?model=crash&m=2&k=3&f=1&points=-1", "points"},
		{"/v1/simulate?model=crash&m=2&k=3&f=1&samples=-5", "samples"},
		{"/v1/simulate?model=crash&m=2&k=3&f=1&horizon=-10", "horizon"},
		{"/v1/sweep?m=-2&kmax=3", "m"},
		{"/v1/sweep?m=2&kmax=-1", "kmax"},
		{"/v1/verify?m=2&k=3&f=1&timeout_ms=-5", "timeout_ms"},
		// Above the caps every job built from the cell relies on: m is at
		// most 64, and k, f and kmax at most Config.MaxKMax.
		{"/v1/bounds?m=9223372036854775807&k=3&f=1", "m"},
		{"/v1/bounds?m=2&k=17&f=1", "k"},
		{"/v1/bounds?m=2&k=3&f=17", "f"},
		{"/v1/verify?m=1000&k=3&f=1&horizon=10", "m"},
		{"/v1/verify?m=2&k=17&f=8&horizon=10", "k"},
		{"/v1/simulate?m=2&k=17&f=8&horizon=2&points=2", "k"},
		{"/v1/sweep?m=65&kmax=2&horizon=10", "m"},
	}
	for _, c := range cases {
		code, body := get(t, ts.URL+c.query)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d (want 400): %s", c.query, code, body)
			continue
		}
		if !strings.Contains(body, c.name) {
			t.Errorf("%s: error %s does not name %q", c.query, body, c.name)
		}
	}
	// Negative k/f (the "need k and f" pair) still 400 without panicking.
	for _, q := range []string{"/v1/verify?m=2&k=-2&f=1", "/v1/verify?m=2&k=3&f=-1"} {
		if code, body := get(t, ts.URL+q); code != http.StatusBadRequest {
			t.Errorf("%s = %d (want 400): %s", q, code, body)
		}
	}
	// The same cap holds for a batch item, as its 400 row.
	code, body := post(t, ts.URL+"/v1/batch", `[{"op": "verify", "m": 2, "k": 17, "f": 8}]`)
	var ans BatchAnswer
	if err := json.Unmarshal([]byte(body), &ans); code != http.StatusOK || err != nil || len(ans.Rows) != 1 {
		t.Fatalf("batch over the k cap = %d (%v): %s", code, err, body)
	}
	if row := ans.Rows[0]; row.Status != http.StatusBadRequest || !strings.Contains(row.Error, "k 17") {
		t.Errorf("batch item over the k cap = %+v, want a 400 row naming k", row)
	}
}

// TestPFaultyBadParamsIsA400: a fault probability so close to 1 that
// the p-faulty strategy would need millions of rounds is rejected by
// the pfaulty package with ErrBadParams. That is the client's choice of
// p, so the single endpoint answers 400, not 500, and the same item
// inside /v1/batch carries row status 400.
func TestPFaultyBadParamsIsA400(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/verify?model=pfaulty-halfline&m=1&k=1&f=0&p=0.99999")
	if code != http.StatusBadRequest || !strings.Contains(body, "pfaulty: invalid parameters") {
		t.Errorf("verify p=0.99999 = %d %s, want 400 naming the pfaulty error", code, body)
	}
	code, body = post(t, ts.URL+"/v1/batch",
		`[{"op": "verify", "model": "pfaulty-halfline", "m": 1, "k": 1, "f": 0, "p": 0.99999}]`)
	if code != http.StatusOK {
		t.Fatalf("batch = %d %s, want 200", code, body)
	}
	var ans BatchAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatalf("batch body: %v: %s", err, body)
	}
	if len(ans.Rows) != 1 || ans.Rows[0].Status != http.StatusBadRequest ||
		!strings.Contains(ans.Rows[0].Error, "pfaulty: invalid parameters") {
		t.Errorf("batch rows = %+v, want one row with status 400 naming the pfaulty error", ans.Rows)
	}
}

// TestTimedOutComputeReleasesSlotAndInflight is the slot-accounting
// regression test guarding the engine's cache refactors: after a 504,
// the request's MaxInflight slot must come back (an immediate new
// compute succeeds) and the engine's in-flight gauge must return to
// zero on /metrics once the abandoned job finishes.
func TestTimedOutComputeReleasesSlotAndInflight(t *testing.T) {
	r := slowRegistry(t)
	eng := engine.New(2)
	srv := New(Config{Registry: r, Engine: eng, Timeout: 60 * time.Millisecond, MaxInflight: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	code, body := get(t, ts.URL+"/v1/verify?m=2&k=1&f=0&model=slow")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow verify = %d (want 504): %s", code, body)
	}
	// The slot must already be free: with MaxInflight = 1, a second
	// compute request can only succeed if the timed-out one released it.
	if code, body := get(t, ts.URL+"/v1/verify?m=2&k=3&f=1&horizon=5000"); code != http.StatusOK {
		t.Fatalf("verify after timeout = %d (slot leaked?): %s", code, body)
	}
	if got := len(srv.sem); got != 0 {
		t.Errorf("server semaphore still holds %d slots", got)
	}
	// The abandoned slow job (it ignores its context) finishes detached;
	// the in-flight gauge must drain to zero within its sleep.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if eng.Stats().InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine in-flight stuck at %d", eng.Stats().InFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, metrics := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if !strings.Contains(metrics, "boundsd_engine_inflight_jobs 0") {
		t.Errorf("metrics in-flight not back to zero:\n%s", metrics)
	}
}

// TestShorelineEndToEnd drives the planar scenario through every HTTP
// surface: the registry entry answers /v1/bounds, /v1/verify and
// /v1/simulate with the closed form sec((f+1)*pi/k) at each layer —
// the acceptance path of the geometry-generic core.
func TestShorelineEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})
	want := 1 / math.Cos(2*math.Pi/5)

	code, body := get(t, ts.URL+"/v1/bounds?m=2&k=5&f=1&model=shoreline")
	if code != http.StatusOK {
		t.Fatalf("bounds = %d: %s", code, body)
	}
	var ba BoundsAnswer
	if err := json.Unmarshal([]byte(body), &ba); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(ba.Lower)-want) > 1e-12*want || !ba.HasUpper || float64(ba.Upper) != float64(ba.Lower) {
		t.Errorf("shoreline bounds answer = %+v, want tight %g", ba, want)
	}

	code, body = get(t, ts.URL+"/v1/verify?m=2&k=5&f=1&model=shoreline&horizon=100")
	if code != http.StatusOK {
		t.Fatalf("verify = %d: %s", code, body)
	}
	var va VerifyAnswer
	if err := json.Unmarshal([]byte(body), &va); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(va.Value)-want)/want > 1e-9 || !va.Evaluated {
		t.Errorf("shoreline verify answer = %+v, want ~%g", va, want)
	}
	// Planar placements have no ray: the locator is (ray 0, heading in
	// radians).
	if va.WorstRay != 0 || float64(va.WorstX) < 0 || float64(va.WorstX) >= 2*math.Pi {
		t.Errorf("shoreline worst locator = ray %d @ %g, want ray 0 with a heading in [0, 2pi)", va.WorstRay, float64(va.WorstX))
	}

	code, body = get(t, ts.URL+"/v1/simulate?m=2&k=5&f=1&model=shoreline&horizon=50&points=4")
	if code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", code, body)
	}
	var st SimulateTable
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Rows) != 4 {
		t.Fatalf("simulate rows = %d, want 4", len(st.Rows))
	}
	for _, row := range st.Rows {
		if row.Error != "" || math.Abs(float64(row.Value)-want)/want > 1e-9 {
			t.Errorf("simulate row %+v, want value ~%g (the ratio is distance-independent)", row, want)
		}
	}

	// Out-of-regime triples are a client error, not a 500.
	if code, body := get(t, ts.URL+"/v1/verify?m=2&k=4&f=1&model=shoreline&horizon=100"); code != http.StatusUnprocessableEntity && code != http.StatusBadRequest {
		t.Errorf("out-of-regime shoreline verify = %d: %s", code, body)
	}
}

// TestEvacuationEndToEnd drives the evacuate-objective scenario through
// the same three surfaces.
func TestEvacuationEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})

	code, body := get(t, ts.URL+"/v1/bounds?m=2&k=3&f=1&model=evacuation-line")
	if code != http.StatusOK {
		t.Fatalf("bounds = %d: %s", code, body)
	}
	var ba BoundsAnswer
	if err := json.Unmarshal([]byte(body), &ba); err != nil {
		t.Fatal(err)
	}
	transfer, _ := bounds.AMKF(2, 3, 1)
	if float64(ba.Lower) != transfer || ba.HasUpper {
		t.Errorf("evacuation bounds answer = %+v, want transfer lower %g and no upper", ba, transfer)
	}

	code, body = get(t, ts.URL+"/v1/verify?m=2&k=3&f=1&model=evacuation-line&horizon=50")
	if code != http.StatusOK {
		t.Fatalf("verify = %d: %s", code, body)
	}
	var va VerifyAnswer
	if err := json.Unmarshal([]byte(body), &va); err != nil {
		t.Fatal(err)
	}
	if !va.Evaluated || !(float64(va.Value) > 1) {
		t.Errorf("evacuation verify answer = %+v, want finite value > 1", va)
	}

	code, body = get(t, ts.URL+"/v1/simulate?m=2&k=3&f=1&model=evacuation-line&horizon=50&points=4")
	if code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", code, body)
	}
	var st SimulateTable
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Rows) != 4 {
		t.Fatalf("simulate rows = %d, want 4", len(st.Rows))
	}
	for _, row := range st.Rows {
		if row.Error != "" || !(float64(row.Value) > 1) {
			t.Errorf("simulate row %+v, want finite value > 1", row)
		}
	}

	// The scenario is scoped to k = 2f+1; anything else is a client
	// error.
	if code, body := get(t, ts.URL+"/v1/verify?m=2&k=4&f=1&model=evacuation-line&horizon=50"); code != http.StatusUnprocessableEntity && code != http.StatusBadRequest {
		t.Errorf("out-of-scope evacuation verify = %d: %s", code, body)
	}
}
