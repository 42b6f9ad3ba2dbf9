package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
)

func TestReadyzDefaultsReady(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/readyz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("readyz = (%d, %q), want (200, ok)", code, body)
	}
}

func TestReadyzGatedByStartUnready(t *testing.T) {
	srv := New(Config{StartUnready: true})
	ts := newHTTPServer(t, srv)
	code, body := get(t, ts+"/readyz")
	if code != http.StatusServiceUnavailable || body != "warming\n" {
		t.Fatalf("unready readyz = (%d, %q), want (503, warming)", code, body)
	}
	if code, _ := get(t, ts+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while warming = %d, want 200 (liveness != readiness)", code)
	}
	if code, body := get(t, ts+"/metrics"); code != http.StatusOK || !strings.Contains(body, "boundsd_ready 0\n") {
		t.Fatalf("metrics while warming missing boundsd_ready 0: %d %q", code, body)
	}
	srv.SetReady(true)
	if code, _ := get(t, ts+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after SetReady(true) = %d, want 200", code)
	}
	if _, body := get(t, ts+"/metrics"); !strings.Contains(body, "boundsd_ready 1\n") {
		t.Fatal("metrics after SetReady(true) missing boundsd_ready 1")
	}
}

// blockVerifyJob blocks until release closes (or ctx ends), holding
// its admission slot — the overload fixture.
type blockVerifyJob struct {
	key     string
	started chan<- struct{}
	release <-chan struct{}
}

func (j blockVerifyJob) Key() string { return j.key }

func (j blockVerifyJob) Run(ctx context.Context) (engine.Result, error) {
	select {
	case j.started <- struct{}{}:
	default:
	}
	select {
	case <-j.release:
		return engine.Result{Value: 1}, nil
	case <-ctx.Done():
		return engine.Result{}, ctx.Err()
	}
}

// blockingRegistry registers one Monte-Carlo-class scenario whose verify
// jobs block on release, keyed by k so requests don't singleflight.
func blockingRegistry(t *testing.T, started chan struct{}, release chan struct{}) *registry.Registry {
	t.Helper()
	r := registry.NewRegistry()
	one := func(m, k, f int) (float64, error) { return 1, nil }
	err := r.Register(registry.Scenario{
		Name:        "slowmc",
		Description: "blocking Monte-Carlo stand-in for overload tests",
		Objective:   registry.ObjectiveFind,
		Params:      []registry.Param{{Name: "k", Kind: registry.KindInt, Doc: "robots"}},
		Verifiable:  true,
		Cost:        registry.CostMonteCarlo,
		Validate:    func(m, k, f int) error { return nil },
		LowerBound:  one,
		UpperBound:  one,
		VerifyJob: func(ctx context.Context, req registry.Request) (engine.Job, error) {
			return blockVerifyJob{key: "block-" + string(rune('a'+req.K)), started: started, release: release}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newHTTPServer is newTestServer for a pre-built *Server (the tests
// here need the handle for SetReady).
func newHTTPServer(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestHeavyOverloadShedsWith429(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	defer close(release)
	reg := blockingRegistry(t, started, release)
	srv := New(Config{
		Registry:         reg,
		Engine:           engine.New(4),
		MaxInflightHeavy: 1,
		ShedAfter:        30 * time.Millisecond,
	})
	ts := newHTTPServer(t, srv)

	// Occupy the single heavy slot.
	blockedDone := make(chan int, 1)
	go func() {
		code, _ := get(t, ts+"/v1/verify?model=slowmc&m=2&k=1&f=0")
		blockedDone <- code
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking job never started")
	}

	// The next heavy request must shed: 429 plus Retry-After.
	resp, err := http.Get(ts + "/v1/verify?model=slowmc&m=2&k=2&f=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second heavy request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After header")
	}

	// Cheap traffic keeps flowing while the heavy slot is saturated:
	// closed-form bounds bypass the queue entirely.
	if code, body := get(t, ts+"/v1/bounds?model=slowmc&m=2&k=3&f=1"); code != http.StatusOK {
		t.Fatalf("closed-form request during heavy overload = %d: %s", code, body)
	}

	// Shed accounting is visible on /metrics.
	if _, body := get(t, ts+"/metrics"); !strings.Contains(body, `boundsd_admission_shed_total{class="montecarlo"} 1`) {
		t.Fatalf("metrics missing montecarlo shed count:\n%s", body)
	}

	// Releasing the slot lets the blocked request finish normally.
	release <- struct{}{}
	select {
	case code := <-blockedDone:
		if code != http.StatusOK {
			t.Fatalf("blocked heavy request finished with %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked heavy request never finished")
	}

	// And with a free slot, heavy traffic is admitted again.
	if code, _ := get(t, ts+"/v1/verify?model=slowmc&m=2&k=1&f=0"); code != http.StatusOK {
		t.Fatalf("heavy request after release = %d, want 200", code)
	}
}

// TestBatchClassTakesHeaviestItem: a batch is admitted at the heaviest
// class among the items that prepare. Items carry their fields the way
// a decoded body does (numbers as float64); an item that fails to
// prepare computes nothing and raises nothing.
func TestBatchClassTakesHeaviestItem(t *testing.T) {
	srv := New(Config{})
	bounds := map[string]any{"op": "bounds", "m": 2.0, "k": 3.0, "f": 1.0}
	verify := map[string]any{"op": "verify", "m": 2.0, "k": 3.0, "f": 1.0}
	pfaulty := map[string]any{"op": "verify", "model": "pfaulty-halfline", "m": 1.0, "k": 1.0, "f": 0.0}
	simulate := map[string]any{"op": "simulate", "m": 2.0, "k": 3.0, "f": 1.0}
	cases := []struct {
		items []map[string]any
		want  registry.Cost
	}{
		{[]map[string]any{bounds}, registry.CostClosedForm},
		{[]map[string]any{bounds, verify}, registry.CostAnalytic},
		{[]map[string]any{pfaulty}, registry.CostMonteCarlo},
		{[]map[string]any{bounds, simulate}, registry.CostMonteCarlo},
		{[]map[string]any{{"op": "nope"}}, registry.CostClosedForm},
		{[]map[string]any{{"op": "verify", "model": "no-such-model"}}, registry.CostClosedForm},
		{[]map[string]any{{"op": "simulate"}}, registry.CostClosedForm},
	}
	for _, tc := range cases {
		if _, got := srv.prepareBatch(tc.items); got != tc.want {
			t.Errorf("prepareBatch(%v) class = %q, want %q", tc.items, got, tc.want)
		}
	}
}

// failJob fails every run with a deterministic (memoized) error.
type failJob struct{}

func (failJob) Key() string { return "fail" }
func (failJob) Run(context.Context) (engine.Result, error) {
	return engine.Result{}, errors.New("scenario job failed")
}

func TestPrecomputeWarmsCacheAndCountsFailures(t *testing.T) {
	r := slowRegistry(t)
	if err := r.Register(registry.Scenario{
		Name:        "failing",
		Description: "test scenario: verification fails at run time",
		Objective:   registry.ObjectiveFind,
		Params:      []registry.Param{{Name: "m", Kind: registry.KindInt, Doc: "unused"}},
		Verifiable:  true,
		Validate:    func(m, k, f int) error { return nil },
		LowerBound:  func(m, k, f int) (float64, error) { return 1, nil },
		UpperBound:  func(m, k, f int) (float64, error) { return 1, nil },
		VerifyJob: func(ctx context.Context, req registry.Request) (engine.Job, error) {
			return failJob{}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	e := engine.NewWithCache(2, 1024)
	srv := New(Config{Engine: e, Registry: r})
	spec := PrecomputeSpec{
		SweepM:    2,
		SweepKmax: 3,
		Horizon:   5e3,
		Requests: map[string][]registry.Request{
			"crash":    {{M: 2, K: 3, F: 1, Horizon: 5e3}},
			"failing":  {{M: 2, K: 1, F: 0}}, // job fails at run time: counted failed
			"martians": {{M: 2, K: 1, F: 0}}, // unknown: counted failed
		},
	}
	st, err := srv.Precompute(context.Background(), spec)
	if err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	grid := len(engine.Grid(2, 3))
	if want := grid + 3; st.Jobs != want {
		t.Errorf("Jobs = %d, want %d (grid %d + 3 pool entries)", st.Jobs, want, grid)
	}
	if st.Failed != 2 {
		t.Errorf("Failed = %d, want 2 (the failing job and the unknown scenario)", st.Failed)
	}
	if size := e.Stats().Size; size == 0 {
		t.Error("precompute left the engine cache empty")
	}

	// Idempotent: a second pass recomputes nothing (all hits).
	misses := e.Stats().Misses
	st, err = srv.Precompute(context.Background(), spec)
	if err != nil {
		t.Fatalf("second Precompute: %v", err)
	}
	if st.Failed != 2 {
		t.Errorf("second pass Failed = %d, want 2 (the memoized job error counts again)", st.Failed)
	}
	if after := e.Stats().Misses; after != misses {
		t.Errorf("second precompute added %d cache misses, want 0", after-misses)
	}
}

func TestPrecomputeCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv := New(Config{Engine: engine.New(1)})
	if _, err := srv.Precompute(ctx, PrecomputeSpec{SweepM: 2, SweepKmax: 2}); err == nil {
		t.Fatal("Precompute under a cancelled context reported success")
	}
}
