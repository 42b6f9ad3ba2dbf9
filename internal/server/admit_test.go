package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/strategy"
)

const ndjsonAccept = "application/x-ndjson"

// serveReq drives one request through Server.ServeHTTP.
func serveReq(srv *Server, method, target, accept, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// metricValue reads one series (name plus labels, as /metrics prints
// it) from the server's /metrics text.
func metricValue(t *testing.T, srv *Server, series string) int64 {
	t.Helper()
	body := serveReq(srv, http.MethodGet, "/metrics", "", "").Body.String()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s missing from /metrics:\n%s", series, body)
	return 0
}

// withQuery appends one key=value pair to a request target.
func withQuery(target, kv string) string {
	if strings.Contains(target, "?") {
		return target + "&" + kv
	}
	return target + "?" + kv
}

// TestAdmissionMatrix walks every compute route in every
// representation through the one request path: a bad ?timeout_ms is
// the same 400 everywhere, a saturated class answers 503 (analytic) or
// 429 + Retry-After (heavy), and a success is admitted exactly once
// and leaves nothing in flight.
func TestAdmissionMatrix(t *testing.T) {
	script, err := json.Marshal(map[string]string{"script": strategy.CyclicScript})
	if err != nil {
		t.Fatal(err)
	}
	const batchBody = `[{"op": "verify", "m": 2, "k": 3, "f": 1, "horizon": 5000}]`
	const simulate = "/v1/simulate?model=pfaulty-halfline&m=1&k=1&f=0&horizon=20&points=3&p=0.25&samples=200"
	cases := []struct {
		name, method, target, accept, body string
		class                              registry.Cost
	}{
		{"verify", http.MethodGet, "/v1/verify?m=2&k=3&f=1&horizon=5000", "", "", registry.CostAnalytic},
		{"sweep", http.MethodGet, "/v1/sweep?m=2&kmax=2&horizon=1000", "", "", registry.CostAnalytic},
		{"sweep ndjson", http.MethodGet, "/v1/sweep?m=2&kmax=2&horizon=1000", ndjsonAccept, "", registry.CostAnalytic},
		{"simulate", http.MethodGet, simulate, "", "", registry.CostMonteCarlo},
		{"simulate ndjson", http.MethodGet, simulate, ndjsonAccept, "", registry.CostMonteCarlo},
		{"batch", http.MethodPost, "/v1/batch", "", batchBody, registry.CostAnalytic},
		{"batch ndjson", http.MethodPost, "/v1/batch", ndjsonAccept, batchBody, registry.CostAnalytic},
		{"strategies", http.MethodPost, "/v1/strategies", "", string(script), registry.CostMonteCarlo},
	}
	srv := New(Config{Engine: engine.New(2), MaxInflight: 2, MaxInflightHeavy: 1, ShedAfter: 20 * time.Millisecond})
	var badBudget string
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A bad budget is rejected before admission, identically.
			rec := serveReq(srv, c.method, withQuery(c.target, "timeout_ms=0"), c.accept, c.body)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "timeout_ms") {
				t.Fatalf("timeout_ms=0 = %d: %s", rec.Code, rec.Body)
			}
			if badBudget == "" {
				badBudget = rec.Body.String()
			} else if rec.Body.String() != badBudget {
				t.Errorf("timeout_ms=0 body %q differs from %q", rec.Body, badBudget)
			}

			// Every slot of the class held: analytic waits out its
			// budget and answers 503, heavy is shed with 429.
			sem := srv.sem
			if c.class == registry.CostMonteCarlo {
				sem = srv.heavySem
			}
			for range cap(sem) {
				sem <- struct{}{}
			}
			rec = serveReq(srv, c.method, withQuery(c.target, "timeout_ms=50"), c.accept, c.body)
			for range cap(sem) {
				<-sem
			}
			if c.class == registry.CostMonteCarlo {
				if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" {
					t.Errorf("saturated heavy = %d, Retry-After %q: %s", rec.Code, rec.Header().Get("Retry-After"), rec.Body)
				}
			} else if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "in-flight") {
				t.Errorf("saturated analytic = %d: %s", rec.Code, rec.Body)
			}

			// A success is admitted exactly once and released.
			admitted := `boundsd_admission_admitted_total{class="` + string(c.class) + `"}`
			before := metricValue(t, srv, admitted)
			rec = serveReq(srv, c.method, c.target, c.accept, c.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("success path = %d: %s", rec.Code, rec.Body)
			}
			if c.accept == ndjsonAccept && !strings.Contains(rec.Body.String(), "# done rows=") {
				t.Errorf("stream not completed: %s", rec.Body)
			}
			if got := metricValue(t, srv, admitted); got != before+1 {
				t.Errorf("%s rose by %d, want 1", admitted, got-before)
			}
			inflight := `boundsd_admission_inflight{class="` + string(c.class) + `"}`
			if got := metricValue(t, srv, inflight); got != 0 {
				t.Errorf("%s = %d after the request, want 0", inflight, got)
			}
		})
	}
}

// TestSimulateNDJSONPanicIsA500: a panicking SimulateJob constructor
// runs before the stream's headers, so the NDJSON representation
// answers the same 500 JSON error body as the JSON representation
// (and counts as a route error) instead of escaping ServeHTTP.
func TestSimulateNDJSONPanicIsA500(t *testing.T) {
	r := slowRegistry(t)
	one := func(m, k, f int) (float64, error) { return 1, nil }
	if err := r.Register(registry.Scenario{
		Name:        "panicsim",
		Description: "test scenario: the simulate constructor panics",
		Objective:   registry.ObjectiveFind,
		Params:      []registry.Param{{Name: "m", Kind: registry.KindInt, Doc: "unused"}},
		Verifiable:  true,
		Validate:    func(m, k, f int) error { return nil },
		LowerBound:  one,
		UpperBound:  one,
		VerifyJob: func(ctx context.Context, req registry.Request) (engine.Job, error) {
			return panicJob{}, nil
		},
		SimulateJob: func(ctx context.Context, req registry.Request) (engine.Job, error) {
			panic("simulator constructor bug")
		},
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: r})
	ts := newHTTPServer(t, srv)
	const target = "/v1/simulate?model=panicsim&m=1&k=1&f=0"
	code, jsonBody := get(t, ts+target)
	if code != http.StatusInternalServerError || !strings.Contains(jsonBody, "server: computation panicked: simulator constructor bug") {
		t.Fatalf("JSON simulate = %d: %s", code, jsonBody)
	}
	errSeries := `boundsd_request_errors_total{path="/v1/simulate"}`
	before := metricValue(t, srv, errSeries)
	code, ndjsonBody := get(t, ts+target+"&format=ndjson")
	if code != http.StatusInternalServerError {
		t.Fatalf("NDJSON simulate = %d (want 500): %s", code, ndjsonBody)
	}
	if ndjsonBody != jsonBody {
		t.Errorf("NDJSON error body %q, JSON representation gives %q", ndjsonBody, jsonBody)
	}
	if got := metricValue(t, srv, errSeries); got != before+1 {
		t.Errorf("%s rose by %d, want 1", errSeries, got-before)
	}
}

// TestBatchMalformedItemsSkipAdmission: a batch item that fails to
// prepare is its 400 row and computes nothing, so it does not raise the
// batch's admission class: with every slot of the class its op would
// take held, the batch still answers at once. Its row stays the 400
// its route would answer even when the batch's budget has already run
// out, where a prepared item's row is the 504.
func TestBatchMalformedItemsSkipAdmission(t *testing.T) {
	srv := New(Config{Engine: engine.New(2), MaxInflight: 2, MaxInflightHeavy: 1, ShedAfter: 20 * time.Millisecond})
	for _, c := range []struct {
		name, body string
		sem        chan struct{}
	}{
		{"simulate without a cell", `[{"op": "simulate"}]`, srv.heavySem},
		{"verify of an unknown model", `[{"op": "verify", "model": "no-such-model"}]`, srv.sem},
	} {
		t.Run(c.name, func(t *testing.T) {
			for range cap(c.sem) {
				c.sem <- struct{}{}
			}
			rec := serveReq(srv, http.MethodPost, "/v1/batch?timeout_ms=50", "", c.body)
			for range cap(c.sem) {
				<-c.sem
			}
			var ans BatchAnswer
			if err := json.Unmarshal(rec.Body.Bytes(), &ans); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("batch with its class saturated = %d (%v): %s", rec.Code, err, rec.Body)
			}
			if ans.Failed != 1 || len(ans.Rows) != 1 || ans.Rows[0].Status != http.StatusBadRequest {
				t.Errorf("want one 400 row: %s", rec.Body)
			}
		})
	}

	spent, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-spent.Done()
	items, _ := srv.prepareBatch([]map[string]any{
		{"op": "simulate"},
		{"op": "bounds", "m": 2.0, "k": 3.0, "f": 1.0},
	})
	for i, want := range []int{http.StatusBadRequest, http.StatusGatewayTimeout} {
		if row := srv.batchRow(spent, i, &items[i]); row.Status != want {
			t.Errorf("row %d after the budget ran out = %+v, want status %d", i, row, want)
		}
	}
}
