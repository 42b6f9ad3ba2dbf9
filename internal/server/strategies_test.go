package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/strategy"
	"repro/internal/strategy/program"
)

// postScript registers a script and returns the response status/body.
func postScript(t *testing.T, url, script string) (int, string) {
	t.Helper()
	body, err := json.Marshal(map[string]string{"script": script})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/strategies", "application/json", bytes.NewReader(body))
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

// registerScript registers a script that must succeed and returns its
// content hash.
func registerScript(t *testing.T, url, script string) string {
	t.Helper()
	code, body := postScript(t, url, script)
	if code != http.StatusOK {
		t.Fatalf("register = %d: %s", code, body)
	}
	var ans StrategiesAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Hash == "" {
		t.Fatalf("empty hash in %s", body)
	}
	return ans.Hash
}

func TestStrategiesRegistration(t *testing.T) {
	ts := newTestServer(t, Config{})
	hash := registerScript(t, ts.URL, strategy.CyclicScript)
	if want := strategy.CyclicProgram().Hash(); hash != want {
		t.Errorf("server hash %s, compiler hash %s", hash, want)
	}
	// Idempotent: the same script (even reformatted) answers the same
	// hash with cached=true.
	code, body := postScript(t, ts.URL, "// same program\n"+strategy.CyclicScript)
	if code != http.StatusOK {
		t.Fatalf("re-register = %d: %s", code, body)
	}
	var again StrategiesAnswer
	if err := json.Unmarshal([]byte(body), &again); err != nil {
		t.Fatal(err)
	}
	if again.Hash != hash || !again.Cached {
		t.Errorf("re-register = %+v, want cached hit on %s", again, hash)
	}

	// Method and body validation.
	if code, _ := get(t, ts.URL+"/v1/strategies"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/strategies = %d, want 405", code)
	}
	if code, body := postScript(t, ts.URL, ""); code != http.StatusBadRequest || !strings.Contains(body, "empty script") {
		t.Errorf("empty script = (%d, %s)", code, body)
	}
	if code, body := postScript(t, ts.URL, "this is not a program"); code != http.StatusBadRequest {
		t.Errorf("malformed script = (%d, %s)", code, body)
	}
	// A body is one JSON document: a script followed by trailing data
	// is a 400, and the script is not registered.
	srv := ts.Config.Handler.(*Server)
	for _, trailing := range []string{` {"script": "x"}`, `garbage`, `}`} {
		body := `{"script": "emit(1, 3)"}` + trailing
		if code, resp := post(t, ts.URL+"/v1/strategies", body); code != http.StatusBadRequest || !strings.Contains(resp, "trailing data") {
			t.Errorf("POST %q = (%d, %s), want 400", body, code, resp)
		}
		if size := metricValue(t, srv, "boundsd_strategy_store_size"); size != 1 {
			t.Errorf("POST %q: store holds %d programs, want 1", body, size)
		}
	}
	big := "a := 1\n" + strings.Repeat("// pad\n", MaxScriptBytes)
	if code, body := postScript(t, ts.URL, big); code != http.StatusBadRequest || !strings.Contains(body, "limit") {
		t.Errorf("oversized script = (%d, %s)", code, body)
	}
}

// TestScriptedStrategyByteIdenticalAnswers is the tentpole acceptance
// test: a client that scripts the paper's cyclic-exponential strategy
// through POST /v1/strategies must receive byte-for-byte the same
// /v1/bounds and /v1/verify response bodies as the built-in path,
// across the Theorem-1 grid.
func TestScriptedStrategyByteIdenticalAnswers(t *testing.T) {
	ts := newTestServer(t, Config{})
	hash := registerScript(t, ts.URL, strategy.CyclicScript)
	cells := 0
	for _, m := range []int{2, 3} {
		for k := 1; k <= 5; k++ {
			for f := 0; f < k; f++ {
				if regime, err := bounds.Classify(m, k, f); err != nil || regime != bounds.RegimeSearch {
					continue
				}
				cells++
				for _, ep := range []string{
					fmt.Sprintf("/v1/bounds?m=%d&k=%d&f=%d", m, k, f),
					fmt.Sprintf("/v1/verify?m=%d&k=%d&f=%d&horizon=2000", m, k, f),
				} {
					codeBuiltin, builtin := get(t, ts.URL+ep)
					codeScripted, scripted := get(t, ts.URL+ep+"&strategy="+hash)
					if codeBuiltin != http.StatusOK || codeScripted != http.StatusOK {
						t.Fatalf("%s: builtin %d, scripted %d: %s", ep, codeBuiltin, codeScripted, scripted)
					}
					if builtin != scripted {
						t.Errorf("%s: scripted answer diverges from builtin\nbuiltin:  %s\nscripted: %s", ep, builtin, scripted)
					}
				}
			}
		}
	}
	if cells < 8 {
		t.Fatalf("only %d grid cells exercised", cells)
	}
}

func TestScriptedStrategyParamValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	hash := registerScript(t, ts.URL, strategy.CyclicScript)

	// Unknown hash: must 400 and point at the registration endpoint.
	code, body := get(t, ts.URL+"/v1/verify?m=2&k=3&f=1&horizon=2000&strategy=deadbeef")
	if code != http.StatusBadRequest || !strings.Contains(body, "/v1/strategies") {
		t.Errorf("unknown hash = (%d, %s)", code, body)
	}
	// Non-crash model: scripted strategies ride the exact crash adversary.
	code, body = get(t, ts.URL+"/v1/verify?model=byzantine&m=2&k=3&f=1&horizon=2000&strategy="+hash)
	if code != http.StatusBadRequest || !strings.Contains(body, "crash") {
		t.Errorf("byzantine + strategy = (%d, %s)", code, body)
	}
	// A kmax grid cannot take a single-strategy override.
	code, body = get(t, ts.URL+"/v1/bounds?m=2&kmax=4&strategy="+hash)
	if code != http.StatusBadRequest || !strings.Contains(body, "kmax") {
		t.Errorf("kmax + strategy = (%d, %s)", code, body)
	}
	// Instantiation outside the search regime (k = m(f+1) is the
	// perpetual boundary) fails per request, not at registration — the
	// script is parameter-generic.
	code, body = get(t, ts.URL+"/v1/verify?m=2&k=2&f=0&horizon=2000&strategy="+hash)
	if code != http.StatusBadRequest {
		t.Errorf("out-of-regime scripted verify = (%d, %s)", code, body)
	}
}

// TestRunawayScriptRejectedWithinBudget is the sandbox acceptance test:
// a script that loops forever must come back as a 4xx naming the
// violated limit — within the request budget, never a wedged worker —
// and the gas-exhaustion metric must tick.
func TestRunawayScriptRejectedWithinBudget(t *testing.T) {
	ts := newTestServer(t, Config{})
	hash := registerScript(t, ts.URL, "x := 1.0\nfor x > 0 {\n\tx = x + 1\n}\nemit(1, x)")

	code, body := get(t, ts.URL+"/v1/verify?m=2&k=3&f=1&horizon=2000&strategy="+hash)
	if code != http.StatusBadRequest {
		t.Fatalf("runaway script = %d, want 400: %s", code, body)
	}
	if !strings.Contains(body, "gas") || !strings.Contains(body, "limit") {
		t.Errorf("runaway rejection %q does not name the exhausted limit", body)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "boundsd_strategy_gas_exhausted_total 1") {
		t.Errorf("gas exhaustion did not tick the metric:\n%s", grepLines(metrics, "boundsd_strategy"))
	}
}

// TestStrategiesMetrics pins the compile/reject counters and store size.
func TestStrategiesMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	registerScript(t, ts.URL, "emit(1, 2)")
	registerScript(t, ts.URL, "emit(1, 2)") // cached: no second compile
	registerScript(t, ts.URL, "emit(1, 4)")
	postScript(t, ts.URL, "not a program")

	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"boundsd_strategy_compiles_total 2",
		"boundsd_strategy_rejects_total 1",
		"boundsd_strategy_gas_exhausted_total 0",
		"boundsd_strategy_store_size 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepLines(metrics, "boundsd_strategy"))
		}
	}
}

// TestStrategyStoreEviction pins the LRU bound: the store never holds
// more than MaxStoredStrategies programs, and an evicted hash answers
// the documented re-register hint.
func TestStrategyStoreEviction(t *testing.T) {
	st := newStrategyStore()
	var hashes []string
	for i := 0; i <= MaxStoredStrategies; i++ {
		p, err := program.Compile(fmt.Sprintf("emit(1, %d.5)", i+1))
		if err != nil {
			t.Fatal(err)
		}
		if cached := st.put(p); cached {
			t.Fatalf("program %d reported cached on first put", i)
		}
		hashes = append(hashes, p.Hash())
	}
	if n := st.len(); n != MaxStoredStrategies {
		t.Fatalf("store holds %d programs, cap %d", n, MaxStoredStrategies)
	}
	if st.get(hashes[0]) != nil {
		t.Error("least-recently-used program survived past the cap")
	}
	if st.get(hashes[len(hashes)-1]) == nil {
		t.Error("most recent program was evicted")
	}
}

// TestBatchScriptedVerify pins strategy= routing through /v1/batch rows.
func TestBatchScriptedVerify(t *testing.T) {
	ts := newTestServer(t, Config{})
	hash := registerScript(t, ts.URL, strategy.CyclicScript)
	payload := fmt.Sprintf(`[
		{"op": "verify", "m": 2, "k": 3, "f": 1, "horizon": 2000},
		{"op": "verify", "m": 2, "k": 3, "f": 1, "horizon": 2000, "strategy": %q},
		{"op": "verify", "m": 2, "k": 3, "f": 1, "horizon": 2000, "strategy": "unknownhash"}
	]`, hash)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ans BatchAnswer
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 3 {
		t.Fatalf("rows = %+v", ans.Rows)
	}
	if ans.Rows[0].Status != http.StatusOK || ans.Rows[1].Status != http.StatusOK {
		t.Fatalf("verify rows failed: %+v", ans.Rows)
	}
	if string(ans.Rows[0].Result) != string(ans.Rows[1].Result) {
		t.Errorf("batch scripted verify diverges from builtin:\n%s\n%s", ans.Rows[0].Result, ans.Rows[1].Result)
	}
	if ans.Rows[2].Status != http.StatusBadRequest || !strings.Contains(ans.Rows[2].Error, "/v1/strategies") {
		t.Errorf("unknown-hash row = %+v", ans.Rows[2])
	}
}

// grepLines filters metrics output for readable failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
