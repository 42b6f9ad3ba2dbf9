package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// post POSTs a JSON body and returns the status and response body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// compact normalizes a JSON document for byte comparison.
func compact(t *testing.T, data []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("compacting %q: %v", data, err)
	}
	return buf.String()
}

// batchEquivalenceBody is the heterogeneous three-op batch used by the
// equivalence tests, alongside the single-endpoint requests it must
// reproduce byte for byte.
const batchEquivalenceBody = `[
  {"op": "bounds",   "m": 2, "k": 3, "f": 1},
  {"op": "verify",   "m": 2, "k": 3, "f": 1, "horizon": 20000},
  {"op": "simulate", "model": "pfaulty-halfline", "m": 1, "k": 1, "f": 0, "horizon": 20, "points": 3, "p": 0.25, "samples": 500}
]`

var batchEquivalenceSingles = []string{
	"/v1/bounds?m=2&k=3&f=1",
	"/v1/verify?m=2&k=3&f=1&horizon=20000",
	"/v1/simulate?model=pfaulty-halfline&m=1&k=1&f=0&horizon=20&points=3&p=0.25&samples=500",
}

// TestBatchRowsMatchSingleEndpoints is the acceptance contract of the
// multiplex endpoint: every batch row's result is byte-identical
// (after JSON compaction, which is how the row embeds the document) to
// the corresponding single-endpoint answer.
func TestBatchRowsMatchSingleEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{Engine: engine.New(0)})
	singles := make([]string, len(batchEquivalenceSingles))
	for i, q := range batchEquivalenceSingles {
		code, body := get(t, ts.URL+q)
		if code != http.StatusOK {
			t.Fatalf("%s = %d: %s", q, code, body)
		}
		singles[i] = compact(t, []byte(body))
	}
	code, body := post(t, ts.URL+"/v1/batch", batchEquivalenceBody)
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, body)
	}
	var ans BatchAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Count != 3 || ans.Failed != 0 || len(ans.Rows) != 3 {
		t.Fatalf("batch shape wrong: count=%d failed=%d rows=%d", ans.Count, ans.Failed, len(ans.Rows))
	}
	wantOps := []string{"bounds", "verify", "simulate"}
	for i, row := range ans.Rows {
		if row.Index != i || row.Op != wantOps[i] || row.Status != http.StatusOK || row.Error != "" {
			t.Errorf("row %d metadata wrong: %+v", i, row)
		}
		if got := compact(t, row.Result); got != singles[i] {
			t.Errorf("row %d differs from its single endpoint:\nbatch:  %s\nsingle: %s", i, got, singles[i])
		}
	}
}

// TestBatchNDJSONRowsMatchBatchJSON: the streamed representation emits
// the same BatchRow values in the same order as the batch JSON answer
// — and each streamed row's result field is the byte-exact compaction
// of the single-endpoint answer (no re-marshaling slack: the bytes on
// the wire are compared, not parsed values).
func TestBatchNDJSONRowsMatchBatchJSON(t *testing.T) {
	eng := engine.New(0)
	ts := newTestServer(t, Config{Engine: eng, Heartbeat: time.Minute})
	singles := make([]string, len(batchEquivalenceSingles))
	for i, q := range batchEquivalenceSingles {
		code, body := get(t, ts.URL+q)
		if code != http.StatusOK {
			t.Fatalf("%s = %d: %s", q, code, body)
		}
		singles[i] = compact(t, []byte(body))
	}
	code, batchBody := post(t, ts.URL+"/v1/batch", batchEquivalenceBody)
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, batchBody)
	}
	var ans BatchAnswer
	if err := json.Unmarshal([]byte(batchBody), &ans); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", strings.NewReader(batchEquivalenceBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson batch = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Errorf("content type = %q", ct)
	}
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	rows, comments := ndjsonRows(buf.String())
	if len(rows) != len(ans.Rows) {
		t.Fatalf("ndjson rows = %d, batch rows = %d", len(rows), len(ans.Rows))
	}
	for i, row := range ans.Rows {
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i] != string(want) {
			t.Errorf("row %d:\nndjson: %s\nbatch:  %s", i, rows[i], want)
		}
		// The streamed row's result field carries the single endpoint's
		// compacted bytes verbatim.
		var streamed BatchRow
		if err := json.Unmarshal([]byte(rows[i]), &streamed); err != nil {
			t.Fatal(err)
		}
		if string(streamed.Result) != singles[i] {
			t.Errorf("row %d result differs from single endpoint:\nndjson: %s\nsingle: %s", i, streamed.Result, singles[i])
		}
	}
	if len(comments) == 0 || !strings.Contains(comments[len(comments)-1], "# done rows=3") {
		t.Errorf("missing terminal done comment, comments = %v", comments)
	}
	// ?format=ndjson selects the same path without the header.
	code, viaParam := post(t, ts.URL+"/v1/batch?format=ndjson", batchEquivalenceBody)
	if code != http.StatusOK {
		t.Fatalf("format=ndjson batch = %d", code)
	}
	paramRows, _ := ndjsonRows(viaParam)
	if len(paramRows) != len(rows) {
		t.Errorf("format=ndjson emitted %d rows, Accept header %d", len(paramRows), len(rows))
	}
}

// TestBatchErrorIsolation: failing sub-requests become rows with the
// status their single endpoint would have answered; the healthy items
// still run, in order.
func TestBatchErrorIsolation(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body := post(t, ts.URL+"/v1/batch", `[
	  {"op": "bounds",  "m": 2, "k": 3, "f": 1},
	  {"op": "bounds",  "m": 2, "k": -1, "f": 0},
	  {"op": "teleport", "m": 2},
	  {"op": "verify",  "m": 2, "k": 3, "f": 1, "model": "byzantine"},
	  {"op": "verify",  "m": 2, "k": 3, "f": 1, "horizon": 5000}
	]`)
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, body)
	}
	var ans BatchAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Count != 5 || ans.Failed != 3 || len(ans.Rows) != 5 {
		t.Fatalf("batch shape: count=%d failed=%d rows=%d\n%s", ans.Count, ans.Failed, len(ans.Rows), body)
	}
	for _, want := range []struct {
		index, status int
		errSubstr     string
	}{
		{0, http.StatusOK, ""},
		{1, http.StatusBadRequest, "k"},
		{2, http.StatusBadRequest, "unknown op"},
		{3, http.StatusBadRequest, "transfer lower bound"},
		{4, http.StatusOK, ""},
	} {
		row := ans.Rows[want.index]
		if row.Status != want.status {
			t.Errorf("row %d status = %d, want %d (%+v)", want.index, row.Status, want.status, row)
		}
		if want.errSubstr == "" {
			if row.Error != "" || row.Result == nil {
				t.Errorf("row %d should have succeeded: %+v", want.index, row)
			}
		} else if !strings.Contains(row.Error, want.errSubstr) {
			t.Errorf("row %d error %q missing %q", want.index, row.Error, want.errSubstr)
		}
	}
}

// TestBatchBadInput: whole-request failure modes (there is no row to
// isolate into).
func TestBatchBadInput(t *testing.T) {
	ts := newTestServer(t, Config{})
	// GET is not a batch.
	code, body := get(t, ts.URL+"/v1/batch")
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET batch = %d (want 405): %s", code, body)
	}
	for _, c := range []struct {
		name, payload string
	}{
		{"not json", `{{{`},
		{"not an array", `{"op": "bounds"}`},
		{"empty array", `[]`},
		{"two arrays", `[{"op": "bounds", "m": 2, "k": 3, "f": 1}] [{"op": "nope"}]`},
		{"trailing garbage", `[{"op": "bounds", "m": 2, "k": 3, "f": 1}]garbage`},
		{"trailing bracket", `[{"op": "bounds", "m": 2, "k": 3, "f": 1}]]`},
	} {
		code, body := post(t, ts.URL+"/v1/batch", c.payload)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d (want 400): %s", c.name, code, body)
		}
	}
	// Over the item cap.
	items := make([]string, MaxBatchItems+1)
	for i := range items {
		items[i] = `{"op": "bounds", "m": 2, "k": 3, "f": 1}`
	}
	code, body = post(t, ts.URL+"/v1/batch", "["+strings.Join(items, ",")+"]")
	if code != http.StatusBadRequest || !strings.Contains(body, "cap") {
		t.Errorf("oversized batch = %d: %s", code, body)
	}
}

// TestBatchTimeoutIsolatedPerRow: a sub-request that exhausts the
// shared budget becomes a 504 row; the other items — which evaluate
// concurrently, not behind it — still succeed, and the batch answers
// at the budget, not at the slow item's completion time.
func TestBatchTimeoutIsolatedPerRow(t *testing.T) {
	ts := newTestServer(t, Config{Registry: slowRegistry(t), Timeout: 150 * time.Millisecond})
	start := time.Now()
	code, body := post(t, ts.URL+"/v1/batch", `[
	  {"op": "bounds", "m": 2, "k": 3, "f": 1},
	  {"op": "verify", "m": 2, "k": 1, "f": 0, "model": "slow"},
	  {"op": "bounds", "m": 2, "k": 4, "f": 1}
	]`)
	if code != http.StatusOK {
		t.Fatalf("batch = %d: %s", code, body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("batch took %v; the 150ms budget should bound it (slow item sleeps 2s)", elapsed)
	}
	var ans BatchAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Failed != 1 {
		t.Errorf("failed = %d, want 1: %s", ans.Failed, body)
	}
	if ans.Rows[0].Status != http.StatusOK || ans.Rows[2].Status != http.StatusOK {
		t.Errorf("healthy rows damaged by the slow item: %+v / %+v", ans.Rows[0], ans.Rows[2])
	}
	if ans.Rows[1].Status != http.StatusGatewayTimeout {
		t.Errorf("slow row status = %d, want 504: %+v", ans.Rows[1].Status, ans.Rows[1])
	}
	// The NDJSON representation reports the same outcome: every row is
	// emitted (timeout rows included), never silently truncated.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", strings.NewReader(`[
	  {"op": "bounds", "m": 2, "k": 3, "f": 1},
	  {"op": "verify", "m": 2, "k": 2, "f": 0, "model": "slow"},
	  {"op": "bounds", "m": 2, "k": 4, "f": 1}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	rows, comments := ndjsonRows(buf.String())
	if len(rows) != 3 {
		t.Fatalf("ndjson emitted %d rows, want all 3 (timeout rows included): %q", len(rows), buf.String())
	}
	var slow BatchRow
	if err := json.Unmarshal([]byte(rows[1]), &slow); err != nil {
		t.Fatal(err)
	}
	if slow.Status != http.StatusGatewayTimeout {
		t.Errorf("ndjson slow row status = %d, want 504", slow.Status)
	}
	if len(comments) == 0 || !strings.Contains(comments[len(comments)-1], "# done rows=3") {
		t.Errorf("ndjson missing done comment: %v", comments)
	}
}

// TestBatchCountsInMetrics: the route is first-class in the request
// counters.
func TestBatchCountsInMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/batch", `[{"op": "bounds", "m": 2, "k": 3, "f": 1}]`)
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		`boundsd_requests_total{path="/v1/batch"} 1`,
		"boundsd_engine_cache_size",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// FuzzBatchBody posts arbitrary bytes to /v1/batch — the endpoint
// whose body is the least constrained client input boundsd parses.
// Whatever the bytes, the server must not panic and must answer a
// status the endpoint documents; a 200 must be a well-formed
// BatchAnswer whose rows are in index order and whose Failed count is
// the number of rows carrying an error.
func FuzzBatchBody(f *testing.F) {
	for _, seed := range []string{
		batchEquivalenceBody,
		`[{"op": "bounds", "m": 2, "k": 3, "f": 1}, {"op": "bounds", "m": 2, "k": -1, "f": 0}, {"op": "teleport", "m": 2}, {"op": "verify", "m": 2, "k": 3, "f": 1, "model": "byzantine"}]`,
		`[{"op": "bounds", "m": 2, "k": 3, "f": 1}, {"op": "verify", "m": 2, "k": 1, "f": 0, "model": "slow"}]`,
		`[{"op": "verify", "m": 2, "k": 3, "f": 1, "horizon": 2000, "strategy": "unknownhash"}]`,
		`{{{`,
		`{"op": "bounds"}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	srv := New(Config{Engine: engine.New(1), Timeout: 100 * time.Millisecond})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveReq(srv, http.MethodPost, "/v1/batch", "", string(body))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var ans BatchAnswer
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
			t.Fatalf("200 body is not a BatchAnswer: %v\n%s", err, rec.Body)
		}
		if ans.Count != len(ans.Rows) {
			t.Fatalf("count %d, %d rows", ans.Count, len(ans.Rows))
		}
		failed := 0
		for i, row := range ans.Rows {
			if row.Index != i {
				t.Fatalf("row %d carries index %d", i, row.Index)
			}
			if row.Error != "" {
				failed++
			}
		}
		if ans.Failed != failed {
			t.Fatalf("failed = %d, %d rows carry an error", ans.Failed, failed)
		}
	})
}
