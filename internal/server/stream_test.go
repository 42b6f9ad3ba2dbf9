package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// getWithHeader is get with an extra request header.
func getWithHeader(t *testing.T, url, header, value string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(header, value)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, sb.String()
}

// ndjsonRows splits an NDJSON body into data rows and comment lines.
func ndjsonRows(body string) (rows, comments []string) {
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			comments = append(comments, line)
			continue
		}
		rows = append(rows, line)
	}
	return rows, comments
}

// TestSweepNDJSONRowsMatchBatch is the acceptance contract of the
// streaming endpoint: every NDJSON data row is byte-identical to the
// compact encoding of the corresponding batch JSON cell, in the same
// order, and the stream terminates with a done comment.
func TestSweepNDJSONRowsMatchBatch(t *testing.T) {
	eng := engine.New(0)
	ts := newTestServer(t, Config{Engine: eng, Heartbeat: time.Minute})
	code, batchBody := get(t, ts.URL+"/v1/sweep?m=2&kmax=4&horizon=5000")
	if code != http.StatusOK {
		t.Fatalf("batch sweep = %d: %s", code, batchBody)
	}
	var table SweepTable
	if err := json.Unmarshal([]byte(batchBody), &table); err != nil {
		t.Fatal(err)
	}
	code, streamBody := getWithHeader(t, ts.URL+"/v1/sweep?m=2&kmax=4&horizon=5000",
		"Accept", "application/x-ndjson")
	if code != http.StatusOK {
		t.Fatalf("ndjson sweep = %d: %s", code, streamBody)
	}
	rows, comments := ndjsonRows(streamBody)
	if len(rows) != len(table.Cells) {
		t.Fatalf("ndjson rows = %d, batch cells = %d", len(rows), len(table.Cells))
	}
	for i, cell := range table.Cells {
		want, err := json.Marshal(cell)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i] != string(want) {
			t.Errorf("row %d:\nndjson: %s\nbatch:  %s", i, rows[i], want)
		}
	}
	if len(comments) == 0 || !strings.Contains(comments[len(comments)-1], "# done rows=10") {
		t.Errorf("missing terminal done comment, comments = %v", comments)
	}
	// ?format=ndjson selects the same path without the header.
	code, viaParam := get(t, ts.URL+"/v1/sweep?m=2&kmax=4&horizon=5000&format=ndjson")
	if code != http.StatusOK {
		t.Fatalf("format=ndjson sweep = %d", code)
	}
	paramRows, _ := ndjsonRows(viaParam)
	if len(paramRows) != len(rows) {
		t.Errorf("format=ndjson emitted %d rows, Accept header %d", len(paramRows), len(rows))
	}
}

// slowGrid is a sweep request expensive enough (serial engine, deep
// horizon, kmax raised past the default cap) that a tenth of its run
// time still makes a whole-millisecond timeout.
const (
	slowGrid        = "/v1/sweep?m=2&kmax=48&horizon=1e8"
	slowGridKMax    = 48
	slowGridHorizon = 1e8
)

// slowGridBudget times one uncached serial run of the slow grid and
// returns a timeout_ms of at most a tenth of it, so a request for the
// grid exceeds its budget by construction, however fast the kernel
// is. It fails the test when the grid runs too fast for a
// whole-millisecond budget to keep that margin.
func slowGridBudget(t *testing.T) int {
	t.Helper()
	start := time.Now()
	if _, err := ComputeSweep(context.Background(), engine.New(1), engine.Grid(2, slowGridKMax), slowGridHorizon, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	budget := int(elapsed / (10 * time.Millisecond))
	if budget < 1 {
		t.Fatalf("a serial run of the slow grid took %v, too fast for a timeout_ms of at most a tenth of it; raise slowGridKMax", elapsed)
	}
	return budget
}

// TestSweepTimeoutStopsEngineWork is the worker-occupancy regression
// test: a timed-out /v1/sweep must leave zero in-progress cells within
// one cell evaluation, observed through the engine's InFlight gauge,
// and the engine must stop starting new cells the moment the request's
// context fires.
func TestSweepTimeoutStopsEngineWork(t *testing.T) {
	budget := slowGridBudget(t)
	eng := engine.New(1) // serial: the sweep takes ten budgets
	ts := newTestServer(t, Config{Engine: eng, MaxKMax: slowGridKMax})
	searchCells := 0
	for _, c := range engine.Grid(2, slowGridKMax) {
		if c.K < 2*(c.F+1) { // search regime: f < k < m(f+1)
			searchCells++
		}
	}
	code, body := get(t, fmt.Sprintf("%s%s&timeout_ms=%d", ts.URL, slowGrid, budget))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out sweep = %d (want 504): %s", code, body)
	}
	// Worker occupancy must drain to zero promptly (one cell evaluation
	// is sub-millisecond here; the window is generous for CI noise).
	deadline := time.Now().Add(2 * time.Second)
	for eng.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine still has %d in-flight cells long after cancellation", eng.Stats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
	st := eng.Stats()
	if st.Misses == 0 {
		t.Error("sweep never started — the test exercised nothing")
	}
	if int(st.Misses) >= searchCells {
		t.Errorf("engine computed all %d cells despite the %dms budget", searchCells, budget)
	}
	// No new cells may start after the request is gone.
	frozen := st.Misses
	time.Sleep(100 * time.Millisecond)
	if got := eng.Stats().Misses; got != frozen {
		t.Errorf("engine kept starting cells after cancellation: %d -> %d", frozen, got)
	}
}

// TestSweepNDJSONTruncatedOnTimeout: the streaming path under the same
// tight budget emits a prefix of rows and a trailing truncation
// comment instead of hanging or dying silently.
func TestSweepNDJSONTruncatedOnTimeout(t *testing.T) {
	budget := slowGridBudget(t)
	eng := engine.New(1)
	ts := newTestServer(t, Config{Engine: eng, Heartbeat: 200 * time.Microsecond, MaxKMax: slowGridKMax})
	code, body := getWithHeader(t, fmt.Sprintf("%s%s&timeout_ms=%d", ts.URL, slowGrid, budget), "Accept", "application/x-ndjson")
	if code != http.StatusOK {
		t.Fatalf("streaming headers must be sent before the timeout can fire: %d", code)
	}
	rows, comments := ndjsonRows(body)
	total := len(engine.Grid(2, slowGridKMax))
	if len(rows) >= total {
		t.Fatalf("stream emitted the whole grid (%d rows) despite the budget", len(rows))
	}
	var truncated bool
	for _, c := range comments {
		if strings.Contains(c, "# truncated after") {
			truncated = true
		}
	}
	if !truncated {
		t.Errorf("missing truncation comment; comments = %v", comments)
	}
	// With a sub-millisecond heartbeat and multi-ms compute, at least
	// one heartbeat comment interleaves.
	var beat bool
	for _, c := range comments {
		if strings.Contains(c, "heartbeat") {
			beat = true
		}
	}
	if !beat {
		t.Errorf("no heartbeat comment on a slow stream; comments = %v", comments)
	}
}

// TestComputeSweepPartialOnCellError pins the keep-going rendering: a
// failing cell stays in the table with its message, the markdown
// renderer appends an errors section under the partial table, and the
// other cells are untouched.
func TestComputeSweepPartialOnCellError(t *testing.T) {
	eng := engine.New(2)
	cells := []engine.Cell{{M: 2, K: 3, F: 1}, {M: 0, K: 1, F: 0}, {M: 2, K: 1, F: 0}}
	table, err := ComputeSweep(context.Background(), eng, cells, 1e3, nil)
	if err == nil {
		t.Fatal("invalid cell must surface an error")
	}
	var ce *engine.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("sweep error %v is not a CellError", err)
	}
	if len(table.Cells) != 3 {
		t.Fatalf("partial table discarded: %d cells, want 3", len(table.Cells))
	}
	if table.Cells[1].Error == "" {
		t.Errorf("failing cell carries no error: %+v", table.Cells[1])
	}
	if !table.Cells[0].Evaluated || !table.Cells[2].Evaluated {
		t.Errorf("healthy cells damaged: %+v / %+v", table.Cells[0], table.Cells[2])
	}
	md := table.MarkdownRays()
	if !strings.Contains(md, "errors:") || !strings.Contains(md, "cell (0,1,0)") {
		t.Errorf("markdown missing the errors section:\n%s", md)
	}
	if !strings.Contains(md, "| 2 | 3 | 1 |") {
		t.Errorf("markdown missing the healthy rows:\n%s", md)
	}
}

// flushRecorder is an httptest.ResponseRecorder that records the body
// as it stood at each Flush — what a client had been handed, and when.
// With notify set, each snapshot is also sent there.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes []string
	notify  chan string
}

func (r *flushRecorder) Flush() {
	body := r.Body.String()
	r.flushes = append(r.flushes, body)
	if r.notify != nil {
		r.notify <- body
	}
}

// TestSweepNDJSONFlushesFirstRowBeforeEnd goes through Server.ServeHTTP,
// whose status recorder must pass Flush through: a serial sweep's
// first row reaches the client before its final status line does, and
// the final line is flushed too.
func TestSweepNDJSONFlushesFirstRowBeforeEnd(t *testing.T) {
	srv := New(Config{Engine: engine.New(1), Heartbeat: time.Minute})
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweep?m=2&kmax=6&horizon=1e6&format=ndjson", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ndjson sweep = %d: %s", rec.Code, rec.Body)
	}
	if len(rec.flushes) == 0 {
		t.Fatal("the stream was never flushed through the server's writer")
	}
	first := -1
	for i, body := range rec.flushes {
		if rows, _ := ndjsonRows(body); len(rows) > 0 {
			first = i
			break
		}
	}
	if first < 0 || strings.Contains(rec.flushes[first], "# done") {
		t.Errorf("no flush carried a row before the final line; flushes = %q", rec.flushes)
	}
	if last := rec.flushes[len(rec.flushes)-1]; last != rec.Body.String() || !strings.HasSuffix(last, "# done rows=21\n") {
		t.Errorf("the final status line was not flushed: last flush %q, body %q", last, rec.Body)
	}
}

// TestSweepNDJSONFlushesHeartbeat: on a stream stalled by slow cells
// (the slow grid of TestSweepNDJSONTruncatedOnTimeout), a heartbeat
// comment is flushed the moment it is written.
func TestSweepNDJSONFlushesHeartbeat(t *testing.T) {
	budget := slowGridBudget(t)
	srv := New(Config{Engine: engine.New(1), Heartbeat: 200 * time.Microsecond, MaxKMax: slowGridKMax})
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("%s&timeout_ms=%d&format=ndjson", slowGrid, budget), nil))
	for _, body := range rec.flushes {
		if strings.HasSuffix(body, "# heartbeat\n") {
			return
		}
	}
	t.Errorf("no flush ended on a heartbeat; flushes = %q", rec.flushes)
}

// appendQuoted is a row appender for ndjsonStream tests.
func appendQuoted(b []byte, s string) ([]byte, error) { return strconv.AppendQuote(b, s), nil }

// TestNDJSONStreamFlushesOnlyWhenIdle: rows that are all ready at once
// leave in one flush with the status line, not one flush per row.
func TestNDJSONStreamFlushesOnlyWhenIdle(t *testing.T) {
	rows := make(chan string, 50)
	for i := 0; i < cap(rows); i++ {
		rows <- strconv.Itoa(i)
	}
	close(rows)
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	ndjsonStream(context.Background(), rec, time.Hour, time.Minute, cap(rows), rows, appendQuoted)
	if len(rec.flushes) != 1 || rec.flushes[0] != rec.Body.String() {
		t.Fatalf("%d ready rows gave %d flushes, want one at the end: %q", cap(rows), len(rec.flushes), rec.flushes)
	}
	if got, _ := ndjsonRows(rec.Body.String()); len(got) != cap(rows) || !strings.HasSuffix(rec.Body.String(), "# done rows=50\n") {
		t.Errorf("body %q", rec.Body)
	}
}

// TestNDJSONStreamTimerFlushesPendingRow: a row that arrives within
// flushGap of the previous flush is not held until the next row or
// heartbeat; a timer flushes it once the gap has passed.
func TestNDJSONStreamTimerFlushesPendingRow(t *testing.T) {
	rows := make(chan string)
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder(), notify: make(chan string, 4)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ndjsonStream(context.Background(), rec, time.Hour, time.Minute, 2, rows, appendQuoted)
	}()
	wait := func(want string) {
		t.Helper()
		select {
		case body := <-rec.notify:
			if body != want {
				t.Fatalf("flushed %q, want %q", body, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no flush of %q", want)
		}
	}
	rows <- "a"
	wait("\"a\"\n")
	rows <- "b" // within the gap of the first flush: only the timer flushes it
	wait("\"a\"\n\"b\"\n")
	close(rows)
	wait("\"a\"\n\"b\"\n# done rows=2\n")
	<-done
}
