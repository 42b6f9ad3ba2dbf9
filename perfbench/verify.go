package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/registry"
	"repro/internal/server"
)

// checkAnswer is the structural check every 2xx answer passes: it
// parses as its endpoint's payload, an NDJSON sweep ends with
// "# done rows=N" where N is the grid size, a batch answers one
// successful row per posted item, and a simulation one row per point.
func checkAnswer(p loadgen.Plan, body []byte) string {
	q := query(p.Path)
	switch p.Op {
	case loadgen.OpSweep:
		kmax := qint(q, "kmax", 6)
		want := kmax * (kmax + 1) / 2
		rows, done := ndjsonRows(body)
		if done != want || len(rows) != want {
			return fmt.Sprintf("stream carried %d rows and terminal rows=%d, want # done rows=%d", len(rows), done, want)
		}
		// Row contents are checked on the sampled answers only, keeping
		// the driver's share of the two CPUs small.
	case loadgen.OpBatch:
		var items []json.RawMessage
		if err := json.Unmarshal(p.Body, &items); err != nil {
			return "posted batch does not parse: " + err.Error()
		}
		var ans server.BatchAnswer
		if err := json.Unmarshal(body, &ans); err != nil {
			return "batch answer: " + err.Error()
		}
		if ans.Count != len(items) || len(ans.Rows) != len(items) || ans.Failed != 0 {
			return fmt.Sprintf("batch of %d items answered count=%d, %d rows, failed=%d", len(items), ans.Count, len(ans.Rows), ans.Failed)
		}
		for _, row := range ans.Rows {
			if row.Status != http.StatusOK {
				return fmt.Sprintf("batch row %d status %d: %s", row.Index, row.Status, row.Error)
			}
		}
	case loadgen.OpSimulate:
		var t server.SimulateTable
		if err := json.Unmarshal(body, &t); err != nil {
			return "simulate answer: " + err.Error()
		}
		if want := qint(q, "points", server.DefaultSimPoints); len(t.Rows) != want {
			return fmt.Sprintf("simulate answered %d rows, want %d", len(t.Rows), want)
		}
		for _, row := range t.Rows {
			if row.Error != "" {
				return "simulate row: " + row.Error
			}
		}
	case loadgen.OpVerify:
		var a server.VerifyAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return "verify answer: " + err.Error()
		}
		if !a.Evaluated || !(float64(a.Value) >= 1) {
			return fmt.Sprintf("verify answered value %v (evaluated %v); a competitive ratio is at least 1", float64(a.Value), a.Evaluated)
		}
		if a.Scenario == "crash" && a.Horizon >= closedFormMinHorizon {
			return nearClosed(float64(a.Value), a.M, a.K, a.F)
		}
	case loadgen.OpBounds:
		var a server.BoundsAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return "bounds answer: " + err.Error()
		}
	case loadgen.OpStrategies:
		var a server.StrategiesAnswer
		if err := json.Unmarshal(body, &a); err != nil || a.Hash == "" {
			return "registration answer without a hash"
		}
	}
	return ""
}

// A crash ratio the exact adversary measures at a horizon of at least
// closedFormMinHorizon lies in [closed*(1-closedFormGap),
// closed*(1+1e-9)], where closed is the paper's bounds.AMKF: the
// measured ratio approaches it from below (internal/engine's sweep test
// pins the upper side), and at these horizons it is within 1.1e-4 of it
// on every search-regime cell with m <= 4 and k <= 12, for the built-in
// strategy and for scripted coverings whose turns are scaled up by at
// most 1.25. The closed form does not go through the engine, so this
// catches a kernel that boundsd and an in-process re-serve get wrong
// alike.
const (
	closedFormMinHorizon = 2000
	closedFormGap        = 1e-3
)

// nearClosed checks a crash ratio measured on (m, k, f) against
// bounds.AMKF.
func nearClosed(measured float64, m, k, f int) string {
	closed, err := bounds.AMKF(m, k, f)
	if err != nil {
		return fmt.Sprintf("bounds.AMKF(%d, %d, %d): %v", m, k, f, err)
	}
	if measured >= closed*(1-closedFormGap) && measured <= closed*(1+1e-9) {
		return ""
	}
	return fmt.Sprintf("measured ratio %v outside [closed*(1-%g), closed*(1+1e-9)] for bounds.AMKF(%d, %d, %d) = %v",
		measured, closedFormGap, m, k, f, closed)
}

// checkSweepRows checks every evaluated cell of a sampled sweep answer
// against bounds.AMKF.
func checkSweepRows(s sample) string {
	if s.plan.Op != loadgen.OpSweep || qfloat(query(s.plan.Path), "horizon", server.DefaultHorizon) < closedFormMinHorizon {
		return ""
	}
	rows, _ := ndjsonRows(s.body)
	for _, row := range rows {
		var c server.SweepCell
		if err := json.Unmarshal([]byte(row), &c); err != nil {
			return err.Error()
		}
		if !c.Evaluated {
			continue
		}
		if p := nearClosed(float64(c.Measured), c.M, c.K, c.F); p != "" {
			return p
		}
	}
	return ""
}

// verifyAnswers re-checks the sampled answers of a run. Each evaluated
// sweep cell must lie near its closed form. Each answer is
// then re-served by a fresh in-process server.Server and must match
// byte for byte; its numbers are recomputed on another fresh engine
// through the public functions underneath — bounds.AMKF, engine.Sweep,
// and the registry's verify and simulate jobs (Monte-Carlo jobs with
// their explicit seed) — and must match exactly. scripts maps the hash
// of every strategy the run registered to its source.
func verifyAnswers(ctx context.Context, in *inputs, samples []sample, scripts map[string]string) []string {
	srv := server.New(server.Config{Engine: engine.NewWithCache(0, 0)})
	calc := engine.NewWithCache(0, 0)
	var (
		problems []string
		hashes   []string
		sources  []string
	)
	for hash, script := range scripts {
		if _, err := in.compile(script); err != nil {
			problems = append(problems, fmt.Sprintf("strategy %s does not compile in-process: %v", hash, err))
			continue
		}
		hashes = append(hashes, hash)
		sources = append(sources, script)
	}
	got, err := registerOn(srv, sources)
	if err != nil {
		problems = append(problems, "in-process: "+err.Error())
	}
	for i := range got {
		if got[i] != hashes[i] {
			problems = append(problems, fmt.Sprintf("strategy %s hashes in-process as %s", hashes[i], got[i]))
		}
	}
	for _, s := range samples {
		problem := checkSweepRows(s)
		if problem == "" {
			problem = reserve(srv, s)
		}
		if problem == "" {
			problem = recompute(ctx, calc, in, s)
		}
		if problem != "" {
			problems = append(problems, fmt.Sprintf("%s %s: %s", s.plan.Method, s.plan.Path, problem))
		}
	}
	return problems
}

// serve runs one request through h on a recorder.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// reserve re-serves a sampled request in-process and compares answers:
// byte for byte, except for the data rows alone of an NDJSON stream
// (heartbeats depend on timing) and the hash alone of a registration
// (whether it was already registered depends on the server's history).
func reserve(h http.Handler, s sample) string {
	got := serve(h, s.plan.Method, s.plan.Path, s.plan.Body).Body.Bytes()
	switch s.plan.Op {
	case loadgen.OpStrategies:
		var a, b server.StrategiesAnswer
		if json.Unmarshal(s.body, &a) != nil || json.Unmarshal(got, &b) != nil || a.Hash != b.Hash {
			return fmt.Sprintf("registration hash %q, an in-process re-serve gives %q", a.Hash, b.Hash)
		}
	case loadgen.OpSweep:
		want, wantDone := ndjsonRows(s.body)
		rows, done := ndjsonRows(got)
		if done != wantDone || strings.Join(rows, "\n") != strings.Join(want, "\n") {
			return "NDJSON rows differ from an in-process re-serve"
		}
	default:
		if !bytes.Equal(got, s.body) {
			return fmt.Sprintf("answer differs from an in-process re-serve:\n  boundsd:    %.300s\n  in-process: %.300s", s.body, got)
		}
	}
	return ""
}

// recompute recomputes a sampled answer's numbers through the public
// functions the server calls and requires them to match exactly.
func recompute(ctx context.Context, eng *engine.Engine, in *inputs, s sample) string {
	q := query(s.plan.Path)
	switch s.plan.Op {
	case loadgen.OpBounds:
		var a server.BoundsAnswer
		if err := json.Unmarshal(s.body, &a); err != nil {
			return err.Error()
		}
		regime, err := bounds.Classify(a.M, a.K, a.F)
		if err != nil || regime == bounds.RegimeUnsolvable || a.Scenario != "crash" {
			return "" // no finite crash bound to recompute
		}
		want, err := bounds.AMKF(a.M, a.K, a.F)
		if err != nil {
			return "bounds.AMKF: " + err.Error()
		}
		if !same(float64(a.Lower), want) {
			return fmt.Sprintf("lower %v, bounds.AMKF gives %v", float64(a.Lower), want)
		}
	case loadgen.OpSweep:
		m, kmax, h := qint(q, "m", 2), qint(q, "kmax", 6), qfloat(q, "horizon", server.DefaultHorizon)
		res, err := eng.Sweep(ctx, engine.Grid(m, kmax), h)
		if err != nil {
			return "engine.Sweep: " + err.Error()
		}
		rows, _ := ndjsonRows(s.body)
		for i, row := range rows {
			var c server.SweepCell
			if err := json.Unmarshal([]byte(row), &c); err != nil {
				return err.Error()
			}
			cr := res[i]
			if !same(float64(c.Closed), cr.Closed) || c.Evaluated != cr.Evaluated ||
				(cr.Evaluated && !same(float64(c.Measured), cr.Eval.WorstRatio)) {
				return fmt.Sprintf("cell (%d,%d,%d) measured %v closed %v; engine.Sweep gives %v and %v",
					c.M, c.K, c.F, float64(c.Measured), float64(c.Closed), cr.Eval.WorstRatio, cr.Closed)
			}
		}
	case loadgen.OpVerify:
		var a server.VerifyAnswer
		if err := json.Unmarshal(s.body, &a); err != nil {
			return err.Error()
		}
		var (
			job engine.Job
			err error
		)
		if hash := q.Get("strategy"); hash != "" {
			prog := in.program(hash)
			if prog == nil {
				return "no script known for strategy " + hash
			}
			inst, ierr := prog.New(a.M, a.K, a.F)
			job, err = engine.ExactRatio{Strategy: inst, Faults: a.F, Horizon: a.Horizon}, ierr
		} else {
			var sc registry.Scenario
			if sc, err = registry.Get(a.Scenario); err == nil {
				job, err = sc.VerifyJob(ctx, registry.Request{M: a.M, K: a.K, F: a.F, Horizon: a.Horizon})
			}
		}
		if err != nil {
			return "verify job: " + err.Error()
		}
		r, err := eng.Run(ctx, job)
		if err != nil {
			return "engine.Run: " + err.Error()
		}
		if !same(float64(a.Value), r.Value) {
			return fmt.Sprintf("value %v, recomputed %v", float64(a.Value), r.Value)
		}
	case loadgen.OpSimulate:
		var t server.SimulateTable
		if err := json.Unmarshal(s.body, &t); err != nil {
			return err.Error()
		}
		sc, err := registry.Get(t.Scenario)
		if err != nil {
			return err.Error()
		}
		req := simRequest(q)
		for _, row := range t.Rows {
			rq := req
			rq.Dist = row.Dist
			job, err := sc.SimulateJob(ctx, rq)
			if err != nil {
				return "simulate job: " + err.Error()
			}
			r, err := eng.Run(ctx, job)
			if err != nil {
				return "engine.Run: " + err.Error()
			}
			if !same(float64(row.Value), r.Value) {
				return fmt.Sprintf("row at distance %v: value %v, recomputed %v", row.Dist, float64(row.Value), r.Value)
			}
		}
	}
	return ""
}

// simRequest reads a /v1/simulate query into a registry request.
func simRequest(q url.Values) registry.Request {
	req := registry.Request{
		M: qint(q, "m", 2), K: qint(q, "k", 0), F: qint(q, "f", -1),
		Horizon: qfloat(q, "horizon", server.DefaultSimHorizon),
		P:       qfloat(q, "p", 0),
		Samples: qint(q, "samples", 0),
	}
	if seed, err := strconv.ParseInt(q.Get("seed"), 10, 64); err == nil {
		req.Seed = seed
	}
	return req
}

// same compares two results exactly, NaN (JSON null) included.
func same(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// ndjsonRows splits an NDJSON answer into its data rows and the row
// count of its "# done rows=N" terminal (-1 when it has none).
func ndjsonRows(body []byte) (rows []string, done int) {
	done = -1
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# done rows="):
			if n, err := strconv.Atoi(strings.TrimPrefix(line, "# done rows=")); err == nil {
				done = n
			}
		case strings.HasPrefix(line, "#"): // heartbeats and other status comments
		default:
			rows = append(rows, line)
		}
	}
	return rows, done
}

// query parses the query string of a plan path.
func query(path string) url.Values {
	_, raw, _ := strings.Cut(path, "?")
	q, _ := url.ParseQuery(raw) // generated paths always parse
	return q
}

func qint(q url.Values, key string, def int) int {
	if v, err := strconv.Atoi(q.Get(key)); err == nil {
		return v
	}
	return def
}

func qfloat(q url.Values, key string, def float64) float64 {
	if v, err := strconv.ParseFloat(q.Get(key), 64); err == nil {
		return v
	}
	return def
}

// modelOf returns a query's scenario name (crash by default).
func modelOf(q url.Values) string {
	if m := q.Get("model"); m != "" {
		return m
	}
	return "crash"
}
