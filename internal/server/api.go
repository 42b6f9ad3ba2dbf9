// api.go holds the response structs and Markdown renderers shared by
// the HTTP endpoints and the CLIs. cmd/bounds and cmd/experiments build
// their tables through ComputeBoundsTable / ComputeSweep and print the
// renderers' output, so a /v1/bounds or /v1/sweep answer in markdown
// format is byte-identical to the corresponding CLI table — one source
// of truth for every rendering of the paper's numbers.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/report"
)

// Float is a float64 that marshals NaN and ±Inf as JSON null (plain
// encoding/json rejects them). The regime/evaluated fields of the
// carrying struct tell the two apart where it matters.
type Float float64

// MarshalJSON implements json.Marshaler. It writes the bytes
// json.Marshal(float64) writes, or null for NaN and ±Inf (appendFloat).
func (f Float) MarshalJSON() ([]byte, error) {
	return appendFloat(make([]byte, 0, 24), float64(f)), nil
}

// appendFloat appends v as json.Marshal(float64) writes it, by
// encoding/json's rules, without re-entering the encoder: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 on with a one-digit
// negative exponent unpadded. NaN and ±Inf, which encoding/json
// rejects, append null.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-09 -> e-9
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as json.Marshal(string) writes it. A string
// of printable ASCII that encoding/json leaves alone (no quote,
// backslash or HTML-escaped <, >, &) is copied between quotes; any
// other string goes through json.Marshal, which owns the escaping
// rules for control bytes, non-ASCII and invalid UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// UnmarshalJSON implements json.Unmarshaler (null -> NaN).
func (f *Float) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// BoundsRow is one (k, f) line of a bounds table.
type BoundsRow struct {
	K         int     `json:"k"`
	F         int     `json:"f"`
	Q         int     `json:"q"`
	Rho       float64 `json:"rho"`
	Regime    string  `json:"regime"`
	Lambda    Float   `json:"lambda"`
	AlphaStar Float   `json:"alpha_star"` // NaN (null) outside the search regime
}

// BoundsTable is the closed-form bound grid for one scenario — the
// payload of /v1/bounds in grid mode and the table cmd/bounds prints.
type BoundsTable struct {
	Scenario string      `json:"scenario"`
	M        int         `json:"m"`
	KMax     int         `json:"kmax"`
	Rows     []BoundsRow `json:"rows"`
}

// cellBound is the per-cell evaluation shared by the grid table and
// the single-cell /v1/bounds answer — the one place that encodes
// "tolerate the lower-bound error only when unsolvable" and "alpha*
// exists only in the search regime".
type cellBound struct {
	Regime    bounds.Regime
	Lambda    float64 // scenario lower bound; +Inf when unsolvable
	Rho       float64
	AlphaStar float64 // NaN outside the search regime
}

// computeCellBound evaluates one (m, k, f) cell through the scenario.
func computeCellBound(sc registry.Scenario, m, k, f int) (cellBound, error) {
	if err := sc.Validate(m, k, f); err != nil {
		return cellBound{}, err
	}
	regime, err := bounds.Classify(m, k, f)
	if err != nil {
		return cellBound{}, err
	}
	lambda, lerr := sc.LowerBound(m, k, f)
	if lerr != nil && regime != bounds.RegimeUnsolvable {
		return cellBound{}, lerr
	}
	rho, err := bounds.Rho(m, k, f)
	if err != nil {
		return cellBound{}, err
	}
	cb := cellBound{Regime: regime, Lambda: lambda, Rho: rho, AlphaStar: math.NaN()}
	if regime == bounds.RegimeSearch {
		cb.AlphaStar, err = bounds.OptimalAlpha(m*(f+1), k)
		if err != nil {
			return cellBound{}, err
		}
	}
	return cb, nil
}

// ComputeBoundsTable evaluates the scenario's lower bound over the
// (k, f) grid k in 1..kmax, f in 0..k-1. Cells the scenario's Validate
// rejects (e.g. the probabilistic stub outside its scope) are skipped.
func ComputeBoundsTable(sc registry.Scenario, m, kmax int) (*BoundsTable, error) {
	if m < 1 || kmax < 1 {
		return nil, fmt.Errorf("need m >= 1 and kmax >= 1, got m=%d kmax=%d", m, kmax)
	}
	t := &BoundsTable{Scenario: sc.Name, M: m, KMax: kmax}
	for k := 1; k <= kmax; k++ {
		for f := 0; f < k; f++ {
			if err := sc.Validate(m, k, f); err != nil {
				continue
			}
			cb, err := computeCellBound(sc, m, k, f)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, BoundsRow{
				K: k, F: f, Q: m * (f + 1), Rho: cb.Rho,
				Regime: cb.Regime.String(), Lambda: Float(cb.Lambda), AlphaStar: Float(cb.AlphaStar),
			})
		}
	}
	return t, nil
}

// Markdown renders the table; for the crash scenario the bytes are
// identical to the historical cmd/bounds output.
func (t *BoundsTable) Markdown() string {
	title := fmt.Sprintf("A(m=%d, k, f): optimal competitive ratio (Theorems 1 and 6)", t.M)
	if t.Scenario != "crash" {
		title = fmt.Sprintf("A(m=%d, k, f) lower bound — scenario %q", t.M, t.Scenario)
	}
	tb := report.NewTable(title, "k", "f", "q", "rho", "regime", "lambda", "alpha*")
	for _, row := range t.Rows {
		alphaCell := "-"
		if !math.IsNaN(float64(row.AlphaStar)) {
			alphaCell = report.Fmt(float64(row.AlphaStar), 6)
		}
		tb.AddRow(
			strconv.Itoa(row.K), strconv.Itoa(row.F), strconv.Itoa(row.Q),
			report.Fmt(row.Rho, 4), row.Regime, report.Fmt(float64(row.Lambda), 9), alphaCell,
		)
	}
	return tb.Markdown()
}

// SweepCell is one measured (m, k, f) point of a sweep. A cell whose
// evaluation failed carries the message in Error; the sweep's other
// cells are unaffected (partial progress is never thrown away).
type SweepCell struct {
	M         int    `json:"m"`
	K         int    `json:"k"`
	F         int    `json:"f"`
	Q         int    `json:"q"`
	Regime    string `json:"regime"`
	Closed    Float  `json:"closed"`
	Evaluated bool   `json:"evaluated"`
	Measured  Float  `json:"measured"`
	RelGap    Float  `json:"rel_gap"`
	WorstRay  int    `json:"worst_ray,omitempty"`
	WorstX    Float  `json:"worst_x,omitempty"`
	Error     string `json:"error,omitempty"`
}

// appendJSON appends the bytes json.Marshal(c) writes, field by field
// in declaration order with the omitempty rules of the tags, without
// reflection — the NDJSON stream's row encoder.
// FuzzSweepCellMatchesEncodingJSON pins it to json.Marshal.
func (c *SweepCell) appendJSON(b []byte) []byte {
	b = append(b, `{"m":`...)
	b = strconv.AppendInt(b, int64(c.M), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(c.K), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(c.F), 10)
	b = append(b, `,"q":`...)
	b = strconv.AppendInt(b, int64(c.Q), 10)
	b = append(b, `,"regime":`...)
	b = appendString(b, c.Regime)
	b = append(b, `,"closed":`...)
	b = appendFloat(b, float64(c.Closed))
	b = append(b, `,"evaluated":`...)
	b = strconv.AppendBool(b, c.Evaluated)
	b = append(b, `,"measured":`...)
	b = appendFloat(b, float64(c.Measured))
	b = append(b, `,"rel_gap":`...)
	b = appendFloat(b, float64(c.RelGap))
	if c.WorstRay != 0 {
		b = append(b, `,"worst_ray":`...)
		b = strconv.AppendInt(b, int64(c.WorstRay), 10)
	}
	if c.WorstX != 0 { // omitempty drops ±0 only; NaN is not empty
		b = append(b, `,"worst_x":`...)
		b = appendFloat(b, float64(c.WorstX))
	}
	if c.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, c.Error)
	}
	return append(b, '}')
}

// SweepTable is the payload of /v1/sweep and the source of the E1/E4
// tables of cmd/experiments.
type SweepTable struct {
	Horizon float64     `json:"horizon"`
	Cells   []SweepCell `json:"cells"`
}

// SweepCellOf shapes one engine result as the wire/rendering struct —
// the single shaping used by the batch table, the NDJSON stream, and
// the CLI progress path, which is what keeps streamed rows
// byte-identical to batch rows.
func SweepCellOf(cr engine.CellResult) SweepCell {
	cell := SweepCell{
		M: cr.Cell.M, K: cr.Cell.K, F: cr.Cell.F, Q: cr.Cell.M * (cr.Cell.F + 1),
		Regime: cr.Regime.String(), Closed: Float(cr.Closed),
		Evaluated: cr.Evaluated,
		Measured:  Float(cr.Eval.WorstRatio), RelGap: Float(cr.RelGap()),
	}
	if cr.Evaluated {
		cell.WorstRay = cr.Eval.WorstRay
		cell.WorstX = Float(cr.Eval.WorstX)
	}
	if cr.Err != nil {
		cell.Error = cr.Err.Error()
	}
	return cell
}

// ComputeSweep runs the engine sweep and shapes the results for
// rendering and JSON. Failed cells stay in the table (with Error set)
// and the returned error is the lowest-index *engine.CellError — the
// partial table is valid alongside a non-nil error. A cancelled ctx
// returns the completed prefix with ctx's error. A non-nil observe is
// called in emission (= input) order as each cell finishes — the hook
// the CLI progress meters use.
func ComputeSweep(ctx context.Context, eng *engine.Engine, cells []engine.Cell, horizon float64, observe func(SweepCell)) (*SweepTable, error) {
	t := &SweepTable{Horizon: horizon}
	var firstErr error
	for cr := range eng.SweepStream(ctx, cells, horizon) {
		cell := SweepCellOf(cr)
		t.Cells = append(t.Cells, cell)
		if cr.Err != nil && firstErr == nil {
			firstErr = cr.Err
		}
		if observe != nil {
			observe(cell)
		}
	}
	if firstErr == nil && len(t.Cells) < len(cells) {
		firstErr = ctx.Err()
	}
	return t, firstErr
}

// markdownErrors renders the failed-cell section appended below a
// partial sweep table; empty when every cell succeeded.
func (t *SweepTable) markdownErrors() string {
	var sb strings.Builder
	for _, c := range t.Cells {
		if c.Error == "" {
			continue
		}
		if sb.Len() == 0 {
			sb.WriteString("\nerrors:\n")
		}
		fmt.Fprintf(&sb, "- cell (%d,%d,%d): %s\n", c.M, c.K, c.F, c.Error)
	}
	return sb.String()
}

// MarkdownLine renders the evaluated cells as the Theorem 1 line table
// (byte-identical to experiment E1 of cmd/experiments). Failed cells
// are listed in an errors section below the partial table.
func (t *SweepTable) MarkdownLine() string {
	tb := report.NewTable("", "k", "f", "s", "A(k,f) closed form", "measured sup ratio", "rel. gap")
	for _, c := range t.Cells {
		if !c.Evaluated {
			continue
		}
		tb.AddRow(
			strconv.Itoa(c.K), strconv.Itoa(c.F), strconv.Itoa(bounds.SlackS(c.K, c.F)),
			report.Fmt(float64(c.Closed), 9), report.Fmt(float64(c.Measured), 9),
			report.Fmt(float64(c.RelGap), 2),
		)
	}
	return tb.Markdown() + t.markdownErrors()
}

// MarkdownRays renders every successful cell as the Theorem 6 m-ray
// table (byte-identical to experiment E4 of cmd/experiments), with
// failed cells in an errors section below the partial table.
func (t *SweepTable) MarkdownRays() string {
	tb := report.NewTable("", "m", "k", "f", "q", "A(m,k,f) closed form", "measured sup ratio", "rel. gap")
	for _, c := range t.Cells {
		if c.Error != "" {
			continue
		}
		tb.AddRow(
			strconv.Itoa(c.M), strconv.Itoa(c.K), strconv.Itoa(c.F), strconv.Itoa(c.Q),
			report.Fmt(float64(c.Closed), 9), report.Fmt(float64(c.Measured), 9),
			report.Fmt(float64(c.RelGap), 2),
		)
	}
	return tb.Markdown() + t.markdownErrors()
}

// BoundsAnswer is the single-cell payload of /v1/bounds.
type BoundsAnswer struct {
	Scenario  string  `json:"scenario"`
	M         int     `json:"m"`
	K         int     `json:"k"`
	F         int     `json:"f"`
	Q         int     `json:"q"`
	Rho       float64 `json:"rho"`
	Regime    string  `json:"regime"`
	Lower     Float   `json:"lower"`
	Upper     Float   `json:"upper"` // null when no matching upper bound is known
	HasUpper  bool    `json:"has_upper"`
	AlphaStar Float   `json:"alpha_star"`
}

// VerifyAnswer is the payload of /v1/verify.
type VerifyAnswer struct {
	Scenario  string  `json:"scenario"`
	M         int     `json:"m"`
	K         int     `json:"k"`
	F         int     `json:"f"`
	Horizon   float64 `json:"horizon"`
	Value     Float   `json:"value"`
	Lower     Float   `json:"lower"`
	RelGap    Float   `json:"rel_gap"`
	Evaluated bool    `json:"evaluated"`
	WorstRay  int     `json:"worst_ray,omitempty"`
	WorstX    Float   `json:"worst_x,omitempty"`
	// Samples/Seed report the effective Monte-Carlo configuration of
	// sampled verifications (absent for deterministic ones); Clamped
	// flags a horizon-derived sample count that was clamped into the
	// supported range, with Warning spelling it out.
	Samples int    `json:"samples,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Clamped bool   `json:"clamped,omitempty"`
	Warning string `json:"warning,omitempty"`
}

// SimRow is one target-distance row of a /v1/simulate answer: the
// simulator's measured value against the scenario's closed-form
// reference at the same request. A failed row carries the message in
// Error; the other rows are unaffected.
type SimRow struct {
	Dist    float64 `json:"dist"`
	Value   Float   `json:"value"`
	Closed  Float   `json:"closed"`
	RelGap  Float   `json:"rel_gap"`
	Samples int     `json:"samples,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	Clamped bool    `json:"clamped,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// SimulateTable is the payload of /v1/simulate and the table
// cmd/searchsim -simulate prints: the scenario's simulator run over a
// deterministic log-spaced grid of target distances.
type SimulateTable struct {
	Scenario string   `json:"scenario"`
	M        int      `json:"m"`
	K        int      `json:"k"`
	F        int      `json:"f"`
	Horizon  float64  `json:"horizon"`
	Points   int      `json:"points"`
	P        float64  `json:"p,omitempty"`
	Rows     []SimRow `json:"rows"`
}

// ComputeSimulate runs the scenario's simulator over a Points-row
// log-spaced distance grid spanning [1, req.Horizon] through the
// engine (cacheable, cancellable jobs; engine.RunStream fan-out).
// Failed rows stay in the table with Error set; the returned error is
// the lowest-index row failure, so the partial table is valid
// alongside a non-nil error. A cancelled ctx returns the completed
// prefix with ctx's error.
func ComputeSimulate(ctx context.Context, eng *engine.Engine, sc registry.Scenario, req registry.Request, points int) (*SimulateTable, error) {
	dists, jobs, err := simulateJobs(ctx, sc, req, points)
	if err != nil {
		return nil, err
	}
	t := &SimulateTable{
		Scenario: sc.Name, M: req.M, K: req.K, F: req.F,
		Horizon: req.Horizon, Points: points,
		// The EFFECTIVE probability: the scenario's declared default
		// when the request leaves p unset, and nothing at all for
		// scenarios without a p parameter (a crash request carrying a
		// stray ?p= must not be labeled probability-dependent).
		P: sc.EffectiveP(req),
	}
	var firstErr error
	for jr := range eng.RunStream(ctx, jobs) {
		t.Rows = append(t.Rows, simRowOf(sc, req, dists[jr.Index], jr))
		if jr.Err != nil && firstErr == nil {
			firstErr = jr.Err
		}
	}
	if firstErr == nil && len(t.Rows) < points {
		firstErr = ctx.Err()
	}
	return t, firstErr
}

// simulateJobs builds the per-distance simulate jobs for a request:
// the log-spaced grid plus one SimulateJob per distance, constructed
// under ctx (constructors are a plugin point). Shared by the batch
// table and the NDJSON stream, so both run the same jobs.
func simulateJobs(ctx context.Context, sc registry.Scenario, req registry.Request, points int) ([]float64, []engine.Job, error) {
	if sc.SimulateJob == nil {
		return nil, nil, fmt.Errorf("%w: scenario %q has no simulator", registry.ErrNotVerifiable, sc.Name)
	}
	if points < 2 || !(req.Horizon > 1) {
		return nil, nil, fmt.Errorf("simulate needs points >= 2 and horizon > 1, got %d, %g", points, req.Horizon)
	}
	dists := engine.LogGrid(req.Horizon, points)
	jobs := make([]engine.Job, len(dists))
	for i, d := range dists {
		rowReq := req
		rowReq.Dist = d
		job, err := sc.SimulateJob(ctx, rowReq)
		if err != nil {
			return nil, nil, err
		}
		jobs[i] = job
	}
	return dists, jobs, nil
}

// simRowOf shapes one engine result as the wire/rendering row — the
// single shaping used by the batch table, the NDJSON stream, and the
// CLI, which is what keeps every representation byte-identical.
func simRowOf(sc registry.Scenario, req registry.Request, dist float64, jr engine.JobResult) SimRow {
	row := SimRow{
		Dist:  dist,
		Value: Float(jr.Result.Value), Closed: Float(nan()), RelGap: Float(nan()),
		Samples: jr.Result.Samples, Seed: jr.Result.Seed, Clamped: jr.Result.Clamped,
	}
	rowReq := req
	rowReq.Dist = dist
	closed, err := sc.ClosedForm(rowReq)
	if err == nil {
		row.Closed = Float(closed)
		if closed > 0 && jr.Err == nil {
			row.RelGap = Float((jr.Result.Value - closed) / closed)
		}
	}
	if jr.Err != nil {
		row.Value = Float(nan())
		row.Error = jr.Err.Error()
	}
	return row
}

// markdownErrors renders the failed-row section appended below a
// partial simulate table; empty when every row succeeded.
func (t *SimulateTable) markdownErrors() string {
	var sb strings.Builder
	for _, row := range t.Rows {
		if row.Error == "" {
			continue
		}
		if sb.Len() == 0 {
			sb.WriteString("\nerrors:\n")
		}
		fmt.Fprintf(&sb, "- dist %s: %s\n", report.Fmt(row.Dist, 6), row.Error)
	}
	return sb.String()
}

// Markdown renders the simulate table (byte-identical between
// cmd/searchsim -simulate and /v1/simulate?format=markdown).
func (t *SimulateTable) Markdown() string {
	title := fmt.Sprintf("simulation: %s (m=%d k=%d f=%d)", t.Scenario, t.M, t.K, t.F)
	if t.P != 0 {
		title += fmt.Sprintf(", p=%s", report.Fmt(t.P, 6))
	}
	tb := report.NewTable(title, "dist", "closed form", "simulated", "rel. gap")
	for _, row := range t.Rows {
		if row.Error != "" {
			continue
		}
		tb.AddRow(
			report.Fmt(row.Dist, 6), report.Fmt(float64(row.Closed), 9),
			report.Fmt(float64(row.Value), 9), report.Fmt(float64(row.RelGap), 2),
		)
	}
	return tb.Markdown() + t.markdownErrors()
}
