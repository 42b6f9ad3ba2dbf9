package engine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/bounds"
)

// Cell is one (m, k, f) parameter point of a sweep grid.
type Cell struct {
	M, K, F int
}

// CellError reports which sweep cell failed, wrapping the underlying
// job error. Callers use errors.As to recover the failing (m, k, f)
// programmatically:
//
//	var ce *engine.CellError
//	if errors.As(err, &ce) { retry(ce.Cell) }
type CellError struct {
	Cell Cell
	Err  error
}

// Error implements error.
func (e *CellError) Error() string {
	return fmt.Sprintf("engine: cell (%d,%d,%d): %v", e.Cell.M, e.Cell.K, e.Cell.F, e.Err)
}

// Unwrap exposes the underlying job error to errors.Is / errors.As.
func (e *CellError) Unwrap() error { return e.Err }

// CellResult pairs a cell with its regime, closed-form bound, and (for
// search-regime cells) the measured exact worst-case ratio. A failed
// cell carries its *CellError in Err; the other fields hold whatever
// was computed before the failure.
type CellResult struct {
	Cell Cell
	// Regime classifies the cell (unsolvable / trivial / search).
	Regime bounds.Regime
	// Closed is the closed-form A(m, k, f); NaN for unsolvable cells.
	Closed float64
	// Eval is the measured evaluation of the optimal strategy; only
	// populated when Evaluated.
	Eval adversary.Evaluation
	// Evaluated reports whether the cell was measured (search regime).
	Evaluated bool
	// Err is the cell's *CellError when the evaluation failed; nil for
	// successful cells. Sweeps keep going past failed cells, so a batch
	// can mix both.
	Err error
}

// RelGap returns |measured - closed| / closed for evaluated cells and
// NaN otherwise.
func (c CellResult) RelGap() float64 {
	if !c.Evaluated {
		return math.NaN()
	}
	return math.Abs(c.Eval.WorstRatio-c.Closed) / c.Closed
}

// Grid enumerates the (m, k, f) cells with k in 1..kMax and f in
// 0..k-1 at fixed m, in row-major (k outer, f inner) order — the
// Theorem 1 (m = 2) and Theorem 6 table order used by cmd/experiments
// and cmd/bounds.
func Grid(m, kMax int) []Cell {
	var cells []Cell
	for k := 1; k <= kMax; k++ {
		for f := 0; f < k; f++ {
			cells = append(cells, Cell{M: m, K: k, F: f})
		}
	}
	return cells
}

// evalCell computes one sweep cell: regime classification, closed-form
// bound, and — in the search regime — the measured exact worst-case
// ratio through the job cache. Failures land in the result's Err
// (wrapped as *CellError) rather than aborting the caller's loop.
func (e *Engine) evalCell(ctx context.Context, c Cell, horizon float64) CellResult {
	out := CellResult{Cell: c, Closed: math.NaN()}
	regime, err := bounds.Classify(c.M, c.K, c.F)
	if err != nil {
		out.Err = &CellError{Cell: c, Err: err}
		return out
	}
	out.Regime = regime
	if regime != bounds.RegimeUnsolvable {
		closed, err := bounds.AMKF(c.M, c.K, c.F)
		if err != nil {
			out.Err = &CellError{Cell: c, Err: err}
			return out
		}
		out.Closed = closed
	}
	if regime != bounds.RegimeSearch {
		return out
	}
	res, err := e.run(ctx, VerifyUpper{M: c.M, K: c.K, F: c.F, Horizon: horizon}, true)
	if err != nil {
		out.Err = &CellError{Cell: c, Err: err}
		return out
	}
	out.Eval = res.Eval
	out.Evaluated = true
	return out
}

// Sweep classifies every cell, computes the closed-form bound, and
// measures the exact worst-case ratio of the optimal strategy for each
// search-regime cell at the horizon, fanning the evaluations out over
// the worker pool. Results come back in input order regardless of the
// pool size, so tables built from a parallel sweep are byte-identical
// to the sequential (workers = 1) path.
//
// A failing cell does not abort the sweep: its result carries a
// *CellError in Err and the remaining cells still run. The returned
// error is the lowest-index cell failure (nil when every cell
// succeeded), so callers keep the familiar one-error signature without
// losing the partial results. Cancelling ctx stops the sweep between
// cells and wins over cell failures in the returned error; cells the
// cancellation prevented from running are zero-valued in the slice.
//
// Sweep shares evalCell and the Ordered fan-out with SweepStream, so
// both produce identical per-cell results; Sweep collects them into a
// slice where SweepStream sends them into a channel.
func (e *Engine) Sweep(ctx context.Context, cells []Cell, horizon float64) ([]CellResult, error) {
	out := make([]CellResult, len(cells))
	var err error
	// Every claimed cell yields a result: cell failures ride in the
	// results, so every cell is attempted regardless.
	Ordered(ctx, e.workers, len(cells), func(i int) (CellResult, bool) {
		return e.evalCell(ctx, cells[i], horizon), true
	}, func(i int, r CellResult) bool {
		out[i] = r
		if err == nil {
			err = r.Err
		}
		return true
	})
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	return out, err
}
