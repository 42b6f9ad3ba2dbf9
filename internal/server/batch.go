// batch.go is the /v1/batch multiplex endpoint: one POST carries a
// JSON array of heterogeneous sub-requests — each a {"op": ...}
// object naming its scenario and parameters — and one response carries
// every answer, so a client filling a dashboard or sweeping a custom
// parameter set pays one round trip instead of N.
//
//	POST /v1/batch
//	[
//	  {"op": "bounds",   "m": 2, "k": 3, "f": 1},
//	  {"op": "verify",   "m": 2, "k": 3, "f": 1, "horizon": 20000},
//	  {"op": "simulate", "model": "pfaulty-halfline", "m": 1, "k": 1, "f": 0, "p": 0.25}
//	]
//
// Each sub-request is prepared by its single endpoint's prepare function
// (boundsCall, verifyCall, simulateCall) before the batch is admitted,
// and its answer runs and shapes exactly as that endpoint's would, so a
// row's result field is the same JSON the single endpoint would have
// answered (compacted). Sub-requests fail independently: a bad or
// erroring item becomes a row with an error message and the status its
// single endpoint would have returned, and the remaining items still
// run.
//
// The response is NDJSON (one BatchRow per line, streamed as each item
// finishes, with the sweep stream's heartbeat/status-comment protocol)
// when the client asks for it via Accept: application/x-ndjson or
// ?format=ndjson; otherwise a single BatchAnswer JSON document. Both
// shapes marshal the same BatchRow values in the same order. Items
// evaluate concurrently (their compute is bounded by the engine's
// worker pool) and rows emit in input order; the whole batch runs
// under one compute budget and one slot of the heaviest class among the
// items that prepared, and items the budget cuts off before they start
// are reported as rows with the timeout status — a slow item never
// poisons a fast one.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
)

// MaxBatchItems caps the sub-requests of one /v1/batch call.
const MaxBatchItems = 64

// BatchRow is one sub-request's outcome in a /v1/batch response.
type BatchRow struct {
	// Index is the sub-request's position in the posted array.
	Index int `json:"index"`
	// Op echoes the sub-request's operation ("bounds", "verify",
	// "simulate"; verbatim for unknown ops).
	Op string `json:"op"`
	// Status is the HTTP status the corresponding single-endpoint
	// request would have answered (200 on success).
	Status int `json:"status"`
	// Result is the compacted single-endpoint answer payload; absent
	// when the sub-request failed.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure message; absent on success.
	Error string `json:"error,omitempty"`
}

// BatchAnswer is the non-streaming payload of /v1/batch.
type BatchAnswer struct {
	Count  int        `json:"count"`
	Failed int        `json:"failed"`
	Rows   []BatchRow `json:"rows"`
}

// batchItem is one prepared sub-request: its call, or — when status is
// set — the failed row it already is.
type batchItem struct {
	op     string
	call   call
	status int
	err    error
}

// prepareItem prepares one sub-request with its route's prepare
// function, before the batch is admitted. A failure — a field of an
// unsupported type, an unknown op, a parameter the route rejects — is
// the item's 400 row and computes nothing; a panic is its 500 row.
func (s *Server) prepareItem(item map[string]any) (it batchItem) {
	it.op, _ = item["op"].(string)
	defer func() {
		if rec := recover(); rec != nil {
			it.status, it.err = http.StatusInternalServerError, fmt.Errorf("server: computation panicked: %v", rec)
		}
	}()
	p := make(map[string]string, len(item))
	for key, val := range item {
		if key == "op" || key == "format" {
			// op routes the item; a per-item format would contradict the
			// batch's own representation.
			continue
		}
		sv, err := coerceParam(key, val)
		if err != nil {
			it.status, it.err = http.StatusBadRequest, fmt.Errorf("bad sub-request: %w", err)
			return it
		}
		p[key] = sv
	}
	// The op table. Direct calls, not a map of prepare functions: a
	// call through a function value would move every item's parameter
	// map to the heap.
	var err error
	switch it.op {
	case "bounds":
		it.call, err = s.boundsCall(p)
	case "verify":
		it.call, err = s.verifyCall(p)
	case "simulate":
		it.call, err = s.simulateCall(p)
	default:
		err = fmt.Errorf("unknown op %q (want bounds, verify or simulate)", it.op)
	}
	if err != nil {
		it.status, it.err = http.StatusBadRequest, err
	}
	return it
}

// prepareBatch prepares every sub-request and returns the class the
// batch is admitted under: the heaviest among the items that prepared
// (one simulate item makes the whole batch heavy; it holds one slot for
// all items). An item that failed to prepare computes nothing.
func (s *Server) prepareBatch(raw []map[string]any) ([]batchItem, registry.Cost) {
	items := make([]batchItem, len(raw))
	class := registry.CostClosedForm
	for i, item := range raw {
		items[i] = s.prepareItem(item)
		if items[i].err == nil && items[i].call.class.Heavier(class) {
			class = items[i].call.class
		}
	}
	return items, class
}

// batchRow runs one prepared sub-request's answer under the batch's
// budget context. Every failure mode — a failed prepare, a compute
// error, a panicking scenario callback, an exhausted budget — lands in
// the row, never in the transport: per-sub-request error isolation is
// the endpoint's contract.
func (s *Server) batchRow(ctx context.Context, index int, it *batchItem) (row BatchRow) {
	row = BatchRow{Index: index, Op: it.op, Status: http.StatusOK}
	fail := func(status int, err error) BatchRow {
		row.Status, row.Error, row.Result = status, err.Error(), nil
		return row
	}
	if it.err != nil {
		return fail(it.status, it.err)
	}
	defer func() {
		if rec := recover(); rec != nil {
			row = fail(http.StatusInternalServerError, fmt.Errorf("server: computation panicked: %v", rec))
		}
	}()
	if err := ctx.Err(); err != nil {
		// The batch's budget ran out before this item started.
		if errors.Is(err, context.Canceled) {
			return fail(499, fmt.Errorf("%w before sub-request %d started", errClientGone, index))
		}
		return fail(http.StatusGatewayTimeout, fmt.Errorf("%w before sub-request %d started", errTimeout, index))
	}
	v := it.call.value
	if it.call.work != nil {
		var err error
		if v, err = it.call.work.answer(ctx); err != nil {
			s.noteStrategyErr(err)
			return fail(computeStatus(err), err)
		}
	}
	// Encode through pooled scratch; the retained RawMessage must be a
	// copy, because the pooled buffer is recycled for the next item.
	enc := getEncoder()
	defer putEncoder(enc)
	data, err := enc.encodeCompact(v)
	if err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	row.Result = append(json.RawMessage(nil), data...)
	return row
}

// handleBatch is the /v1/batch endpoint.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, errors.New("batch requests must be POSTed"))
		return
	}
	// Control parameters (timeout_ms, format) travel in the query
	// string; the body is the sub-request array.
	p, err := queryParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// A malformed document fails the whole request (there is nothing to
	// isolate yet); a malformed item is its own row.
	var raw []map[string]any
	if err := decodeBody(r.Body, &raw); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: want an array of sub-request objects: %w", err))
		return
	}
	if len(raw) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("empty batch: the array must carry at least one sub-request"))
		return
	}
	if len(raw) > MaxBatchItems {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("batch of %d sub-requests exceeds the cap %d", len(raw), MaxBatchItems))
		return
	}
	items, class := s.prepareBatch(raw)
	s.admit(w, r, p, class, func(ctx context.Context, w http.ResponseWriter, budget time.Duration) error {
		// One worker per item, so every item starts at once (their heavy
		// compute is still bounded by the engine's pool). The fan-out is
		// detached from the budget, so every row is emitted — batchRow
		// turns a spent budget into a 499/504 row. Only the NDJSON
		// fan-out outlives its consumer, so only it is stopped when the
		// handler returns, even if the writer gave up early; Ordered
		// returns after its last emit.
		rowsCtx := context.WithoutCancel(ctx)
		row := func(i int) (BatchRow, bool) { return s.batchRow(ctx, i, &items[i]), true }
		if wantsNDJSON(r, p) {
			rowsCtx, stop := context.WithCancel(rowsCtx)
			defer stop()
			enc := getEncoder()
			defer putEncoder(enc)
			ndjsonStream(ctx, w, s.cfg.Heartbeat, budget, len(items), engine.OrderedChan(rowsCtx, len(items), len(items), row),
				func(b []byte, br BatchRow) ([]byte, error) {
					return enc.appendCompact(b, br)
				})
			return nil
		}
		ans := &BatchAnswer{Count: len(items), Rows: make([]BatchRow, 0, len(items))}
		engine.Ordered(rowsCtx, len(items), len(items), row, func(_ int, br BatchRow) bool {
			if br.Error != "" {
				ans.Failed++
			}
			ans.Rows = append(ans.Rows, br)
			return true
		})
		writeJSON(w, http.StatusOK, ans)
		return nil
	})
}
