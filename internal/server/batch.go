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
// Each sub-request is evaluated exactly as its single endpoint would
// evaluate it — through the same parsing, validation, compute and
// shaping functions — so a row's result field is the same JSON the
// single endpoint would have answered (compacted). Sub-requests fail
// independently: a bad or erroring item becomes a row with an error
// message and the status its single endpoint would have returned,
// and the remaining items still run.
//
// The response is NDJSON (one BatchRow per line, streamed as each item
// finishes, with the sweep stream's heartbeat/status-comment protocol)
// when the client asks for it via Accept: application/x-ndjson or
// ?format=ndjson; otherwise a single BatchAnswer JSON document. Both
// shapes marshal the same BatchRow values in the same order. Items
// evaluate concurrently (their compute is bounded by the engine's
// worker pool) and rows emit in input order; the whole batch runs
// under one compute budget and one MaxInflight slot, and items the
// budget cuts off before they start are reported as rows with the
// timeout status — a slow item never poisons a fast one.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/engine"
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

// batchItems parses the posted sub-request array into per-item
// parameter maps plus their ops. A malformed document fails the whole
// request (there is nothing to isolate yet); a malformed ITEM is
// reported per row by the caller, so items are kept as raw maps here.
func batchItems(r *http.Request) ([]map[string]any, error) {
	var items []map[string]any
	if err := decodeBody(r.Body, &items); err != nil {
		return nil, fmt.Errorf("bad JSON body: want an array of sub-request objects: %w", err)
	}
	if len(items) == 0 {
		return nil, errors.New("empty batch: the array must carry at least one sub-request")
	}
	if len(items) > MaxBatchItems {
		return nil, fmt.Errorf("batch of %d sub-requests exceeds the cap %d", len(items), MaxBatchItems)
	}
	return items, nil
}

// batchRow evaluates one sub-request under the batch's budget context.
// Every failure mode — unknown op, bad parameters, compute error, a
// panicking scenario callback, an exhausted budget — lands in the row,
// never in the transport: per-sub-request error isolation is the
// endpoint's contract.
func (s *Server) batchRow(ctx context.Context, index int, item map[string]any) (row BatchRow) {
	row = BatchRow{Index: index, Status: http.StatusOK}
	if op, ok := item["op"].(string); ok {
		row.Op = op
	}
	defer func() {
		if rec := recover(); rec != nil {
			row.Status = http.StatusInternalServerError
			row.Error = fmt.Sprintf("server: computation panicked: %v", rec)
			row.Result = nil
		}
	}()
	fail := func(status int, err error) BatchRow {
		row.Status = status
		row.Error = err.Error()
		return row
	}
	if err := ctx.Err(); err != nil {
		// The batch's budget ran out before this item started.
		if errors.Is(err, context.Canceled) {
			return fail(499, fmt.Errorf("%w before sub-request %d started", errClientGone, index))
		}
		return fail(http.StatusGatewayTimeout, fmt.Errorf("%w before sub-request %d started", errTimeout, index))
	}
	p := make(map[string]string, len(item))
	for key, val := range item {
		if key == "op" || key == "format" {
			// op routed above; a per-item format would contradict the
			// batch's own representation.
			continue
		}
		sv, err := coerceParam(key, val)
		if err != nil {
			return fail(http.StatusBadRequest, fmt.Errorf("bad sub-request: %w", err))
		}
		p[key] = sv
	}
	var (
		v   any
		err error
	)
	switch row.Op {
	case "bounds":
		// The bounds endpoint maps every failure to 400 (it runs no
		// compute); mirror that here.
		if v, err = s.boundsPayload(p); err != nil {
			return fail(http.StatusBadRequest, err)
		}
	case "verify":
		sc, req, inst, verr := s.verifyRequest(p)
		if verr != nil {
			return fail(http.StatusBadRequest, verr)
		}
		if v, err = s.verifyAnswer(ctx, sc, req, inst); err != nil {
			s.noteStrategyErr(err)
			return fail(computeStatus(err), err)
		}
	case "simulate":
		sc, req, points, serr := s.simulateRequest(p)
		if serr != nil {
			return fail(http.StatusBadRequest, serr)
		}
		if v, err = s.simulateAnswer(ctx, sc, req, points); err != nil {
			return fail(computeStatus(err), err)
		}
	default:
		return fail(http.StatusBadRequest, fmt.Errorf("unknown op %q (want bounds, verify or simulate)", row.Op))
	}
	// Encode through pooled scratch; the retained RawMessage must be a
	// copy, because the pooled buffer is recycled for the next item.
	enc := getEncoder()
	data, err := enc.encodeCompact(v)
	if err != nil {
		putEncoder(enc)
		return fail(http.StatusInternalServerError, err)
	}
	row.Result = append(json.RawMessage(nil), data...)
	putEncoder(enc)
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
	items, err := batchItems(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.admit(w, r, p, s.batchClass(items), func(ctx context.Context, budget time.Duration) error {
		// One worker per item, so every item starts at once (their heavy
		// compute is still bounded by the engine's pool). The fan-out is
		// detached from the budget, so every row is emitted — batchRow
		// turns a spent budget into a 499/504 row — and stopped when the
		// handler returns, even if the NDJSON writer gave up early.
		rowsCtx, stop := context.WithCancel(context.WithoutCancel(ctx))
		defer stop()
		row := func(i int) (BatchRow, bool) { return s.batchRow(ctx, i, items[i]), true }
		if wantsNDJSON(r, p) {
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
