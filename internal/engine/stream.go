package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// streamOrdered is the shared fan-out/reorder core of SweepStream and
// RunStream: workers claim indexes 0..n-1, eval each, and store the
// result in its index's slot under one mutex. The worker whose result
// completes the contiguous prefix sends that prefix into the returned
// channel, still under the mutex, so emission order is always input
// order and each result crosses exactly one channel. The channel is
// buffered to the worker count; a sender that finds it full waits for
// the consumer (or ctx) while holding the mutex, so every other worker
// stops at its next store and a slow consumer bounds how far the pool
// runs ahead. eval returning ok=false means "not a result" (the stream
// was cancelled out from under the evaluation) and stops that worker.
// The last worker to stop closes the channel; consumers must drain it
// (or cancel ctx) or the workers leak.
func streamOrdered[T any](ctx context.Context, workers, n int, eval func(context.Context, int) (T, bool)) <-chan T {
	if workers > n {
		workers = n
	}
	out := make(chan T, workers)
	if n == 0 {
		close(out)
		return out
	}
	type slot struct {
		v     T
		ready bool
	}
	var (
		next  atomic.Int64
		mu    sync.Mutex
		slots = make([]slot, n)
		emit  int // the first index not yet sent
		live  = workers
	)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() {
				mu.Lock()
				if live--; live == 0 {
					close(out)
				}
				mu.Unlock()
			}()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, ok := eval(ctx, i)
				if !ok {
					return
				}
				mu.Lock()
				slots[i] = slot{v, true}
				for emit < n && slots[emit].ready {
					select {
					case out <- slots[emit].v:
					case <-ctx.Done():
						// The consumer is gone. emit stays put, so
						// nothing after the delivered prefix is sent.
						mu.Unlock()
						return
					}
					slots[emit] = slot{}
					emit++
				}
				mu.Unlock()
			}
		}()
	}
	return out
}

// SweepStream evaluates the cells on the worker pool and emits each
// CellResult as soon as it — and every cell before it — has finished.
// Emission order is always input order: workers store out-of-order
// completions in per-index slots and the worker that completes the
// contiguous prefix sends it, so a consumer printing rows as they
// arrive produces exactly the bytes of the batch path, just
// incrementally.
//
// Failed cells are emitted like successful ones, with the *CellError in
// CellResult.Err — a sweep never throws away the progress it has made.
// Cancelling ctx stops the stream cooperatively: workers stop claiming
// cells, in-flight evaluations abort at their next cancellation check,
// and the channel closes after the already-completed contiguous prefix
// has been delivered. The channel is always closed; consumers must
// drain it (or cancel ctx) or the workers leak.
func (e *Engine) SweepStream(ctx context.Context, cells []Cell, horizon float64) <-chan CellResult {
	return streamOrdered(ctx, e.workers, len(cells), func(ctx context.Context, i int) (CellResult, bool) {
		r := e.evalCell(ctx, cells[i], horizon)
		if r.Err != nil && ctx.Err() != nil && errors.Is(r.Err, ctx.Err()) {
			// The cell did not fail — the stream was cancelled out from
			// under it. Not a result.
			return CellResult{}, false
		}
		return r, true
	})
}

// JobResult pairs a job's input index with its engine result — one
// element of a RunStream.
type JobResult struct {
	// Index is the job's position in the input slice.
	Index int
	// Result is the job's outcome (zero when Err is non-nil and the
	// job produced nothing).
	Result Result
	// Err is the job's failure, nil on success. Like sweep cells,
	// failed jobs are emitted rather than aborting the stream.
	Err error
}

// RunStream evaluates jobs through the cache on the worker pool and
// emits each JobResult in input order as soon as it — and every job
// before it — has finished, sharing the reorder core of SweepStream.
// Failed jobs are emitted with Err set; the stream keeps
// going. Cancelling ctx stops the stream cooperatively and closes the
// channel after the completed contiguous prefix. The channel is always
// closed; consumers must drain it (or cancel ctx).
//
// The stream's uncached PFaultyTrials jobs that differ only in their
// distance are linked to one evaluation that lives as long as the
// stream: the first of them to run samples every linked distance from
// the one draw sequence they all share, and the others return their
// value. Each still runs, caches and reports as its lone job would,
// bit for bit.
func (e *Engine) RunStream(ctx context.Context, jobs []Job) <-chan JobResult {
	jobs = e.linkPFaulty(jobs)
	return streamOrdered(ctx, e.workers, len(jobs), func(ctx context.Context, i int) (JobResult, bool) {
		res, err := e.Run(ctx, jobs[i])
		if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			// Cancelled out from under the job, not a job failure.
			return JobResult{}, false
		}
		return JobResult{Index: i, Result: res, Err: err}, true
	})
}
