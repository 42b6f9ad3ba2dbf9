package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Ordered is the engine's one fan-out: it runs eval(0), ..., eval(n-1)
// on up to workers goroutines, the caller's among them, and hands each
// result to emit in index order, so whatever emit builds is independent
// of scheduling. workers = 1 evaluates every index in order on the
// caller; workers <= 0 selects runtime.GOMAXPROCS(0), as in New.
//
// Workers claim indexes from one counter. emit runs under one mutex, in
// the worker whose result completes the contiguous prefix, for that
// result and every result parked after it. So emit is never concurrent,
// and a blocking emit holds every other worker at its next store: a
// slow consumer bounds how far the pool runs ahead.
//
// eval returning ok=false stops that worker; its index, and so all
// after it, is never emitted. emit returning false stops every worker,
// and the prefix stays on the refused index. A cancelled ctx stops the
// claiming; started evaluations finish and their contiguous prefix is
// still emitted. No eval call outlives Ordered.
func Ordered[T any](ctx context.Context, workers, n int, eval func(i int) (T, bool), emit func(i int, v T) bool) {
	f := startFanout(ctx, poolSize(workers, n), n, eval, emit)
	f.work()
	f.wg.Wait()
}

// OrderedChan is Ordered for channel consumers: it sends each result
// into the returned channel in index order and closes the channel once
// every worker has returned. Its helpers start on the caller's
// goroutine, so they run at once (started from the closing goroutine
// they made a cold 2-worker stream slower), and its last worker runs
// on a goroutine of its own that closes the channel. A send waits for
// the consumer or ctx, so a consumer must drain the channel or cancel
// ctx; a cancelled stream ends after the results already sent. The
// buffer, one per worker, is how far the pool runs ahead before a
// send, made under Ordered's mutex, holds it.
func OrderedChan[T any](ctx context.Context, workers, n int, eval func(i int) (T, bool)) <-chan T {
	workers = poolSize(workers, n)
	out := make(chan T, workers)
	f := startFanout(ctx, workers, n, eval, func(_ int, v T) bool {
		select {
		case out <- v:
			return true
		case <-ctx.Done():
			return false
		}
	})
	go func() {
		defer close(out)
		f.work()
		f.wg.Wait()
	}()
	return out
}

// poolSize resolves a worker count for n indexes: workers <= 0 selects
// runtime.GOMAXPROCS(0), and the count is at least 1 and at most n.
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// startFanout starts the helper workers of a fan-out; the caller runs
// the last one (work) and then waits on wg.
func startFanout[T any](ctx context.Context, workers, n int, eval func(int) (T, bool), emit func(int, T) bool) *fanout[T] {
	f := &fanout[T]{ctx: ctx, n: n, eval: eval, emit: emit}
	f.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go f.work()
	}
	return f
}

// fanout is the state one fan-out shares between its workers.
type fanout[T any] struct {
	ctx  context.Context
	n    int
	eval func(int) (T, bool)
	emit func(int, T) bool

	next    atomic.Int64 // the next index to claim
	stopped atomic.Bool  // emit refused a result
	wg      sync.WaitGroup
	mu      sync.Mutex // guards slots, head and every emit call
	slots   []slot[T]  // parked out-of-order results, made at the first one
	head    int        // the first index not yet emitted
}

// slot holds one out-of-order result until the prefix reaches it.
type slot[T any] struct {
	v     T
	ready bool
}

// work is one worker: it claims indexes until they run out, eval
// refuses one, emit refuses one or ctx ends.
func (f *fanout[T]) work() {
	defer f.wg.Done()
	for !f.stopped.Load() && f.ctx.Err() == nil {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		v, ok := f.eval(i)
		if !ok {
			return
		}
		f.mu.Lock()
		if i != f.head {
			if f.slots == nil {
				f.slots = make([]slot[T], f.n)
			}
			f.slots[i] = slot[T]{v, true}
		}
		for i == f.head {
			if !f.emit(i, v) {
				f.stopped.Store(true)
				break
			}
			if f.head++; f.head < f.n && f.slots != nil && f.slots[f.head].ready {
				i, v, f.slots[f.head] = f.head, f.slots[f.head].v, slot[T]{}
			}
		}
		f.mu.Unlock()
	}
}

// SweepStream evaluates the cells on the worker pool and emits each
// CellResult, in input order, as soon as it — and every cell before
// it — has finished (OrderedChan), so a consumer printing rows as they
// arrive produces exactly the bytes of the batch path, incrementally.
// Failed cells are emitted like successful ones, with the *CellError in
// CellResult.Err. Cancelling ctx stops the stream cooperatively: no new
// cells are claimed, in-flight evaluations abort at their next check,
// and the channel closes after the completed contiguous prefix. The
// channel is always closed; consumers must drain it or cancel ctx.
func (e *Engine) SweepStream(ctx context.Context, cells []Cell, horizon float64) <-chan CellResult {
	return OrderedChan(ctx, e.workers, len(cells), func(i int) (CellResult, bool) {
		r := e.evalCell(ctx, cells[i], horizon)
		return r, !cutOff(ctx, r.Err)
	})
}

// cutOff reports whether err is ctx's own cancellation: the evaluation
// did not fail, the stream was cancelled out from under it, so it is
// not a result.
func cutOff(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
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

// RunStream is SweepStream for jobs: it runs them through the cache on
// the worker pool and emits each JobResult in input order, failed jobs
// with Err set, under the same cancellation and draining rules.
//
// The stream's uncached PFaultyTrials jobs that differ only in their
// distance are linked to one evaluation that lives as long as the
// stream: the first of them to run samples every linked distance from
// the one draw sequence they all share, and the others return their
// value. Each still runs, caches and reports as its lone job would,
// bit for bit.
func (e *Engine) RunStream(ctx context.Context, jobs []Job) <-chan JobResult {
	jobs = e.linkPFaulty(jobs)
	return OrderedChan(ctx, e.workers, len(jobs), func(i int) (JobResult, bool) {
		res, err := e.run(ctx, jobs[i], true)
		return JobResult{Index: i, Result: res, Err: err}, !cutOff(ctx, err)
	})
}
