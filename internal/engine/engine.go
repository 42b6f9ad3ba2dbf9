// Package engine is the concurrent batch-evaluation substrate of the
// reproduction: a bounded worker pool, a Job abstraction for the
// library's expensive evaluations (exact adversarial ratios, grid
// ratios, upper-bound verification, randomized trials), a result cache
// keyed on the job fingerprint — a singleflight table of computations
// in progress beside an LRU of completed results — and deterministic
// batch and streaming sweeps over (m, k, f) parameter grids.
//
// Every fan-out — Sweep, RunBatch, SweepStream, RunStream and the
// callers outside the package — goes through Ordered, one claim-and-
// reorder loop that hands results to its consumer in input order, so
// output built from a parallel run is byte-identical to the sequential
// (workers = 1) path. Determinism is the design constraint everything
// else bends to: the experiment tables of cmd/experiments are
// reproduction artifacts, and a table that changes with GOMAXPROCS
// would be useless as one.
//
// Every compute entry point takes a context.Context and cancellation is
// cooperative end to end: Ordered stops claiming work between
// indexes, jobs check the context inside their long loops, and an
// in-flight singleflight computation is cancelled as soon as its last
// interested caller goes away — a timed-out request stops burning
// workers instead of running to completion for nobody. A fan-out's
// cache miss runs on the worker that claimed it, under the caller's
// context; only a lone Run detaches its computation, so that the
// caller can leave at once.
//
// Typical usage:
//
//	eng := engine.New(0) // 0 = runtime.GOMAXPROCS(0) workers
//	cells, err := eng.Sweep(ctx, engine.Grid(2, 6), 2e5)
//	res, err := eng.Run(ctx, engine.ExactRatio{Strategy: s, Faults: 1, Horizon: 1e4})
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/adversary"
	"repro/internal/solver"
)

// Errors returned by the engine.
var (
	// ErrBadParams is returned for invalid engine parameters.
	ErrBadParams = errors.New("engine: invalid parameters")
	// ErrJobPanic wraps a panic recovered from a Job's Run. The panic is
	// converted to a (memoized) error so a buggy job can neither poison
	// its flight — leaving waiters blocked on a never-closed
	// done channel — nor crash a long-lived server.
	ErrJobPanic = errors.New("engine: job panicked")
)

// Engine runs Jobs on a bounded worker pool and memoizes their results.
// The zero value is not usable; construct with New or NewWithCache.
// An Engine is safe for concurrent use.
//
// One mutex guards two maps. flights holds the computations in
// progress, one per key (singleflight): a Run of an in-flight key joins
// it instead of starting another. cache indexes an LRU list of
// completed (key, Result, error) triples; a flight's outcome enters it
// at completion, and only completed results are ever evicted. A
// computation is not an LRU member because it has no result to evict:
// its waiters need it until it finishes, and a flight nobody waits for
// any more leaves flights at once.
type Engine struct {
	workers  int
	capacity int // max completed results cached; 0 = unbounded

	// solver is the memo layer injected into every job execution's
	// context (solver.From recovers it), so sweep cells, batch items and
	// repeated requests share strategy instances and golden-section
	// bases. Engines default to the process-wide solver.Shared(): the
	// memoized values are pure functions of their keys, so sharing
	// across engines only helps.
	solver *solver.Solver

	// compSem caps concurrently executing keyed computations, detached
	// or in place, at the pool size, so abandoned non-cooperative jobs
	// cannot pile up unbounded CPU work: at most `workers` jobs execute
	// at once, and a queued computation whose context is cancelled (all
	// callers left) exits without ever running.
	compSem chan struct{}

	// mu guards flights, cache, lru and every flight's waiters.
	mu      sync.Mutex
	flights map[string]*flight
	cache   map[string]*list.Element // value *cached
	lru     *list.List               // front = most recently used *cached

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	deduped   atomic.Int64
	cancelled atomic.Int64
	inflight  atomic.Int64
}

// flight is one computation in progress: the first evaluation of a key
// owns it, later ones join it and share its outcome. Run's computation
// runs detached from any single caller, so it outlives a cancelled
// caller as long as someone still wants it — and is cancelled itself
// the moment nobody does. A fan-out's computation runs in place on its
// owner (see runHere) and is detached only if the owner's ctx cuts it
// short while others wait.
type flight struct {
	done chan struct{}
	// res and err are the outcome; written once, before done closes.
	res Result
	err error
	// waiters counts the callers that joined and have not given up;
	// guarded by Engine.mu. A caller served through done does not
	// decrement it: only an unfinished flight's count matters, and the
	// last caller to give up on one removes it from flights and
	// cancels it.
	waiters int
	// cancel aborts the detached computation. Safe to call repeatedly;
	// nil while the flight runs in place, where no joiner can be the
	// last to leave because the owner counts as a waiter.
	cancel context.CancelFunc
}

// cached is one completed result in the LRU.
type cached struct {
	key string
	res Result
	err error
}

// New returns an engine with the given worker-pool size and an
// unbounded result cache; workers <= 0 selects runtime.GOMAXPROCS(0).
// workers = 1 is the exact sequential path (Ordered evaluates every
// index in order on the calling goroutine).
func New(workers int) *Engine {
	return NewWithCache(workers, 0)
}

// NewWithCache returns an engine whose result cache holds at most
// capacity completed results, evicting the least recently used one on
// overflow (capacity <= 0 = unbounded). Long-lived servers use this to
// bound the memory of a cache fed by arbitrary request streams.
// Computations in flight do not count against the bound.
func NewWithCache(workers, capacity int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if capacity < 0 {
		capacity = 0
	}
	return &Engine{
		workers:  workers,
		capacity: capacity,
		solver:   solver.Shared(),
		compSem:  make(chan struct{}, workers),
		flights:  make(map[string]*flight),
		cache:    make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// Solver returns the engine's memoizing solver layer. Callers that
// construct jobs outside Run for an engine with a private solver
// inject it into their context with solver.With so those paths share
// the engine's memo; on the default solver.Shared() the fallback of
// solver.From already does.
func (e *Engine) Solver() *solver.Solver { return e.solver }

// CacheCapacity reports the cache bound (0 = unbounded).
func (e *Engine) CacheCapacity() int { return e.capacity }

// CacheSize reports the number of completed job results in the cache.
func (e *Engine) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lru.Len()
}

// Stats is a snapshot of the engine's cache and execution accounting.
// Hits + Misses counts every Run of a keyed job that was not abandoned
// before touching the cache; uncacheable jobs (empty Key) are not
// counted.
type Stats struct {
	// Hits counts Runs served from the cache, including Runs that joined
	// an in-flight computation of the same key.
	Hits int64
	// Misses counts Runs that had to start a computation.
	Misses int64
	// Evictions counts completed results dropped by the LRU bound.
	Evictions int64
	// Deduped counts Runs that joined an in-flight computation instead
	// of starting their own — the singleflight savings. Deduped Runs are
	// a subset of Hits.
	Deduped int64
	// Cancelled counts Runs that returned early because the caller's
	// context was cancelled (before, or while waiting for, a result).
	Cancelled int64
	// InFlight is the number of job computations executing right now —
	// the engine's worker occupancy. A cancelled request must drive this
	// back to zero within one cooperative cancellation check.
	InFlight int64
	// Size is the current number of completed results in the cache;
	// computations in flight are not counted.
	Size int
	// Capacity is the cache bound (0 = unbounded).
	Capacity int
	// Solver is the snapshot of the engine's solver memos: hits,
	// misses and resident entries of the strategy memo and the
	// golden-section base memo. The engine's solver defaults to the
	// process-wide shared instance, so these counters may advance from
	// other engines too.
	Solver solver.Stats
	// Kernel is the snapshot of the adversary kernel's amortization
	// counters: table builds and evaluator pool reuses. The kernel pool
	// is process-wide, like the counters.
	Kernel adversary.KernelStats
}

// Stats returns a snapshot of the engine counters. The counters are
// cumulative for the engine's lifetime.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Evictions: e.evictions.Load(),
		Deduped:   e.deduped.Load(),
		Cancelled: e.cancelled.Load(),
		InFlight:  e.inflight.Load(),
		Size:      e.CacheSize(),
		Capacity:  e.capacity,
		Solver:    e.solver.Stats(),
		Kernel:    adversary.ReadKernelStats(),
	}
}

// Run evaluates one job through the cache. Identical jobs (equal keys)
// compute once: concurrent duplicates join the first computation
// (singleflight) and share its result. Jobs with an empty Key are never
// cached. Deterministic job errors are memoized — a failed job fails
// the same way every time — but a cancelled computation is not, so a
// later Run recomputes.
//
// The computation is detached from any single caller: if ctx is
// cancelled while waiting, Run returns ctx.Err() immediately and the
// computation keeps running only while other callers still want it.
// When the last interested caller goes away, the job's context is
// cancelled and a cooperative job stops within one check.
func (e *Engine) Run(ctx context.Context, j Job) (Result, error) {
	return e.run(ctx, j, false)
}

// run is Run with the choice of where a miss computes: detached on a
// goroutine of its own (Run), or here, on the caller's goroutine under
// the caller's ctx (the fan-outs, whose Ordered waits for every
// evaluation anyway). Hits, joins and the counters are the same either
// way: both go through claim.
func (e *Engine) run(ctx context.Context, j Job, here bool) (Result, error) {
	if err := ctx.Err(); err != nil {
		e.cancelled.Add(1)
		return Result{}, err
	}
	key := j.Key()
	if key == "" {
		e.inflight.Add(1)
		defer e.inflight.Add(-1)
		return safeRun(e.jobCtx(ctx), j)
	}
	c, fl, own := e.claim(key)
	switch {
	case c != nil:
		return c.res, c.err
	case own && here:
		return e.runHere(ctx, key, fl, j)
	case own:
		cctx, cancel := context.WithCancel(context.Background())
		fl.cancel = cancel
		go e.compute(cctx, key, fl, j)
	}
	return e.wait(ctx, key, fl)
}

// claim is the one cache step of every keyed evaluation: a completed
// result is a hit (c), a computation in progress is joined (fl), and
// otherwise the caller owns a new flight (fl, own) — a miss — and must
// see it settled, by compute or by runHere. The owner counts as the
// flight's first waiter.
func (e *Engine) claim(key string) (c *cached, fl *flight, own bool) {
	e.mu.Lock()
	if el, ok := e.cache[key]; ok {
		e.lru.MoveToFront(el)
		c = el.Value.(*cached)
		e.mu.Unlock()
		e.hits.Add(1)
		return c, nil, false
	}
	if fl, ok := e.flights[key]; ok {
		fl.waiters++
		e.mu.Unlock()
		e.hits.Add(1)
		e.deduped.Add(1)
		return nil, fl, false
	}
	fl = &flight{done: make(chan struct{}), waiters: 1}
	e.flights[key] = fl
	e.mu.Unlock()
	e.misses.Add(1)
	return nil, fl, true
}

// runHere computes a flight its caller owns on the caller's goroutine,
// under a compSem slot and the caller's ctx: no goroutine and no
// context of its own. An outcome settles as a detached computation's
// does. An attempt that ctx cut short is never memoized: if callers
// joined the flight meanwhile, it passes to a detached compute for
// them, so none of them sees a cancellation it did not cause;
// otherwise it leaves flights and the next Run of the key starts
// afresh.
func (e *Engine) runHere(ctx context.Context, key string, fl *flight, j Job) (Result, error) {
	if e.exec(ctx, key, fl, j) {
		close(fl.done)
		return fl.res, fl.err
	}
	e.mu.Lock()
	fl.waiters--
	handOff := fl.waiters > 0
	var cctx context.Context
	if handOff {
		cctx, fl.cancel = context.WithCancel(context.Background())
	} else {
		delete(e.flights, key)
	}
	e.mu.Unlock()
	if handOff {
		go e.compute(cctx, key, fl, j)
	} else {
		close(fl.done)
	}
	e.cancelled.Add(1)
	return Result{}, ctx.Err()
}

// resident reports whether key has a completed result or a live
// computation, so that a Run of it would not start a computation.
func (e *Engine) resident(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, done := e.cache[key]
	_, running := e.flights[key]
	return done || running
}

// wait blocks until the flight completes or ctx is cancelled. The last
// caller to abandon an unfinished flight removes it from flights and
// cancels its computation, so the next Run of the key starts afresh.
func (e *Engine) wait(ctx context.Context, key string, fl *flight) (Result, error) {
	select {
	case <-fl.done:
		return fl.res, fl.err
	case <-ctx.Done():
		e.mu.Lock()
		fl.waiters--
		// A flight still in flights has not completed: compute removes
		// it before closing done.
		last := fl.waiters == 0 && e.flights[key] == fl
		if last {
			delete(e.flights, key)
		}
		e.mu.Unlock()
		if last {
			fl.cancel()
		}
		e.cancelled.Add(1)
		return Result{}, ctx.Err()
	}
}

// compute runs the job detached from any caller, under a context that
// wait cancels when the last waiter leaves; a computation abandoned
// while still queued for a slot exits without running.
func (e *Engine) compute(cctx context.Context, key string, fl *flight, j Job) {
	defer fl.cancel()
	if !e.exec(cctx, key, fl, j) {
		fl.err = cctx.Err()
		e.settle(key, fl)
	}
	close(fl.done)
}

// exec runs the job of a flight on one of the engine-wide compSem
// slots, so at most `workers` computations execute at once, and
// settles the outcome into the flight. It reports false, settling
// nothing, when ctx cut the attempt short: before a slot was free, or
// by the job returning ctx's error. The outcome is settled before the
// worker counts as idle, so InFlight == 0 means every finished result
// is visible.
func (e *Engine) exec(ctx context.Context, key string, fl *flight, j Job) bool {
	select {
	case e.compSem <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	e.inflight.Add(1)
	fl.res, fl.err = safeRun(e.jobCtx(ctx), j)
	done := !cutOff(ctx, fl.err)
	if done {
		e.settle(key, fl)
	}
	e.inflight.Add(-1)
	<-e.compSem
	return done
}

// jobCtx returns ctx carrying the engine's solver for a job to run
// under. A ctx that already resolves to it is returned as is, sparing
// an allocation per computation: the server's admitted requests carry
// it, and an engine on the shared solver finds it anyway, since
// solver.From falls back to the shared one.
func (e *Engine) jobCtx(ctx context.Context) context.Context {
	if solver.From(ctx) == e.solver {
		return ctx
	}
	return solver.With(ctx, e.solver)
}

// settle retires a finished flight: it leaves flights (unless its last
// waiter already took it out) and its outcome enters the LRU. A result
// produced despite abandonment is memoized when it is a real result; a
// cancellation error never is — only the abandonment path cancels the
// computation's context, so that outcome says "nobody wanted it and the
// job cooperated (or never started)", a property of the requests, not
// of the job.
func (e *Engine) settle(key string, fl *flight) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.flights[key] == fl {
		delete(e.flights, key)
	}
	if !errors.Is(fl.err, context.Canceled) {
		e.storeLocked(key, fl.res, fl.err)
	}
}

// storeLocked inserts a completed result at the LRU front unless key is
// already cached (equal keys mean equal results, so the resident one
// stands), then evicts least recently used results past the capacity.
// It reports whether it inserted. The caller holds e.mu.
func (e *Engine) storeLocked(key string, res Result, err error) bool {
	if _, ok := e.cache[key]; ok {
		return false
	}
	e.cache[key] = e.lru.PushFront(&cached{key: key, res: res, err: err})
	for e.capacity > 0 && e.lru.Len() > e.capacity {
		victim := e.lru.Remove(e.lru.Back()).(*cached)
		delete(e.cache, victim.key)
		e.evictions.Add(1)
	}
	return true
}

// safeRun executes the job, converting a panic into an ordinary error
// (wrapping ErrJobPanic). safeRun never panics, so compute's
// close(done) after it always executes and singleflight waiters never
// hang.
func safeRun(ctx context.Context, j Job) (res Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = Result{}, fmt.Errorf("%w: %v", ErrJobPanic, rec)
		}
	}()
	return j.Run(ctx)
}

// RunBatch evaluates jobs on the pool and returns their results in
// input order. All jobs are attempted even when some fail, and the
// reported error is the lowest-index one, so the outcome — results,
// error, everything — is independent of scheduling order. Cancelling
// ctx stops the batch between jobs; when that leaves jobs unrun and no
// earlier job failed, the error is ctx's.
func (e *Engine) RunBatch(ctx context.Context, jobs []Job) ([]Result, error) {
	results := make([]Result, 0, len(jobs))
	var err error
	Ordered(ctx, e.workers, len(jobs), func(i int) (JobResult, bool) {
		res, jerr := e.run(ctx, jobs[i], true)
		return JobResult{Result: res, Err: jerr}, true
	}, func(_ int, jr JobResult) bool {
		if err == nil {
			err = jr.Err
		}
		results = append(results, jr.Result)
		return true
	})
	if err == nil && len(results) < len(jobs) {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}
