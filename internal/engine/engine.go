// Package engine is the concurrent batch-evaluation substrate of the
// reproduction: a bounded worker pool, a Job abstraction for the
// library's expensive evaluations (exact adversarial ratios, grid
// ratios, upper-bound verification, randomized trials), a result cache
// keyed on the job fingerprint, and deterministic batch and streaming
// sweeps over (m, k, f) parameter grids.
//
// Every batch primitive merges results in input order, so output built
// from a parallel run is byte-identical to the sequential (workers = 1)
// path. Determinism is the design constraint everything else bends to:
// the experiment tables of cmd/experiments are reproduction artifacts,
// and a table that changes with GOMAXPROCS would be useless as one.
//
// Every compute entry point takes a context.Context and cancellation is
// cooperative end to end: batch primitives stop claiming work between
// cells, jobs check the context inside their long loops, and an
// in-flight singleflight computation is cancelled as soon as its last
// interested caller goes away — a timed-out request stops burning
// workers instead of running to completion for nobody.
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
	// its singleflight entry — leaving waiters blocked on a never-closed
	// done channel — nor crash a long-lived server.
	ErrJobPanic = errors.New("engine: job panicked")
)

// Engine runs Jobs on a bounded worker pool and memoizes their results.
// The zero value is not usable; construct with New or NewWithCache.
// An Engine is safe for concurrent use.
//
// The result cache is sharded: each job key hashes (FNV-1a over the
// fingerprint) to one of several independent shards, each with its own
// mutex, map and LRU list, so concurrent Runs of distinct keys contend
// only when they land on the same shard instead of serializing on one
// engine-wide lock. Singleflight semantics are per key and a key lives
// on exactly one shard, so sharding never changes which computations
// are deduplicated — only how much the bookkeeping around them blocks.
type Engine struct {
	workers  int
	capacity int // max cached entries summed over shards; 0 = unbounded

	// solver is the memo layer injected into every job execution's
	// context (solver.From recovers it), so sweep cells, batch items and
	// repeated requests share strategy instances and golden-section
	// bases. Engines default to the process-wide solver.Shared(): the
	// memoized values are pure functions of their keys, so sharing
	// across engines only helps.
	solver *solver.Solver

	// compSem caps concurrently executing detached computations at the
	// pool size, so abandoned non-cooperative jobs cannot pile up
	// unbounded CPU work: at most `workers` jobs execute at once, and a
	// queued computation whose context is cancelled (all callers left)
	// exits without ever running.
	compSem chan struct{}

	shards []*cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	deduped   atomic.Int64
	cancelled atomic.Int64
	inflight  atomic.Int64
}

// cacheShard is one independently locked slice of the result cache.
type cacheShard struct {
	mu       sync.Mutex
	cache    map[string]*cacheEntry
	lru      *list.List // front = most recently used *cacheEntry
	capacity int        // per-shard LRU bound; 0 = unbounded
}

// cacheEntry is a singleflight slot: the first Run for a key starts the
// computation, later Runs for the same key join it and share the
// result. The computation runs detached from any single caller, so it
// outlives a cancelled caller as long as someone still wants it — and
// is cancelled itself the moment nobody does.
type cacheEntry struct {
	key  string
	elem *list.Element
	done chan struct{}
	res  Result
	err  error

	// shard is the cache shard the key hashes to; all the guarded
	// fields below are protected by shard.mu.
	shard *cacheShard

	// waiters counts the callers currently blocked on done; guarded by
	// shard.mu. When the last waiter abandons an incomplete entry, the
	// computation's context is cancelled.
	waiters int
	// completed reports that res/err are valid (set before done closes);
	// guarded by shard.mu.
	completed bool
	// abandoned marks an in-flight entry whose last waiter left (its
	// compute context is cancelled). A later Run finding an abandoned
	// in-flight entry displaces it and recomputes; guarded by shard.mu.
	abandoned bool
	// cancel aborts the detached computation. Safe to call repeatedly.
	cancel context.CancelFunc
}

// New returns an engine with the given worker-pool size and an
// unbounded result cache; workers <= 0 selects runtime.GOMAXPROCS(0).
// workers = 1 is the exact sequential path (batch primitives claim
// cells one at a time, in index order).
func New(workers int) *Engine {
	return NewWithCache(workers, 0)
}

// Shard-count defaults: unbounded and large bounded caches use
// defaultShardCount fingerprint-hashed shards; a bounded cache smaller
// than minShardedCapacity stays on a single shard, where the LRU is
// exactly global (slicing a tiny budget across shards would evict on
// hash imbalance long before the cache is full, and a cache that small
// has no lock contention worth splitting).
const (
	defaultShardCount  = 16
	minShardedCapacity = 4 * defaultShardCount
)

// NewWithCache returns an engine whose result cache holds at most
// capacity entries, evicting the least recently used one on overflow
// (capacity <= 0 = unbounded). Long-lived servers use this to bound the
// memory of a cache fed by arbitrary request streams; evicting an
// in-flight entry is safe (its waiters keep their reference, only new
// Runs recompute). The shard count is chosen automatically.
func NewWithCache(workers, capacity int) *Engine {
	return newWithCacheShards(workers, capacity, 0)
}

// newWithCacheShards is NewWithCache with an explicit cache shard
// count (shards <= 0 selects the automatic policy: one shard for small
// bounded caches, defaultShardCount otherwise). The capacity budget is
// split evenly across shards — each shard evicts independently once
// its slice fills, so a sharded bounded cache can evict before the
// summed size reaches capacity when keys hash unevenly; the summed
// size never exceeds capacity. A single shard keeps the exact global
// LRU order.
func newWithCacheShards(workers, capacity, shards int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if capacity < 0 {
		capacity = 0
	}
	if shards <= 0 {
		if capacity > 0 && capacity < minShardedCapacity {
			shards = 1
		} else {
			shards = defaultShardCount
		}
	}
	if capacity > 0 && shards > capacity {
		shards = capacity
	}
	e := &Engine{
		workers:  workers,
		capacity: capacity,
		solver:   solver.Shared(),
		compSem:  make(chan struct{}, workers),
		shards:   make([]*cacheShard, shards),
	}
	for i := range e.shards {
		perShard := capacity / shards
		if i < capacity%shards {
			// Distribute the remainder so the summed per-shard bounds
			// equal the configured capacity exactly.
			perShard++
		}
		e.shards[i] = &cacheShard{
			cache:    make(map[string]*cacheEntry),
			lru:      list.New(),
			capacity: perShard,
		}
	}
	return e
}

// shardFor hashes a job key onto its cache shard (FNV-1a).
func (e *Engine) shardFor(key string) *cacheShard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return e.shards[h%uint64(len(e.shards))]
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// Solver returns the engine's memoizing solver layer. Callers that
// construct jobs outside Run (registry scenario constructors, servers
// shaping closed-form rows) inject it into their context with
// solver.With so those paths share the engine's memo.
func (e *Engine) Solver() *solver.Solver { return e.solver }

// CacheCapacity reports the cache bound (0 = unbounded).
func (e *Engine) CacheCapacity() int { return e.capacity }

// CacheShards reports the number of cache shards.
func (e *Engine) CacheShards() int { return len(e.shards) }

// CacheSize reports the number of memoized job results, summed over
// the shards.
func (e *Engine) CacheSize() int {
	n := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		n += len(sh.cache)
		sh.mu.Unlock()
	}
	return n
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
	// Evictions counts entries dropped by the LRU bound.
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
	// Size is the current number of cached entries, summed over shards.
	Size int
	// Capacity is the cache bound (0 = unbounded).
	Capacity int
	// Shards is the number of independently locked cache shards.
	Shards int
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
		Shards:    len(e.shards),
		Solver:    e.solver.Stats(),
		Kernel:    adversary.ReadKernelStats(),
	}
}

// Run evaluates one job through the cache. Identical jobs (equal keys)
// compute once: concurrent duplicates join the first computation
// (singleflight) and share its result. Jobs with an empty Key are never
// cached. Deterministic job errors are memoized — a failed job fails
// the same way every time — but a cancelled computation is not: its
// entry is dropped so a later Run recomputes.
//
// The computation is detached from any single caller: if ctx is
// cancelled while waiting, Run returns ctx.Err() immediately and the
// computation keeps running only while other callers still want it.
// When the last interested caller goes away, the job's context is
// cancelled and a cooperative job stops within one check.
func (e *Engine) Run(ctx context.Context, j Job) (Result, error) {
	if err := ctx.Err(); err != nil {
		e.cancelled.Add(1)
		return Result{}, err
	}
	key := j.Key()
	if key == "" {
		e.inflight.Add(1)
		defer e.inflight.Add(-1)
		return safeRun(solver.With(ctx, e.solver), j)
	}
	sh := e.shardFor(key)
	sh.mu.Lock()
	if en, ok := sh.cache[key]; ok {
		if en.completed {
			if en.elem != nil {
				sh.lru.MoveToFront(en.elem)
			}
			sh.mu.Unlock()
			e.hits.Add(1)
			return en.res, en.err
		}
		if !en.abandoned {
			if en.elem != nil {
				sh.lru.MoveToFront(en.elem)
			}
			en.waiters++
			sh.mu.Unlock()
			e.hits.Add(1)
			e.deduped.Add(1)
			return e.wait(ctx, en)
		}
		// In flight but abandoned: its compute context is already
		// cancelled and its (non-)result will be discarded. Displace it
		// and start fresh.
		sh.removeLocked(en)
	}
	cctx, cancel := context.WithCancel(context.Background())
	en := &cacheEntry{key: key, shard: sh, done: make(chan struct{}), waiters: 1, cancel: cancel}
	sh.cache[key] = en
	en.elem = sh.lru.PushFront(en)
	e.evictLocked(sh)
	sh.mu.Unlock()
	e.misses.Add(1)
	go e.compute(cctx, en, j)
	return e.wait(ctx, en)
}

// resident reports whether key has a completed or live in-flight cache
// entry, so that a Run of it would not start a computation.
func (e *Engine) resident(key string) bool {
	sh := e.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	en, ok := sh.cache[key]
	return ok && !en.abandoned
}

// wait blocks until the entry's computation completes or ctx is
// cancelled. A caller abandoning the last reference cancels the
// computation itself.
func (e *Engine) wait(ctx context.Context, en *cacheEntry) (Result, error) {
	sh := en.shard
	select {
	case <-en.done:
		sh.mu.Lock()
		en.waiters--
		sh.mu.Unlock()
		return en.res, en.err
	case <-ctx.Done():
		sh.mu.Lock()
		en.waiters--
		last := en.waiters == 0 && !en.completed
		if last {
			en.abandoned = true
		}
		sh.mu.Unlock()
		if last {
			en.cancel()
		}
		e.cancelled.Add(1)
		return Result{}, ctx.Err()
	}
}

// compute runs the job detached from any caller, under a context that
// wait cancels when the last waiter leaves. Execution is gated on the
// engine-wide compSem: at most `workers` detached jobs run at once, and
// a computation abandoned while still queued exits without running. A
// result produced despite abandonment is still memoized when it is a
// real result; a cancellation error is never memoized (it is a
// property of the request, not of the job).
func (e *Engine) compute(cctx context.Context, en *cacheEntry, j Job) {
	defer en.cancel()
	var res Result
	var err error
	select {
	case e.compSem <- struct{}{}:
		e.inflight.Add(1)
		res, err = safeRun(solver.With(cctx, e.solver), j)
		e.inflight.Add(-1)
		<-e.compSem
	case <-cctx.Done():
		err = cctx.Err()
	}
	sh := en.shard
	sh.mu.Lock()
	en.res, en.err = res, err
	en.completed = true
	if err != nil && errors.Is(err, context.Canceled) {
		// Only the abandonment path cancels cctx, so this outcome says
		// "nobody wanted it and the job cooperated (or never started)"
		// — forget it.
		sh.removeLocked(en)
	}
	sh.mu.Unlock()
	close(en.done)
}

// removeLocked detaches an entry from the shard's cache map and LRU
// list if it is still the resident entry for its key; the caller holds
// sh.mu.
func (sh *cacheShard) removeLocked(en *cacheEntry) {
	if cur, ok := sh.cache[en.key]; ok && cur == en {
		delete(sh.cache, en.key)
	}
	if en.elem != nil {
		sh.lru.Remove(en.elem)
		en.elem = nil
	}
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

// evictLocked enforces the shard's LRU bound; the caller holds sh.mu.
// Entries removed here may still be in flight — their waiters hold the
// entry pointer and are unaffected; only future Runs of the key
// recompute.
func (e *Engine) evictLocked(sh *cacheShard) {
	for sh.capacity > 0 && len(sh.cache) > sh.capacity {
		back := sh.lru.Back()
		if back == nil {
			return
		}
		victim := sh.lru.Remove(back).(*cacheEntry)
		victim.elem = nil
		delete(sh.cache, victim.key)
		e.evictions.Add(1)
	}
}

// RunBatch evaluates jobs on the pool and returns their results in
// input order. All jobs are attempted even when some fail, and the
// reported error is the lowest-index one, so the outcome — results,
// error, everything — is independent of scheduling order. Cancelling
// ctx stops the batch between jobs; the error is then ctx's.
func (e *Engine) RunBatch(ctx context.Context, jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	err := e.ForEach(ctx, len(jobs), func(i int) error {
		var jerr error
		results[i], jerr = e.Run(ctx, jobs[i])
		return jerr
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ForEach runs fn(0), ..., fn(n-1) on the pool. Every index is
// attempted; the error returned is the lowest-index failure (nil if
// none), so parallel and sequential runs agree. With workers = 1 the
// calls happen in index order on the calling goroutine. Cancelling ctx
// stops the loop between indexes (already-started calls finish); the
// unstarted indexes fail with ctx.Err().
func (e *Engine) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = fn(i)
		}
	} else {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if err := ctx.Err(); err != nil {
						errs[i] = err
						continue
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
