package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateJob blocks until released. With honorCtx it aborts cooperatively
// when its context is cancelled — the stand-in for the ctx-aware
// built-in jobs; without, it models a non-cooperative job.
type gateJob struct {
	key      string
	release  chan struct{}
	runs     *atomic.Int64
	honorCtx bool
}

func (j gateJob) Key() string { return j.key }

func (j gateJob) Run(ctx context.Context) (Result, error) {
	j.runs.Add(1)
	if j.honorCtx {
		select {
		case <-j.release:
			return Result{Value: 42}, nil
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	<-j.release
	return Result{Value: 42}, nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightConcurrentIdenticalRuns is the exact-counter contract
// of the singleflight layer: N concurrent Runs of one key execute the
// job exactly once, and the hit/miss/dedup counters account for every
// caller precisely — all of it under -race. The gate guarantees every
// caller really is concurrent with the single execution (no caller can
// be served from a completed cache entry).
func TestSingleflightConcurrentIdenticalRuns(t *testing.T) {
	eng := New(8)
	var runs atomic.Int64
	release := make(chan struct{})
	j := gateJob{key: "dup", release: release, runs: &runs}
	const n = 16
	var (
		wg      sync.WaitGroup
		results [n]Result
		errs    [n]error
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Run(context.Background(), j)
		}(i)
	}
	waitFor(t, "all callers to join the flight", func() bool {
		st := eng.Stats()
		return st.Hits+st.Misses == n
	})
	close(release)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i].Value != 42 {
			t.Fatalf("caller %d: (%+v, %v)", i, results[i], errs[i])
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("job executed %d times, want exactly 1", got)
	}
	st := eng.Stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Deduped != n-1 {
		t.Errorf("Stats = %+v, want 1 miss / %d hits / %d deduped", st, n-1, n-1)
	}
	if st.Cancelled != 0 || st.InFlight != 0 {
		t.Errorf("Stats = %+v, want no cancellations and no in-flight work", st)
	}
	// A Run after completion is a plain hit, not a dedup.
	if _, err := eng.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	st2 := eng.Stats()
	if st2.Hits != st.Hits+1 || st2.Deduped != st.Deduped {
		t.Errorf("post-completion Run: %+v -> %+v, want one more hit, same dedup", st, st2)
	}
}

// TestConcurrentVerifyUpperComputesOnce is the acceptance check with a
// real job: N concurrent identical VerifyUpper verifications execute
// the underlying adversarial evaluation exactly once (one miss, N-1
// hits) and agree bit-for-bit on the result.
func TestConcurrentVerifyUpperComputesOnce(t *testing.T) {
	eng := New(8)
	j := VerifyUpper{M: 2, K: 3, F: 1, Horizon: 2e4}
	const n = 12
	var (
		wg      sync.WaitGroup
		results [n]Result
		errs    [n]error
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Run(context.Background(), j)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i].Value != results[0].Value {
			t.Errorf("caller %d diverged: %v vs %v", i, results[i].Value, results[0].Value)
		}
	}
	st := eng.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("Stats = %+v, want exactly 1 computation and %d shared results", st, n-1)
	}
}

// TestRunCancelAbandonsComputation pins the cancellation contract: when
// the only caller of an in-flight job gives up, the job's context is
// cancelled, a cooperative job exits (InFlight drains to zero without
// the gate ever opening), the cancellation is counted, and the key is
// recomputed by the next Run instead of serving the aborted attempt.
func TestRunCancelAbandonsComputation(t *testing.T) {
	eng := New(4)
	var runs atomic.Int64
	release := make(chan struct{})
	j := gateJob{key: "cancelme", release: release, runs: &runs, honorCtx: true}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, j)
		errCh <- err
	}()
	waitFor(t, "the job to start", func() bool { return eng.Stats().InFlight == 1 })
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Run did not return promptly")
	}
	// The computation itself must stop: worker occupancy back to zero
	// even though the gate never opened.
	waitFor(t, "the abandoned job to exit", func() bool { return eng.Stats().InFlight == 0 })
	st := eng.Stats()
	if st.Cancelled != 1 {
		t.Errorf("Stats = %+v, want exactly 1 cancellation", st)
	}
	if st.Size != 0 {
		t.Errorf("aborted attempt was memoized: %+v", st)
	}
	// The key recomputes cleanly once someone wants it again.
	close(release)
	res, err := eng.Run(context.Background(), j)
	if err != nil || res.Value != 42 {
		t.Fatalf("retry after cancellation = (%+v, %v)", res, err)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("job executed %d times, want 2 (abandoned attempt + fresh retry)", got)
	}
}

// TestRunCancelOneWaiterKeepsFlightAlive: a caller abandoning a shared
// flight must not cancel it for the callers still waiting.
func TestRunCancelOneWaiterKeepsFlightAlive(t *testing.T) {
	eng := New(4)
	var runs atomic.Int64
	release := make(chan struct{})
	j := gateJob{key: "shared", release: release, runs: &runs, honorCtx: true}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctxA, j)
		errA <- err
	}()
	waitFor(t, "the flight to start", func() bool { return eng.Stats().Misses == 1 })
	type out struct {
		res Result
		err error
	}
	outB := make(chan out, 1)
	go func() {
		res, err := eng.Run(context.Background(), j)
		outB <- out{res, err}
	}()
	waitFor(t, "the second caller to join", func() bool { return eng.Stats().Deduped == 1 })
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller A returned %v, want context.Canceled", err)
	}
	// B still waits; the job must still be running.
	if st := eng.Stats(); st.InFlight != 1 {
		t.Errorf("flight died with a live waiter: %+v", st)
	}
	close(release)
	b := <-outB
	if b.err != nil || b.res.Value != 42 {
		t.Fatalf("surviving waiter got (%+v, %v)", b.res, b.err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("job executed %d times, want 1 (flight survived A's exit)", got)
	}
}

// TestRunSuccessDespiteAbandonmentIsMemoized: a non-cooperative job
// that completes successfully after its caller gave up still lands in
// the cache, so a later identical Run is a hit.
func TestRunSuccessDespiteAbandonmentIsMemoized(t *testing.T) {
	eng := New(4)
	var runs atomic.Int64
	release := make(chan struct{})
	j := gateJob{key: "stubborn", release: release, runs: &runs} // ignores ctx
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, j)
		errCh <- err
	}()
	waitFor(t, "the job to start", func() bool { return eng.Stats().InFlight == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v", err)
	}
	close(release)
	waitFor(t, "the stubborn job to finish into the cache", func() bool { return eng.Stats().InFlight == 0 })
	res, err := eng.Run(context.Background(), j)
	if err != nil || res.Value != 42 {
		t.Fatalf("post-completion Run = (%+v, %v)", res, err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("job executed %d times, want 1 (abandoned success memoized)", got)
	}
}

// TestLRUConcurrentIdenticalRunsBounded exercises the singleflight
// layer against a bounded cache: once a set of concurrent identical
// Runs has joined one flight, LRU churn — however many completed
// results it evicts — cannot split the flight or lose its result.
func TestLRUConcurrentIdenticalRunsBounded(t *testing.T) {
	eng := NewWithCache(8, 2)
	var dupRuns, churnRuns atomic.Int64
	release := make(chan struct{})
	j := gateJob{key: "pinned", release: release, runs: &dupRuns}
	const n = 8
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if res, err := eng.Run(context.Background(), j); err != nil || res.Value != 42 {
				t.Errorf("dup Run = (%+v, %v)", res, err)
			}
		}()
	}
	waitFor(t, "all duplicate callers to join", func() bool {
		return eng.Stats().Deduped == n-1
	})
	// Churn five distinct keys through a capacity-2 cache. The pinned
	// flight is not an LRU member, so the evictions never touch it and
	// its waiters are unaffected.
	for i := 0; i < 50; i++ {
		key := []string{"a", "b", "c", "d", "e"}[i%5]
		if _, err := eng.Run(context.Background(), countingJob{key: key, value: 1, runs: &churnRuns}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wg.Wait()
	if got := dupRuns.Load(); got != 1 {
		t.Errorf("pinned job executed %d times, want 1 despite LRU churn", got)
	}
	st := eng.Stats()
	if st.Evictions == 0 {
		t.Error("churn over capacity 2 produced no evictions")
	}
	if st.Size > 2 {
		t.Errorf("cache size %d exceeds capacity 2", st.Size)
	}
}
