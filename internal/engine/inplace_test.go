package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestInPlaceOwnerCutOffHandsOffToJoiner: a fan-out's miss runs on the
// worker that claimed it, under the fan-out's ctx. When that ctx cuts
// the run short while a Run caller has joined the flight, the flight
// passes to a detached computation: the owner gets its cancellation,
// the joiner gets the real result, and the cancelled attempt is never
// memoized.
func TestInPlaceOwnerCutOffHandsOffToJoiner(t *testing.T) {
	e := New(4)
	var runs atomic.Int64
	release := make(chan struct{})
	j := gateJob{key: "handoff", release: release, runs: &runs, honorCtx: true}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	owner := make(chan error, 1)
	go func() {
		_, err := e.RunBatch(ctx, []Job{j})
		owner <- err
	}()
	waitFor(t, "the in-place run to start", func() bool { return e.Stats().InFlight == 1 })
	type out struct {
		res Result
		err error
	}
	joiner := make(chan out, 1)
	go func() {
		res, err := e.Run(context.Background(), j)
		joiner <- out{res, err}
	}()
	waitFor(t, "the Run caller to join", func() bool { return e.Stats().Deduped == 1 })
	cancel()
	if err := <-owner; !errors.Is(err, context.Canceled) {
		t.Fatalf("cut-off owner returned %v, want context.Canceled", err)
	}
	// The owner is gone; the joiner still waits on a flight that the
	// detached computation now runs.
	waitFor(t, "the detached computation to start", func() bool { return runs.Load() == 2 })
	if st := e.Stats(); st.Size != 0 || st.InFlight != 1 {
		t.Errorf("after the hand-off: %+v, want nothing cached and one computation running", st)
	}
	select {
	case o := <-joiner:
		t.Fatalf("joiner returned (%+v, %v) before the flight finished", o.res, o.err)
	default:
	}
	close(release)
	if o := <-joiner; o.err != nil || o.res.Value != 42 {
		t.Fatalf("joiner got (%+v, %v), want the real result 42", o.res, o.err)
	}
	waitFor(t, "the detached computation to finish", func() bool { return e.Stats().InFlight == 0 })
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Deduped != 1 || st.Cancelled != 1 || st.Size != 1 {
		t.Errorf("Stats = %+v, want 1 miss, 1 hit, 1 deduped, 1 cancelled, 1 cached", st)
	}
	if res, err := e.Run(context.Background(), j); err != nil || res.Value != 42 {
		t.Fatalf("later Run = (%+v, %v), want the memoized 42", res, err)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("job executed %d times, want 2 (cut-off attempt + hand-off)", got)
	}
}

// TestInPlaceQueuedOwnerCutOffHandsOff: an owner whose ctx ends while
// it still waits for a compute slot never runs the job, and hands the
// flight to a detached computation when a caller has joined; that one
// runs once the slot frees and serves the joiner.
func TestInPlaceQueuedOwnerCutOffHandsOff(t *testing.T) {
	e := New(1)
	var busyRuns, runs atomic.Int64
	busyGate := make(chan struct{})
	busy := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), gateJob{key: "busy", release: busyGate, runs: &busyRuns})
		busy <- err
	}()
	waitFor(t, "the slot to be taken", func() bool { return e.Stats().InFlight == 1 })

	open := make(chan struct{})
	close(open)
	j := gateJob{key: "queued", release: open, runs: &runs}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	owner := make(chan error, 1)
	go func() {
		_, err := e.RunBatch(ctx, []Job{j})
		owner <- err
	}()
	waitFor(t, "the in-place owner to claim its miss", func() bool { return e.Stats().Misses == 2 })
	joiner := make(chan error, 1)
	go func() {
		res, err := e.Run(context.Background(), j)
		if err == nil && res.Value != 42 {
			err = fmt.Errorf("value %v, want 42", res.Value)
		}
		joiner <- err
	}()
	waitFor(t, "the Run caller to join", func() bool { return e.Stats().Deduped == 1 })
	cancel()
	if err := <-owner; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued owner returned %v, want context.Canceled", err)
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("the queued owner ran the job %d times, want 0", got)
	}
	close(busyGate)
	if err := <-busy; err != nil {
		t.Fatal(err)
	}
	if err := <-joiner; err != nil {
		t.Fatalf("joiner: %v", err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("job executed %d times, want 1 (by the detached computation)", got)
	}
}

// expiring is a context that ends as a passed deadline does, at the
// moment the test calls expire.
type expiring struct {
	context.Context
	done    chan struct{}
	expired atomic.Bool
}

func newExpiring() *expiring {
	return &expiring{Context: context.Background(), done: make(chan struct{})}
}

func (c *expiring) Done() <-chan struct{} { return c.done }

func (c *expiring) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *expiring) expire() {
	c.expired.Store(true)
	close(c.done)
}

// TestInPlaceCancelledFanoutLeavesNothing: a fan-out cut off by its
// ctx (cancelled or past its deadline) while nobody else wants its
// cells returns with no computation running, no flight left and
// nothing cached, and the next run of the same jobs computes afresh.
func TestInPlaceCancelledFanoutLeavesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, func())
		want error
	}{
		{"cancel", func() (context.Context, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			return ctx, cancel
		}, context.Canceled},
		{"deadline", func() (context.Context, func()) {
			ctx := newExpiring()
			return ctx, ctx.expire
		}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(4)
			var runs atomic.Int64
			release := make(chan struct{})
			jobs := make([]Job, 4)
			for i := range jobs {
				jobs[i] = gateJob{key: fmt.Sprintf("cell-%d", i), release: release, runs: &runs, honorCtx: true}
			}
			ctx, cut := tc.ctx()
			done := make(chan error, 1)
			go func() {
				_, err := e.RunBatch(ctx, jobs)
				done <- err
			}()
			waitFor(t, "every cell to run", func() bool { return e.Stats().InFlight == 4 })
			cut()
			if err := <-done; !errors.Is(err, tc.want) {
				t.Fatalf("RunBatch returned %v, want %v", err, tc.want)
			}
			// In place, the fan-out's return is its cells' end: there is
			// nothing left to wait for.
			st := e.Stats()
			if st.InFlight != 0 || st.Size != 0 || st.Cancelled != 4 {
				t.Errorf("after the cut-off: %+v, want no computation, nothing cached, 4 cancelled", st)
			}
			e.mu.Lock()
			flights := len(e.flights)
			e.mu.Unlock()
			if flights != 0 {
				t.Errorf("%d flights left behind", flights)
			}
			close(release)
			res, err := e.RunBatch(context.Background(), jobs)
			if err != nil || len(res) != 4 || res[3].Value != 42 {
				t.Fatalf("rerun = (%+v, %v)", res, err)
			}
			if got := runs.Load(); got != 8 {
				t.Errorf("jobs executed %d times, want 8 (4 cut off + 4 afresh)", got)
			}
		})
	}
}

// TestInPlaceMissAllocs pins what a fan-out's cache miss allocates, as
// the kernel's allocation-free queries are pinned: the flight and its
// done channel, and the cached record and its LRU element — no
// goroutine, no cancel context, and no solver context where ctx already
// resolves to the engine's solver. Every run misses a full cache and
// evicts.
func TestInPlaceMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	const capacity = 64
	e := NewWithCache(1, capacity)
	var runs atomic.Int64
	jobs := make([]Job, 4*capacity)
	for i := range jobs {
		jobs[i] = countingJob{key: fmt.Sprintf("miss-%04d", i), value: 1, runs: &runs}
	}
	ctx := context.Background()
	n := 0
	miss := func() {
		if _, err := e.run(ctx, jobs[n%len(jobs)], true); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for range 2 * capacity {
		miss() // fill the cache, so that every counted miss evicts
	}
	allocs := testing.AllocsPerRun(200, miss)
	if allocs != 4 {
		t.Errorf("an in-place miss allocated %.1f objects, want 4", allocs)
	}
	if st := e.Stats(); st.Hits != 0 || st.Evictions == 0 {
		t.Fatalf("Stats = %+v, want every run an evicting miss", st)
	}
}
