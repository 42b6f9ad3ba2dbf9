package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// FuzzOrdered drives the engine's one fan-out with arbitrary sizes,
// pool sizes, failing evaluations, an emit that gives up and a
// cancellation point, in both the callback and the channel form.
// Whatever the draw:
//   - the emitted values are exactly indexes 0..j-1, in order, once each,
//     with j pinned by the first failing index, the give-up index and the
//     cancellation point;
//   - emit is never called concurrently;
//   - Ordered returns and OrderedChan's channel closes;
//   - no eval call is still running once they have.
func FuzzOrdered(f *testing.F) {
	// n, workers, fail mask, emit give-up index, cancel index.
	f.Add(uint8(0), int8(0), uint64(0), uint8(255), uint8(255))
	f.Add(uint8(1), int8(1), uint64(0), uint8(255), uint8(255))
	f.Add(uint8(21), int8(-1), uint64(0), uint8(255), uint8(255))
	f.Add(uint8(64), int8(8), uint64(0), uint8(255), uint8(255))
	f.Add(uint8(40), int8(4), uint64(1)<<17, uint8(255), uint8(255))
	f.Add(uint8(40), int8(3), uint64(0), uint8(9), uint8(255))
	f.Add(uint8(40), int8(8), uint64(0), uint8(255), uint8(5))
	f.Add(uint8(64), int8(2), uint64(0xf0f0f0f000000000), uint8(50), uint8(30))
	f.Fuzz(func(t *testing.T, nRaw uint8, wRaw int8, failMask uint64, stopRaw, cancelRaw uint8) {
		n := int(nRaw) % 65
		workers := int(wRaw)%10 - 1
		if workers > 8 {
			workers = 8
		}
		stopAt, cancelAt := int(stopRaw), int(cancelRaw) // >= n: never
		failed := func(i int) bool { return i < 64 && failMask&(1<<uint(i)) != 0 }
		bound := n // the first index no emit can reach
		for i := 0; i < n; i++ {
			if failed(i) {
				bound = i
				break
			}
		}

		// run evaluates index i for either form: it cancels at cancelAt
		// and refuses the failing indexes.
		run := func(cancel context.CancelFunc, running *atomic.Int64, calls []atomic.Int32) func(int) (int, bool) {
			return func(i int) (int, bool) {
				running.Add(1)
				defer running.Add(-1)
				if calls[i].Add(1) != 1 {
					t.Errorf("eval(%d) called twice", i)
				}
				if i == cancelAt {
					cancel()
				}
				runtime.Gosched()
				return i, !failed(i)
			}
		}
		// check pins the emitted count j against the draw.
		check := func(form string, j, want int, canStop bool) {
			if j > want {
				t.Errorf("%s: %d values emitted past the bound %d", form, j, want)
			}
			least := want
			if cancelAt < n && cancelAt+1 < least {
				least = cancelAt + 1
			}
			if canStop && j < least {
				t.Errorf("%s: only %d values emitted, want at least %d", form, j, least)
			}
		}

		// The callback form.
		ctx, cancel := context.WithCancel(context.Background())
		var (
			running atomic.Int64
			inEmit  atomic.Bool
			emitted int
		)
		calls := make([]atomic.Int32, n)
		Ordered(ctx, workers, n, run(cancel, &running, calls), func(i, v int) bool {
			if !inEmit.CompareAndSwap(false, true) {
				t.Errorf("emit(%d) called concurrently", i)
			}
			defer inEmit.Store(false)
			if i != emitted || v != i {
				t.Errorf("emit(%d, %d) after %d emits, want emit(%d, %d)", i, v, emitted, emitted, emitted)
			}
			emitted++
			runtime.Gosched()
			return i != stopAt
		})
		cancel()
		if r := running.Load(); r != 0 {
			t.Errorf("Ordered returned with %d evals still running", r)
		}
		want := bound
		if stopAt < want {
			want = stopAt + 1 // the emit that returned false is counted
		}
		check("Ordered", emitted, want, true)

		// The channel form: the consumer reads up to stopAt values, then
		// cancels and drains.
		ctx, cancel = context.WithCancel(context.Background())
		running.Store(0)
		calls = make([]atomic.Int32, n)
		got := 0
		for v := range OrderedChan(ctx, workers, n, run(cancel, &running, calls)) {
			if v != got {
				t.Errorf("OrderedChan sent %d after %d values, want %d", v, got, got)
			}
			got++
			if got == stopAt {
				cancel()
			}
		}
		cancel()
		if r := running.Load(); r != 0 {
			t.Errorf("OrderedChan closed with %d evals still running", r)
		}
		// A cancelled stream may still deliver what fits its buffer, so
		// only the undisturbed stream has an exact length.
		check("OrderedChan", got, bound, stopAt >= n && cancelAt >= n)
	})
}
