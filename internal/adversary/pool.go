// pool.go is the amortization layer of the adversary kernel: Evaluator
// construction, previously a fresh-allocation affair per (strategy,
// horizon), now draws every backing buffer from a recycled arena.
//
// The build is a two-pass partition over flat buffers: pass one runs
// the running-maximum visit filter only to count survivors per
// (ray, robot), which lets the flat visit buffer be partitioned into
// exactly-sized tables; pass two repeats the identical iteration
// recording offsets. Breakpoints are produced by a k-way merge of the
// per-robot tables (each already sorted), replacing the
// concatenate-sort-dedup of the reference implementation with a single
// ordered pass; the same merge emits the ray's event stream, one entry
// per visit below the horizon, which the queries walk (evaluator.go).
// Both passes perform the same floating-point operations in the same
// order as the reference visitTables/breakpointSlice, so the built
// Evaluator is bit-for-bit identical to one built the naive way — the
// equivalence tests pin this.
//
// Release returns an Evaluator — arena and all — to a process-wide
// sync.Pool. In steady state a build therefore allocates nothing, which
// is where the sweep hot path's time went (the visit tables, rounds
// slices and breakpoint slices dominated its allocation profile).
package adversary

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/strategy"
)

// Kernel counters (process-wide, like the pool itself).
var (
	kernelBuilds     atomic.Int64
	kernelPoolReuses atomic.Int64
)

// KernelStats is a snapshot of the adversary kernel's amortization
// counters. The counters are process-wide: the evaluator pool is shared
// by every engine in the process.
type KernelStats struct {
	// Builds counts table builds, one per constructed evaluator.
	Builds int64
	// PoolReuses counts evaluator constructions served from the pool —
	// builds that recycled a previous evaluator's buffers.
	PoolReuses int64
}

// ReadKernelStats returns a snapshot of the kernel counters.
func ReadKernelStats() KernelStats {
	return KernelStats{
		Builds:     kernelBuilds.Load(),
		PoolReuses: kernelPoolReuses.Load(),
	}
}

// evalPool recycles Evaluators with all their backing buffers.
var evalPool sync.Pool

// getEvaluator returns a pooled Evaluator or a fresh zero one.
func getEvaluator() *Evaluator {
	if v := evalPool.Get(); v != nil {
		e := v.(*Evaluator)
		e.released = false
		kernelPoolReuses.Add(1)
		return e
	}
	return &Evaluator{}
}

// Release returns the Evaluator — tables, breakpoints, scratch, arena —
// to the kernel pool for the next NewEvaluator to recycle. The
// Evaluator must not be used after Release; a second Release is a
// no-op. Releasing is optional (an unreleased Evaluator is ordinary
// garbage), but the hot paths that build one evaluator per job release
// it, which is what makes their steady-state builds allocation-free.
func (e *Evaluator) Release() {
	if e == nil || e.released {
		return
	}
	e.released = true
	e.s = nil
	evalPool.Put(e)
}

// Buffer resizers: reuse the arena buffer when it is big enough,
// allocate once when it is not. Contents are unspecified after a
// resize; the build passes overwrite every live position.

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func resizeTables(t [][][]rayVisit, m, k int) [][][]rayVisit {
	if cap(t) < m+1 {
		t = make([][][]rayVisit, m+1)
	} else {
		t = t[:m+1]
	}
	t[0] = nil // rays are 1-based
	for ray := 1; ray <= m; ray++ {
		if cap(t[ray]) < k {
			t[ray] = make([][]rayVisit, k)
		} else {
			t[ray] = t[ray][:k]
		}
	}
	return t
}

// resizeRays returns a 1-based per-ray slice header table for m rays.
func resizeRays[T any](b [][]T, m int) [][]T {
	if cap(b) < m+1 {
		return make([][]T, m+1)
	}
	b = b[:m+1]
	b[0] = nil
	return b
}

// build populates the Evaluator for (s, horizon) out of its arena. The
// resulting tables, breakpoints and query answers are bit-for-bit
// identical to the reference construction (visitTables +
// breakpointSlice): the filter/offset passes run the same operations in
// the same order, and the breakpoint merge emits the same sorted
// deduplicated sequence the reference's sort produced.
func (e *Evaluator) build(s strategy.Strategy, horizon float64) error {
	m, k := s.M(), s.K()
	e.s, e.horizon, e.m, e.k = s, horizon, m, k
	kernelBuilds.Add(1)

	// Pass 0: generate every robot's excursions into the flat rounds
	// buffer.
	e.robotOff = resize(e.robotOff, k+1)
	rb := e.roundsBuf[:0]
	var err error
	for r := 0; r < k; r++ {
		e.robotOff[r] = len(rb)
		rb, err = s.AppendRounds(rb, r, horizon)
		if err != nil {
			e.roundsBuf = rb[:0]
			return fmt.Errorf("adversary: robot %d: %w", r, err)
		}
	}
	e.robotOff[k] = len(rb)
	e.roundsBuf = rb

	// Pass 1: run the running-maximum filter only to count survivors
	// per (ray, robot), so the flat visit buffer partitions exactly.
	e.counts = resize(e.counts, (m+1)*k)
	for i := range e.counts {
		e.counts[i] = 0
	}
	e.maxTurn = resize(e.maxTurn, k*(m+1))
	for i := range e.maxTurn {
		e.maxTurn[i] = 0
	}
	total := 0
	for r := 0; r < k; r++ {
		mt := e.maxTurn[r*(m+1) : (r+1)*(m+1)]
		for _, rd := range rb[e.robotOff[r]:e.robotOff[r+1]] {
			if rd.Turn > mt[rd.Ray] {
				mt[rd.Ray] = rd.Turn
				e.counts[rd.Ray*k+r]++
				total++
			}
		}
	}

	// Partition: each table gets a zero-length slice of exactly its
	// final capacity.
	e.visitsBuf = resize(e.visitsBuf, total)
	e.tables = resizeTables(e.tables, m, k)
	off := 0
	for ray := 1; ray <= m; ray++ {
		for r := 0; r < k; r++ {
			n := e.counts[ray*k+r]
			e.tables[ray][r] = e.visitsBuf[off : off : off+n]
			off += n
		}
	}

	// Pass 2: the identical iteration again, now recording offsets —
	// same floating-point operations in the same order as the
	// reference visitTables.
	for i := range e.maxTurn {
		e.maxTurn[i] = 0
	}
	for r := 0; r < k; r++ {
		mt := e.maxTurn[r*(m+1) : (r+1)*(m+1)]
		prefix := 0.0
		for _, rd := range rb[e.robotOff[r]:e.robotOff[r+1]] {
			if rd.Turn > mt[rd.Ray] {
				mt[rd.Ray] = rd.Turn
				e.tables[rd.Ray][r] = append(e.tables[rd.Ray][r], rayVisit{
					Turn:   rd.Turn,
					Offset: 2 * prefix,
				})
			}
			prefix += rd.Turn
		}
	}

	// Breakpoints and events: per ray, a k-way merge of the robots'
	// sorted turn columns behind the leading x = 1 — the same
	// breakpoint sequence breakpointSlice's concatenate-sort-dedup
	// produces, in one pass. Each ray's slices take the rest of the
	// arena as capacity while it merges.
	e.breaksBuf = resize(e.breaksBuf, m+total)
	e.eventsBuf = resize(e.eventsBuf, total)
	e.breaks = resizeRays(e.breaks, m)
	e.events = resizeRays(e.events, m)
	e.cursors = resize(e.cursors, k)
	e.heads = resize(e.heads, k)
	nb, ne := 0, 0
	for ray := 1; ray <= m; ray++ {
		e.breaksBuf[nb] = 1
		e.breaks[ray] = e.breaksBuf[nb : nb+1]
		e.events[ray] = e.eventsBuf[ne:ne]
		e.mergeRay(ray, horizon)
		nb, ne = nb+len(e.breaks[ray]), ne+len(e.events[ray])
	}

	// Query scratch (all length k; reused across breakpoints so the
	// query loops stay allocation-free).
	e.att = resize(e.att, k)
	e.lim = resize(e.lim, k)
	return nil
}

// mergeRay appends to the ray's breakpoint and event slices every
// table visit with Turn < horizon, in turn order: a k-way merge of the
// robots' sorted tables, scanning one head turn per robot (horizon
// once a robot's column is spent). Every visit becomes an event; a
// turn at or above 1 that differs from the last breakpoint becomes a
// breakpoint too.
func (e *Evaluator) mergeRay(ray int, horizon float64) {
	tables, heads := e.tables[ray], e.heads
	for r, t := range tables {
		e.cursors[r] = 0
		heads[r] = horizon
		if len(t) > 0 && t[0].Turn < horizon {
			heads[r] = t[0].Turn
		}
	}
	br, ev := e.breaks[ray], e.events[ray]
	last := br[len(br)-1]
	for {
		best, bt := 0, heads[0]
		for r := 1; r < len(heads); r++ {
			if heads[r] < bt {
				best, bt = r, heads[r]
			}
		}
		if bt >= horizon {
			break
		}
		c := e.cursors[best]
		ev = append(ev, rayEvent{Turn: bt, robot: int32(best), idx: int32(c)})
		if bt >= 1 && bt != last {
			br = append(br, bt)
			last = bt
		}
		c++
		e.cursors[best] = c
		heads[best] = horizon
		if t := tables[best]; c < len(t) && t[c].Turn < horizon {
			heads[best] = t[c].Turn
		}
	}
	e.breaks[ray], e.events[ray] = br, ev
}
