// pool.go is the amortization layer of the adversary kernel: Evaluator
// construction, previously a fresh-allocation affair per (strategy,
// horizon), now draws every backing buffer from a recycled arena.
//
// The build is a two-pass partition over flat buffers: pass one runs
// the running-maximum visit filter only to count survivors per
// (ray, robot), which lets the flat visit buffer be partitioned into
// exactly-sized tables; pass two repeats the identical iteration
// recording offsets. Both passes perform the same floating-point
// operations in the same order as the reference construction the
// tests keep, so the tables are bit-for-bit identical to ones built
// the naive way — the equivalence tests pin this. A merge then turns
// each ray's tables into the ray's start offsets and event stream,
// the only state the queries read (evaluator.go): it keeps the robots'
// pending visits sorted in a k-slot ring, pops the front as the next
// event and inserts that robot's next visit by scanning from the back,
// where a strategy whose turns grow geometrically places it — so a
// typical event costs O(1) rather than a scan of all k robots.
//
// Release returns an Evaluator — arena and all — to a process-wide
// sync.Pool. In steady state a build therefore allocates nothing, which
// is where the sweep hot path's time went (the visit tables, rounds
// slices and breakpoint slices dominated its allocation profile).
package adversary

import (
	"fmt"
	"math"
	"slices"
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

// Release returns the Evaluator — tables, streams, scratch, arena —
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
// tables are bit-for-bit identical to the reference construction the
// tests keep (the filter/offset passes run the same operations in the
// same order), and the merge copies their values into the start and
// event slices without arithmetic.
func (e *Evaluator) build(s strategy.Strategy, horizon float64) error {
	m, k := s.M(), s.K()
	e.horizon, e.m, e.k = horizon, m, k
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

	// Start offsets and events: a merge per ray. Each ray's event
	// slice takes the rest of the arena as capacity while it merges.
	e.startBuf = resize(e.startBuf, m*k)
	e.eventsBuf = resize(e.eventsBuf, total)
	e.start = resizeRays(e.start, m)
	e.events = resizeRays(e.events, m)
	e.ring = resize(e.ring, k)
	ne := 0
	for ray := 1; ray <= m; ray++ {
		e.start[ray] = e.startBuf[(ray-1)*k : ray*k]
		e.events[ray] = e.mergeRay(ray, horizon, e.eventsBuf[ne:ne])
		ne += len(e.events[ray])
	}

	// Query scratch (all length k; reused across breakpoints so the
	// query loops stay allocation-free).
	e.att = resize(e.att, k)
	e.lim = resize(e.lim, k)
	return nil
}

// mergeHead is a robot's pending visit in the merge ring: its turn and
// its position in the robot's table.
type mergeHead struct {
	turn       float64
	robot, idx int32
}

// mergeRay fills start[ray] and appends to ev, in turn order and by
// robot index among equal turns, one event per table visit of the ray
// with 1 <= Turn < horizon. The ring holds each robot's next such
// visit, sorted by (turn, robot), in n slots from lo (modulo k): the
// front is the next event, and the robot's following visit is inserted
// by scanning from the back.
func (e *Evaluator) mergeRay(ray int, horizon float64, ev []rayEvent) []rayEvent {
	tables, start, ring, k := e.tables[ray], e.start[ray], e.ring, e.k
	lo, n := 0, 0
	push := func(h mergeHead) {
		i := lo + n
		if i >= k {
			i -= k
		}
		for j := 0; j < n; j++ {
			p := i - 1
			if p < 0 {
				p += k
			}
			if q := ring[p]; q.turn < h.turn || q.turn == h.turn && q.robot < h.robot {
				break
			}
			ring[i] = ring[p]
			i = p
		}
		ring[i] = h
		n++
	}
	for r, t := range tables {
		c := 0
		for c < len(t) && t[c].Turn < 1 {
			c++
		}
		start[r] = math.Inf(1)
		if c < len(t) {
			start[r] = t[c].Offset
			if t[c].Turn < horizon {
				push(mergeHead{t[c].Turn, int32(r), int32(c)})
			}
		}
	}
	slices.Sort(start)
	for n > 0 {
		h := ring[lo]
		if lo++; lo == k {
			lo = 0
		}
		n--
		t, c := tables[h.robot], int(h.idx)+1
		next := math.Inf(1)
		if c < len(t) {
			next = t[c].Offset
			if t[c].Turn < horizon {
				push(mergeHead{t[c].Turn, h.robot, int32(c)})
			}
		}
		ev = append(ev, rayEvent{Turn: h.turn, Old: t[c-1].Offset, New: next})
	}
	return ev
}
