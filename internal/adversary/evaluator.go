// evaluator.go is the reusable adversary kernel: an Evaluator builds a
// strategy's event streams once per (strategy, horizon) and answers
// exact/grid ratio queries for ANY fault count from them. The streams
// depend only on the strategy and the horizon — the fault count enters
// only in the order statistic taken over the per-robot arrival offsets
// — so one build serves the whole fault range of a strategy (FRange
// evaluates every f in a single breakpoint pass).
//
// The query keeps the robots' arrival offsets as a sorted multiset and
// updates it along the ray's event stream instead of rescanning the
// robots at every breakpoint. The build's merge records, per ray, the
// ascending offsets at x = 1 and one event per visit with
// 1 <= Turn < horizon, in turn order: as the target passes the visit's
// turn, that robot's offset moves from the event's Old to its New (the
// robot's next offset on the ray, +Inf past the end of its table). The
// breakpoints are x = 1 and the distinct event turns, read straight off
// the stream, so no turn lies strictly between two consecutive
// breakpoints x_i < x_{i+1}: the events at Turn <= x_i turn the
// attained multiset at x_i into its right limit, and the right-limit
// multiset at x_i is the attained multiset at x_{i+1}: L_i = A_{i+1}.
// Each breakpoint then costs a copy of k values plus, per event at
// x_i, one scan of at most k slots. The order statistic for f
// faults is element f of the multiset, so every fault count reads it in
// O(1), and the values are the ones any selection over the same
// offsets would return.
//
// The kernel is allocation-free after construction: the start and
// event slices are built once, and the two multisets are scratch
// buffers owned by the Evaluator.
package adversary

import (
	"context"
	"fmt"
	"math"

	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// Evaluator answers worst-case ratio queries for one (strategy, horizon)
// pair from event streams built exactly once. Construct with
// NewEvaluator; Release recycles its buffers through the kernel pool
// (see pool.go).
//
// An Evaluator owns scratch buffers and is therefore NOT safe for
// concurrent use; build one per goroutine (construction is the
// expensive part being shared across fault counts, not across
// goroutines).
type Evaluator struct {
	horizon float64
	m, k    int

	// tables[ray][robot] is the increasing (turn, offset) table of the
	// robot's first-reaching excursions on the ray, a window into
	// visitsBuf. Only the build's merge reads it.
	tables [][][]rayVisit
	// start[ray] holds the k ascending arrival offsets at x = 1: each
	// robot's first visit with Turn >= 1, +Inf for a robot with none.
	start [][]float64
	// events[ray] lists every visit of the ray with 1 <= Turn < horizon
	// in turn order, robots in index order among equal turns; see
	// rayEvent.
	events [][]rayEvent

	// Scratch buffers (all length k), reused so neither the merges nor
	// the queries allocate: the merge ring of the build, and the two
	// offset multisets the breakpoint walk swaps.
	ring []mergeHead
	att  []float64 // ascending arrival offsets at x (Turn >= x)
	lim  []float64 // ascending arrival offsets just beyond x (Turn > x)
	// nextEv is the breakpoint walk's first event of the ray not yet
	// applied, or -1 before the ray's x = 1 candidate.
	nextEv int
	// cand is the candidate the sweep loop has NextCandidate fill;
	// sweepRay is the ray the breakpoint walk is on.
	cand     Candidate
	sweepRay int

	// Build arena (see pool.go): flat backing buffers the tables,
	// start and event slices are partitioned out of, the per-robot
	// filter state, and the pool bookkeeping.
	roundsBuf []trajectory.Round
	robotOff  []int
	visitsBuf []rayVisit
	startBuf  []float64
	eventsBuf []rayEvent
	counts    []int
	maxTurn   []float64 // k rows of m+1 running-maximum filter values
	released  bool
}

// NewEvaluator validates the strategy and horizon and builds the event
// streams, recycling the buffers of a previously Released evaluator
// when the kernel pool has one. The fault count is per query, not per
// evaluator: any f in 0..K()-1 can be asked of the same Evaluator.
func NewEvaluator(s strategy.Strategy, horizon float64) (*Evaluator, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil strategy", ErrBadParams)
	}
	if !(horizon > 1) || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return nil, fmt.Errorf("%w: horizon %g (want finite > 1)", ErrBadParams, horizon)
	}
	e := getEvaluator()
	if err := e.build(s, horizon); err != nil {
		e.Release()
		return nil, err
	}
	return e, nil
}

// replaceSorted swaps one occurrence of old in the ascending multiset a
// for v >= old: a scan from the front finds old, and the values between
// its slot and v's shift down by one place. v >= old holds for every
// event: a robot's offsets never decrease along its table, because
// every turn a strategy emits is positive (trajectory.NewStar and the
// program VM reject any other), so the prefix sums only grow. The scan
// is linear: k is small, and the shift that follows is linear anyway.
func replaceSorted(a []float64, old, v float64) {
	i := 0
	for a[i] < old {
		i++
	}
	for i+1 < len(a) && a[i+1] < v {
		a[i] = a[i+1]
		i++
	}
	a[i] = v
}

// ResetSweep implements Placement: rewind the breakpoint walk to the
// x = 1 candidate of ray 1.
func (e *Evaluator) ResetSweep() {
	e.sweepRay, e.nextEv = 1, -1
}

// NextCandidate implements Placement: the candidates are, ray by ray,
// x = 1 and then each distinct event turn in stream order, each
// exposing the ascending attained and right-limit arrival offsets. The
// limit multiset of one breakpoint is the attained multiset of the
// next (L_i = A_{i+1}), so the two buffers swap roles and only the
// events at the breakpoint — every pending event with Turn <= x — are
// applied.
func (e *Evaluator) NextCandidate(c *Candidate) bool {
	for ; e.sweepRay <= e.m; e.sweepRay, e.nextEv = e.sweepRay+1, -1 {
		evs := e.events[e.sweepRay]
		x := 1.0
		switch {
		case e.nextEv < 0:
			copy(e.att, e.start[e.sweepRay])
			e.nextEv = 0
		case e.nextEv < len(evs):
			x = evs[e.nextEv].Turn
			e.att, e.lim = e.lim, e.att
		default:
			continue
		}
		copy(e.lim, e.att)
		for ; e.nextEv < len(evs) && evs[e.nextEv].Turn <= x; e.nextEv++ {
			replaceSorted(e.lim, evs[e.nextEv].Old, evs[e.nextEv].New)
		}
		c.Ray, c.X, c.Att, c.Lim, c.shift, c.dist = e.sweepRay, x, e.att, e.lim, x, x
		return true
	}
	return false
}

// ExactRatio computes the exact supremum of tau(x)/x over x in
// [1, horizon) on every ray for f crash faults, from the prebuilt
// event streams. The Evaluator is itself a Placement, and the sweep
// (cancellation cadence, running supremum) is the shared sweep loop of
// placement.go, here over the one fault count.
func (e *Evaluator) ExactRatio(ctx context.Context, faults int) (Evaluation, error) {
	return exactRatio(ctx, e, &e.cand, e.k, faults)
}

// FRange evaluates ExactRatio for every fault count f in 0..maxF in a
// single breakpoint pass: the offsets are kept fully ordered anyway, so
// per candidate point the whole order-statistic vector updates every
// fault count's running supremum. This is the cross-f build reuse the
// per-f API cannot express — k fault counts for one build and one
// traversal.
//
// maxF must satisfy 0 <= maxF < K(), and the strategy must cover every
// in-horizon target at least maxF+1 times (true for the optimal cyclic
// exponential strategy of fault budget f whenever maxF <= f); an
// uncovered fault count fails the whole call with ErrUncovered.
func (e *Evaluator) FRange(ctx context.Context, maxF int) ([]Evaluation, error) {
	return fRange(ctx, e, &e.cand, e.k, maxF)
}

// GridRatio estimates the worst ratio for f faults by sampling n
// log-spaced target distances per ray in [1, horizon], from the
// prebuilt streams: it walks the same event stream as ExactRatio,
// applying the events with Turn < x before reading the order
// statistic at each sample x.
func (e *Evaluator) GridRatio(ctx context.Context, faults, n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("%w: need a strategy and n >= 2", ErrBadParams)
	}
	if err := checkFaults(faults, e.k); err != nil {
		return 0, err
	}
	logH := math.Log(e.horizon)
	worst := 0.0
	for ray := 1; ray <= e.m; ray++ {
		evs, next := e.events[ray], 0
		copy(e.att, e.start[ray])
		for i := 0; i < n; i++ {
			if i%cancelCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			x := math.Exp(logH * float64(i) / float64(n-1))
			if x >= e.horizon {
				x = e.horizon * (1 - 1e-12)
			}
			for ; next < len(evs) && evs[next].Turn < x; next++ {
				replaceSorted(e.att, evs[next].Old, evs[next].New)
			}
			c := e.att[faults]
			if math.IsInf(c, 1) {
				return 0, fmt.Errorf("%w: ray %d, x = %g", ErrUncovered, ray, x)
			}
			if ratio := (c + x) / x; ratio > worst {
				worst = ratio
			}
		}
	}
	return worst, nil
}
