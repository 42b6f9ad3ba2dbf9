// evaluator.go is the reusable adversary kernel: an Evaluator builds a
// strategy's visit tables once per (strategy, horizon) and answers
// exact/grid ratio queries for ANY fault count from them. The tables
// depend only on the strategy and the horizon — the fault count enters
// only in the order statistic taken over the per-robot arrival offsets
// — so one table build serves the whole fault range of a strategy
// (FRange evaluates every f in a single breakpoint pass).
//
// The query keeps the robots' arrival offsets as a sorted multiset and
// updates it along the ray's event stream instead of rescanning the
// tables at every breakpoint. The build's k-way merge records one event
// per in-horizon visit, in turn order: as the target passes the visit's
// turn, that robot's offset moves from its table entry to the next one
// (+Inf past the end of the table). The breakpoints are exactly the
// in-horizon turns, so no turn lies strictly between two consecutive
// breakpoints x_i < x_{i+1}, and the right-limit multiset at x_i is the
// attained multiset at x_{i+1}: L_i = A_{i+1}. A ray's walk therefore
// sorts the k offsets at x = 1 once, and each breakpoint then costs a
// copy of k values plus, per event at x_i, one binary search and a
// short shift — in place of a rescan of k cursors and two partial
// selections. The order statistic for f faults is element f of the
// multiset, so every fault count reads it in O(1), and the values are
// the ones any selection over the same offsets would return.
//
// The kernel is allocation-free after construction: the breakpoint and
// event slices are built once, and the two multisets are scratch
// buffers owned by the Evaluator.
package adversary

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// Evaluator answers worst-case ratio queries for one (strategy, horizon)
// pair from tables built exactly once. Construct with NewEvaluator;
// Release recycles its buffers through the kernel pool (see pool.go).
//
// An Evaluator owns scratch buffers and is therefore NOT safe for
// concurrent use; build one per goroutine (construction is the
// expensive part being shared across fault counts, not across
// goroutines).
type Evaluator struct {
	s       strategy.Strategy
	horizon float64
	m, k    int

	// tables[ray][robot] is the increasing (turn, offset) table of the
	// robot's first-reaching excursions on the ray, a window into
	// visitsBuf.
	tables [][][]rayVisit
	// breaks[ray] is the sorted, deduplicated candidate-point slice of
	// the ray: x = 1 plus every turning point in [1, horizon).
	breaks [][]float64
	// events[ray] lists every visit of the ray with Turn < horizon
	// (turns below 1 included) in turn order; see rayEvent.
	events [][]rayEvent

	// Scratch buffers (all length k), reused so neither the merges nor
	// the queries allocate: the merge state of the build, and the two
	// offset multisets the breakpoint walk swaps.
	cursors []int     // merge position per robot table
	heads   []float64 // turn at the merge position per robot
	att     []float64 // ascending arrival offsets at x (Turn >= x)
	lim     []float64 // ascending arrival offsets just beyond x (Turn > x)
	// nextEv is the ray's first event not yet applied to the multiset
	// being advanced.
	nextEv int
	// cand is the candidate the sweep loops have NextCandidate fill;
	// sweepRay/sweepIdx are the Placement iteration state of the
	// breakpoint walk.
	cand     Candidate
	sweepRay int
	sweepIdx int

	// Build arena (see pool.go): flat backing buffers the tables,
	// breakpoint and event slices are partitioned out of, the
	// per-robot filter state, and the pool bookkeeping.
	roundsBuf []trajectory.Round
	robotOff  []int
	visitsBuf []rayVisit
	breaksBuf []float64
	eventsBuf []rayEvent
	counts    []int
	maxTurn   []float64 // k rows of m+1 running-maximum filter values
	released  bool
}

// NewEvaluator validates the strategy and horizon and builds the visit
// tables and breakpoint slices, recycling the buffers of a previously
// Released evaluator when the kernel pool has one. The fault count is
// per query, not per evaluator: any f in 0..K()-1 can be asked of the
// same Evaluator.
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

// Strategy returns the strategy under evaluation.
func (e *Evaluator) Strategy() strategy.Strategy { return e.s }

// Horizon returns the evaluation horizon.
func (e *Evaluator) Horizon() float64 { return e.horizon }

// Breakpoints returns the total number of candidate points across all
// rays — the work one ExactRatio query performs.
func (e *Evaluator) Breakpoints() int {
	n := 0
	for ray := 1; ray <= e.m; ray++ {
		n += len(e.breaks[ray])
	}
	return n
}

// breakpointSlice flattens one ray's candidate points — x = 1 plus
// every turning point in [1, horizon) — into a sorted, deduplicated
// slice. It is the reference implementation the pooled build's k-way
// merge (pool.go) must reproduce bit-for-bit; the equivalence tests
// compare the two.
func breakpointSlice(tables [][]rayVisit, horizon float64) []float64 {
	n := 1
	for _, table := range tables {
		n += len(table)
	}
	out := make([]float64, 1, n)
	out[0] = 1
	for _, table := range tables {
		for _, v := range table {
			if v.Turn >= 1 && v.Turn < horizon {
				out = append(out, v.Turn)
			}
		}
	}
	sort.Float64s(out)
	// In-place dedup (turns shared between robots, and 1 may itself be
	// a turning point).
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// startRay loads into a the ascending arrival offsets at x = 1 on the
// ray — every robot's first table entry (+Inf for a robot that never
// enters the ray), sorted once, then advanced past the turns below 1 —
// and rewinds the ray's event cursor.
func (e *Evaluator) startRay(ray int, a []float64) {
	for r, t := range e.tables[ray] {
		a[r] = math.Inf(1)
		if len(t) > 0 {
			a[r] = t[0].Offset
		}
	}
	slices.Sort(a)
	e.nextEv = 0
	e.advance(ray, a, 1)
}

// advance applies to the ascending offsets a every pending event of the
// ray with Turn < x, leaving in a the offsets at x: each robot's first
// visit with Turn >= x. Successive calls on one ray must use
// nondecreasing x (the event cursor only advances).
func (e *Evaluator) advance(ray int, a []float64, x float64) {
	evs, tables := e.events[ray], e.tables[ray]
	for ; e.nextEv < len(evs) && evs[e.nextEv].Turn < x; e.nextEv++ {
		ev := evs[e.nextEv]
		t := tables[ev.robot]
		next := math.Inf(1)
		if i := int(ev.idx) + 1; i < len(t) {
			next = t[i].Offset
		}
		replaceSorted(a, t[ev.idx].Offset, next)
	}
}

// replaceSorted swaps one occurrence of old in the ascending multiset a
// for v >= old: a binary search finds old, and the values between its
// slot and v's shift down by one place. v >= old holds for every event:
// a robot's offsets never decrease along its table, because every turn
// a strategy emits is positive (trajectory.NewStar and the program VM
// reject any other), so the prefix sums only grow.
func replaceSorted(a []float64, old, v float64) {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < old {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	for i+1 < len(a) && a[i+1] < v {
		a[i] = a[i+1]
		i++
	}
	a[i] = v
}

// ResetSweep implements Placement: rewind the breakpoint walk to the
// start of ray 1.
func (e *Evaluator) ResetSweep() {
	e.sweepRay, e.sweepIdx = 1, 0
}

// NextCandidate implements Placement: the candidates are, ray by ray,
// the sorted breakpoints of the ray (x = 1 plus every in-horizon
// turning point), each exposing the ascending attained and right-limit
// arrival offsets. The limit multiset of one breakpoint is the
// attained multiset of the next (L_i = A_{i+1}), so the two buffers
// swap roles and only the events at the breakpoint are applied: every
// event with Turn < x_{i+1}, or all that remain (they are all below
// the horizon) at the ray's last breakpoint.
func (e *Evaluator) NextCandidate(c *Candidate) bool {
	for ; e.sweepRay <= e.m; e.sweepRay, e.sweepIdx = e.sweepRay+1, 0 {
		br := e.breaks[e.sweepRay]
		if e.sweepIdx == len(br) {
			continue
		}
		if e.sweepIdx == 0 {
			e.startRay(e.sweepRay, e.lim)
		}
		e.att, e.lim = e.lim, e.att
		copy(e.lim, e.att)
		next := e.horizon
		if e.sweepIdx+1 < len(br) {
			next = br[e.sweepIdx+1]
		}
		e.advance(e.sweepRay, e.lim, next)
		c.Ray, c.X, c.Att, c.Lim = e.sweepRay, br[e.sweepIdx], e.att, e.lim
		e.sweepIdx++
		return true
	}
	return false
}

// CandidateRatio implements Placement: an arrival offset C at distance
// x certifies the ratio (C + x) / x.
func (e *Evaluator) CandidateRatio(c *Candidate, v float64) float64 {
	return (v + c.X) / c.X
}

// checkFaults validates a per-query fault count against the strategy.
func (e *Evaluator) checkFaults(faults int) error {
	if faults < 0 || faults >= e.k {
		return fmt.Errorf("%w: %d faults with %d robots", ErrBadParams, faults, e.k)
	}
	return nil
}

// ExactRatio computes the exact supremum of tau(x)/x over x in
// [1, horizon) on every ray for f crash faults, from the prebuilt
// tables. The Evaluator is itself a Placement, and the sweep
// (cancellation cadence, running supremum) is the shared supRatio loop
// of placement.go.
func (e *Evaluator) ExactRatio(ctx context.Context, faults int) (Evaluation, error) {
	if err := e.checkFaults(faults); err != nil {
		return Evaluation{}, err
	}
	return supRatio(ctx, e, &e.cand, faults)
}

// FRange evaluates ExactRatio for every fault count f in 0..maxF in a
// single breakpoint pass: the offsets are kept fully ordered anyway, so
// per candidate point the whole order-statistic vector updates every
// fault count's running supremum. This is the cross-f table
// reuse the per-f API cannot express — k fault counts for one table
// build and one traversal.
//
// maxF must satisfy 0 <= maxF < K(), and the strategy must cover every
// in-horizon target at least maxF+1 times (true for the optimal cyclic
// exponential strategy of fault budget f whenever maxF <= f); an
// uncovered fault count fails the whole call with ErrUncovered.
func (e *Evaluator) FRange(ctx context.Context, maxF int) ([]Evaluation, error) {
	if err := e.checkFaults(maxF); err != nil {
		return nil, err
	}
	return supRatios(ctx, e, &e.cand, maxF)
}

// GridRatio estimates the worst ratio for f faults by sampling n
// log-spaced target distances per ray in [1, horizon], from the
// prebuilt tables: it walks the same event stream as ExactRatio,
// applying the events with Turn < x before reading the order
// statistic at each sample x.
func (e *Evaluator) GridRatio(ctx context.Context, faults, n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("%w: need a strategy and n >= 2", ErrBadParams)
	}
	if err := e.checkFaults(faults); err != nil {
		return 0, err
	}
	logH := math.Log(e.horizon)
	worst := 0.0
	for ray := 1; ray <= e.m; ray++ {
		e.startRay(ray, e.att)
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
			e.advance(ray, e.att, x)
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
