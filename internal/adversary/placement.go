// placement.go is the geometry-generic core of the adversary: a target
// placement is anything the adversary can point at (a distance on a ray
// of the star, a shoreline heading in the plane), and the sweep
// plumbing — cooperative cancellation cadence and per-fault-count
// running suprema — is one loop shared by every geometry instead of
// forked per adversary or per query. The crash Evaluator's breakpoint
// machinery (evaluator.go) and the planar ShorelineEvaluator
// (shoreline.go) are both Placements driven by sweep.
//
// A Placement hands the loop its arrival measures already in ascending
// order, so the (f+1)-st smallest measure — the detection time against
// f crashes — is element f, read in O(1). How the order is kept is the
// placement's business: the crash Evaluator maintains its multiset
// incrementally along the ray's event stream, the shoreline sorts its
// k hit times per candidate.
package adversary

import (
	"context"
	"fmt"
	"math"
)

// Candidate is one target placement the adversary may choose: a
// geometric locator plus the robots' arrival measures there.
//
// The locator reuses the Evaluation coordinates: Ray/X are the ray
// index and distance for line placements; planar placements set Ray to
// 0 (there is no ray) and X to the placement's own coordinate (the
// shoreline normal's heading, in radians).
type Candidate struct {
	Ray int
	X   float64
	// Att holds the robots' arrival measures with the target exactly at
	// the candidate, in ascending order: Att[f] is the (f+1)-st
	// smallest, +Inf once fewer than f+1 robots arrive within the
	// evaluated window. Lim holds the right-limit measures just beyond
	// the candidate, in the same order. Lim is nil for placements with
	// no one-sided limit structure (the planar sweeps, whose candidate
	// sets are finite kink points rather than interval endpoints).
	Att, Lim []float64
	// A measure v at the candidate certifies the competitive ratio
	// (v + shift) / dist: shift = dist = x for an arrival offset at
	// distance x on a ray, shift = 0 and dist = 1 for a hit time at the
	// unit-distance shoreline.
	shift, dist float64
}

// Placement enumerates an adversary's candidate target placements in
// sweep order. Implementations own the Att/Lim backing arrays; the
// slices a NextCandidate call exposes remain valid only until the next
// call.
type Placement interface {
	// ResetSweep rewinds the sweep (and any incremental state) to the
	// first candidate.
	ResetSweep()
	// NextCandidate advances to the next candidate, filling c; it
	// reports false when the sweep is exhausted.
	NextCandidate(c *Candidate) bool
}

// checkFaults validates a fault count against k robots.
func checkFaults(faults, k int) error {
	if faults < 0 || faults >= k {
		return fmt.Errorf("%w: %d faults with %d robots", ErrBadParams, faults, k)
	}
	return nil
}

// exactRatio is the ExactRatio query of a placement of k robots: one
// sweep for the one fault count, into an array on this frame, so the
// query allocates nothing.
func exactRatio(ctx context.Context, p Placement, c *Candidate, k, faults int) (Evaluation, error) {
	if err := checkFaults(faults, k); err != nil {
		return Evaluation{}, err
	}
	var ev [1]Evaluation
	if err := sweep(ctx, p, c, faults, ev[:]); err != nil {
		return Evaluation{}, err
	}
	return ev[0], nil
}

// fRange is the FRange query of a placement of k robots: one sweep for
// every fault count 0..maxF.
func fRange(ctx context.Context, p Placement, c *Candidate, k, maxF int) ([]Evaluation, error) {
	if err := checkFaults(maxF, k); err != nil {
		return nil, err
	}
	evals := make([]Evaluation, maxF+1)
	if err := sweep(ctx, p, c, 0, evals); err != nil {
		return nil, err
	}
	return evals, nil
}

// sweep runs one full placement sweep for the fault counts
// lo..lo+len(evals)-1 into the caller's evals: at every candidate the
// (f+1)-st smallest arrival measure, attained and then right-limit
// when the placement has one, updates fault count f's running
// supremum. An infinite attained measure means the target placement is
// not reached by f+1 robots — ErrUncovered; the measures ascend, so
// the largest fault count is the first to go infinite and the only one
// checked. An infinite right-limit measure only marks the end of the
// evaluated window and skips the candidate for that fault count.
//
// c is the caller-owned candidate the placement fills in place; keeping
// it in the evaluator rather than on this frame, and evals in the
// caller, keeps the sweep allocation-free (the allocation-pinned CI
// step counts on this).
func sweep(ctx context.Context, p Placement, c *Candidate, lo int, evals []Evaluation) error {
	for i := range evals {
		evals[i] = Evaluation{WorstRatio: -1}
	}
	top := lo + len(evals) - 1
	n := 0
	p.ResetSweep()
	for p.NextCandidate(c) {
		n++
		if n%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if math.IsInf(c.Att[top], 1) {
			return fmt.Errorf("%w: ray %d, x = %g", ErrUncovered, c.Ray, c.X)
		}
		shift, dist, lim := c.shift, c.dist, c.Lim
		for i, v := range c.Att[lo : top+1] {
			ev := &evals[i]
			if r := (v + shift) / dist; r > ev.WorstRatio {
				ev.WorstRatio, ev.WorstRay, ev.WorstX, ev.Attained = r, c.Ray, c.X, true
			}
			if lim == nil {
				continue
			}
			if v := lim[lo+i]; !math.IsInf(v, 1) {
				if r := (v + shift) / dist; r > ev.WorstRatio {
					ev.WorstRatio, ev.WorstRay, ev.WorstX, ev.Attained = r, c.Ray, c.X, false
				}
			}
		}
	}
	for i := range evals {
		evals[i].Breakpoints = n
	}
	return nil
}
