// placement.go is the geometry-generic core of the adversary: a target
// placement is anything the adversary can point at (a distance on a ray
// of the star, a shoreline heading in the plane), and the sweep
// plumbing — cooperative cancellation cadence and per-fault-count
// running suprema — is shared by every geometry instead of forked per
// adversary. The crash Evaluator's breakpoint machinery (evaluator.go)
// and the planar ShorelineEvaluator (shoreline.go) are both Placements
// driven by the same supRatio/supRatios loops.
//
// A Placement hands the loops its arrival measures already in
// ascending order, so the (f+1)-st smallest measure — the detection
// time against f crashes — is element f, read in O(1). How the order
// is kept is the placement's business: the crash Evaluator maintains
// its multiset incrementally along the ray's event stream, the
// shoreline sorts its k hit times per candidate.
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
}

// Placement enumerates an adversary's candidate target placements in
// sweep order and converts a selected arrival measure into the
// competitive ratio it certifies. Implementations own the Att/Lim
// backing arrays; the slices a NextCandidate call exposes remain valid
// only until the next call.
type Placement interface {
	// ResetSweep rewinds the sweep (and any incremental state) to the
	// first candidate.
	ResetSweep()
	// NextCandidate advances to the next candidate, filling c; it
	// reports false when the sweep is exhausted.
	NextCandidate(c *Candidate) bool
	// CandidateRatio converts the selected arrival measure v at
	// candidate c into a competitive ratio ((v+x)/x for line offsets,
	// t/d for planar hit times).
	CandidateRatio(c *Candidate, v float64) float64
}

// supRatio runs one full placement sweep for a single fault count: at
// every candidate the (f+1)-st smallest arrival measure (attained,
// then right-limit when the placement has one) updates the running
// supremum. An infinite attained measure means the target placement is
// not reached by f+1 robots — ErrUncovered; an infinite right-limit
// measure only marks the end of the evaluated window and skips the
// candidate, exactly as the original per-ray breakpoint loop did.
//
// c is the caller-owned candidate the placement fills in place; keeping
// it in the evaluator rather than on this frame keeps the sweep
// allocation-free (the allocation-pinned CI step counts on this).
func supRatio(ctx context.Context, p Placement, c *Candidate, faults int) (Evaluation, error) {
	p.ResetSweep()
	eval := Evaluation{WorstRatio: -1}
	for p.NextCandidate(c) {
		eval.Breakpoints++
		if eval.Breakpoints%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Evaluation{}, err
			}
		}
		cAtt := c.Att[faults]
		if math.IsInf(cAtt, 1) {
			return Evaluation{}, fmt.Errorf("%w: ray %d, x = %g", ErrUncovered, c.Ray, c.X)
		}
		if ratio := p.CandidateRatio(c, cAtt); ratio > eval.WorstRatio {
			eval = Evaluation{
				WorstRatio: ratio, WorstRay: c.Ray, WorstX: c.X,
				Attained: true, Breakpoints: eval.Breakpoints,
			}
		}
		if c.Lim == nil {
			continue
		}
		cLim := c.Lim[faults]
		if math.IsInf(cLim, 1) {
			continue
		}
		if ratio := p.CandidateRatio(c, cLim); ratio > eval.WorstRatio {
			eval = Evaluation{
				WorstRatio: ratio, WorstRay: c.Ray, WorstX: c.X,
				Attained: false, Breakpoints: eval.Breakpoints,
			}
		}
	}
	return eval, nil
}

// supRatios is the FRange form of supRatio: one sweep serves every
// fault count 0..maxF, each count's running supremum reading its own
// element of the ordered arrival measures.
func supRatios(ctx context.Context, p Placement, c *Candidate, maxF int) ([]Evaluation, error) {
	evals := make([]Evaluation, maxF+1)
	for f := range evals {
		evals[f].WorstRatio = -1
	}
	p.ResetSweep()
	checked := 0
	for p.NextCandidate(c) {
		checked++
		if checked%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for f := 0; f <= maxF; f++ {
			evals[f].Breakpoints++
			cAtt := c.Att[f]
			if math.IsInf(cAtt, 1) {
				return nil, fmt.Errorf("%w: ray %d, x = %g (fault count %d)", ErrUncovered, c.Ray, c.X, f)
			}
			if ratio := p.CandidateRatio(c, cAtt); ratio > evals[f].WorstRatio {
				evals[f] = Evaluation{
					WorstRatio: ratio, WorstRay: c.Ray, WorstX: c.X,
					Attained: true, Breakpoints: evals[f].Breakpoints,
				}
			}
		}
		if c.Lim == nil {
			continue
		}
		for f := 0; f <= maxF; f++ {
			cLim := c.Lim[f]
			if math.IsInf(cLim, 1) {
				continue
			}
			if ratio := p.CandidateRatio(c, cLim); ratio > evals[f].WorstRatio {
				evals[f] = Evaluation{
					WorstRatio: ratio, WorstRay: c.Ray, WorstX: c.X,
					Attained: false, Breakpoints: evals[f].Breakpoints,
				}
			}
		}
	}
	return evals, nil
}
