// Package adversary computes the exact worst-case competitive ratio of a
// search strategy against the optimal adversary of Kupavskii–Welzl
// (PODC 2018): the adversary places the target at distance x >= 1 on a ray
// of its choice and crashes the f robots that would arrive first, so the
// detection time is
//
//	tau(x) = the (f+1)-st smallest first-arrival time at x,
//
// and the competitive ratio is sup_{x >= 1} tau(x)/x.
//
// The supremum is computed exactly (within the horizon), not sampled: for
// a fixed ray, each robot's first-arrival time is x plus a piecewise-
// constant offset 2*(t1+...+t_{j-1}) that jumps only at the robot's
// (running-maximum) turning points. Between jumps tau(x)/x = (C+x)/x is
// strictly decreasing, so the supremum is approached at the right-limits
// of the jump points and at x = 1. Grid sampling — the obvious alternative
// — systematically underestimates the ratio; the ablation benchmark
// quantifies by how much.
package adversary

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/strategy"
)

// cancelCheckEvery is how many breakpoints/samples the evaluator loops
// process between cooperative context checks — frequent enough that a
// cancelled evaluation stops within microseconds, rare enough that the
// check cost vanishes against 64 points' multiset updates (a copy of k
// offsets and a short scan per event at each breakpoint).
const cancelCheckEvery = 64

// Errors returned by the evaluator.
var (
	// ErrBadParams is returned for invalid evaluation parameters.
	ErrBadParams = errors.New("adversary: invalid parameters")
	// ErrUncovered is returned when some target within the horizon is not
	// reached by enough robots (the strategy does not solve the problem).
	ErrUncovered = errors.New("adversary: a target within the horizon is not reached by f+1 robots")
)

// rayVisit is one (turning point, arrival offset) pair of a robot on one
// ray: any target x <= Turn on the ray is first reached by this robot at
// Offset + x, provided no earlier excursion of the robot reached x.
type rayVisit struct {
	// Turn is the excursion's turning point (running maximum: dominated
	// excursions are dropped).
	Turn float64
	// Offset is twice the sum of all earlier turning points of the robot
	// across all rays.
	Offset float64
}

// rayEvent is one visit of a ray's event stream: as a target on the ray
// passes Turn, one robot's arrival offset moves from Old (the visit's
// own offset) to New, the offset of the robot's next visit on the ray
// (+Inf past the end of its table).
type rayEvent struct {
	Turn, Old, New float64
}

// Evaluation reports the exact worst case of a strategy.
type Evaluation struct {
	// WorstRatio is sup tau(x)/x over all rays and x in [1, horizon).
	WorstRatio float64
	// WorstRay and WorstX locate the supremum: the ratio approaches
	// WorstRatio as x decreases to WorstX from above (or is attained at
	// WorstX when Attained).
	WorstRay int
	WorstX   float64
	// Attained is true when the supremum is attained (x = 1 boundary).
	Attained bool
	// Breakpoints counts the candidate points examined.
	Breakpoints int
}

// ExactRatio computes the exact supremum of tau(x)/x over x in [1, horizon)
// on every ray, for the crash-fault adversary with f faults. The
// breakpoint loop checks ctx every cancelCheckEvery candidates and
// returns ctx's error promptly when cancelled, so an abandoned
// evaluation stops consuming a worker mid-ray instead of finishing for
// nobody.
//
// It is a thin wrapper over a single-use Evaluator; callers evaluating
// the same strategy at several fault counts should build the Evaluator
// themselves (or use FRange) so the visit tables are built once.
func ExactRatio(ctx context.Context, s strategy.Strategy, faults int, horizon float64) (Evaluation, error) {
	if s == nil {
		return Evaluation{}, fmt.Errorf("%w: nil strategy", ErrBadParams)
	}
	if err := checkFaults(faults, s.K()); err != nil {
		return Evaluation{}, err
	}
	e, err := NewEvaluator(s, horizon)
	if err != nil {
		return Evaluation{}, err
	}
	defer e.Release()
	return e.ExactRatio(ctx, faults)
}

// GridRatio estimates the worst ratio by sampling n log-spaced target
// distances per ray in [1, horizon]. It underestimates the true supremum
// (the sup lives at right-limits of turning points, which a grid almost
// surely misses); it exists for the grid-vs-exact ablation and as an
// independent cross-check (Grid <= Exact must always hold). Like
// ExactRatio it cancels cooperatively and is a thin wrapper over a
// single-use Evaluator.
func GridRatio(ctx context.Context, s strategy.Strategy, faults int, horizon float64, n int) (float64, error) {
	if s == nil || n < 2 {
		return 0, fmt.Errorf("%w: need a strategy and n >= 2", ErrBadParams)
	}
	if err := checkFaults(faults, s.K()); err != nil {
		return 0, err
	}
	e, err := NewEvaluator(s, horizon)
	if err != nil {
		return 0, err
	}
	defer e.Release()
	return e.GridRatio(ctx, faults, n)
}
