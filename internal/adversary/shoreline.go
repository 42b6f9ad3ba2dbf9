// shoreline.go is the first planar Placement: the adversary of the
// shoreline-search family (Acharjee–Georgiou–Kundu–Srinivasan 2020).
// The target is a LINE in the plane — a shoreline an unknown distance
// d from the origin with unknown orientation — and the searchers are k
// unit-speed robots on straight-ray headings. With f crash faults the
// adversary silences the f robots that would reach the shoreline
// first, so detection happens at the (f+1)-st smallest hit time and
// the competitive ratio of a placement (phi, d) is that hit time over
// d.
//
// For straight-ray strategies the sweep is exact, not sampled: a robot
// at heading theta hits the line with unit normal u(phi) at signed
// distance d at time d*sec(delta) (delta the angular distance between
// theta and phi) when delta < pi/2, and never otherwise. The hit time
// is linear in d, so the ratio is independent of d and the sweep
// probes the unit-distance line. As a function of phi the (f+1)-st
// smallest angular distance is piecewise linear with slope +-1, so its
// local maxima — and, sec being increasing on [0, pi/2), the ratio's
// suprema — occur only where two robots' angular distances coincide
// (the pairwise bisector headings, both of them) or at a kink of a
// single robot's distance (the headings and their antipodes). Sweeping
// exactly that finite candidate set is the planar counterpart of the
// line kernel's breakpoint argument, and the sweep itself is the same
// shared sweep loop (placement.go) the crash Evaluator runs on.
package adversary

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/trajectory"
)

// ShorelineEvaluator answers worst-case shoreline ratio queries for one
// set of robot headings from a candidate sweep built once. Like the
// line kernel's Evaluator it owns scratch buffers (NOT safe for
// concurrent use) and recycles them through a pool: construct with
// NewShorelineEvaluator, query any fault count in 0..k-1, Release when
// done.
type ShorelineEvaluator struct {
	paths    []*trajectory.Planar
	cands    []float64 // sorted deduplicated candidate normal headings
	att      []float64 // the robots' hit times at the current candidate, ascending
	cand     Candidate
	idx      int
	released bool
}

// shorePool recycles ShorelineEvaluators with their backing buffers,
// mirroring the line kernel's evaluator pool.
var shorePool sync.Pool

// SpreadHeadings returns the canonical spread-ray strategy's headings:
// k robots at angles 2*pi*i/k, the equally-spaced family whose
// worst-case (f+1)-st smallest angular distance, (f+1)*pi/k, is
// minimal among straight-ray strategies (an exchange argument: any
// unequal spacing widens some gap of f+1 consecutive headings).
func SpreadHeadings(k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = 2 * math.Pi * float64(i) / float64(k)
	}
	return out
}

// canonicalAngle folds an angle into [0, 2*pi).
func canonicalAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// NewShorelineEvaluator builds the planar adversary for robots on
// straight-ray headings with rays of the given length (the horizon:
// a shoreline whose (f+1)-st hit would need time > horizon reads as
// uncovered, exactly like an out-of-window line target). Buffers come
// from the shoreline pool when it has any.
func NewShorelineEvaluator(headings []float64, horizon float64) (*ShorelineEvaluator, error) {
	if len(headings) < 1 {
		return nil, fmt.Errorf("%w: need at least one robot heading", ErrBadParams)
	}
	if !(horizon > 1) || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return nil, fmt.Errorf("%w: horizon %g (want finite > 1)", ErrBadParams, horizon)
	}
	for i, h := range headings {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return nil, fmt.Errorf("%w: heading %d is %g", ErrBadParams, i, h)
		}
	}
	se := getShoreline()
	if err := se.build(headings, horizon); err != nil {
		se.Release()
		return nil, err
	}
	return se, nil
}

func getShoreline() *ShorelineEvaluator {
	if v := shorePool.Get(); v != nil {
		se := v.(*ShorelineEvaluator)
		se.released = false
		return se
	}
	return &ShorelineEvaluator{}
}

// Release returns the evaluator's buffers to the shoreline pool. The
// evaluator must not be used after Release; a second Release is a
// no-op.
func (se *ShorelineEvaluator) Release() {
	if se == nil || se.released {
		return
	}
	se.released = true
	shorePool.Put(se)
}

// build populates the evaluator: one ray path per robot and the exact
// candidate set (headings, antipodes, pairwise bisectors and their
// antipodes), sorted and deduplicated.
func (se *ShorelineEvaluator) build(headings []float64, horizon float64) error {
	k := len(headings)
	if cap(se.paths) < k {
		se.paths = make([]*trajectory.Planar, k)
	}
	se.paths = se.paths[:k]
	for i, h := range headings {
		p, err := trajectory.PlanarRay(h, horizon)
		if err != nil {
			return fmt.Errorf("%w: heading %d: %v", ErrBadParams, i, err)
		}
		se.paths[i] = p
	}
	se.cands = se.cands[:0]
	for i, a := range headings {
		se.cands = append(se.cands, canonicalAngle(a), canonicalAngle(a+math.Pi))
		for _, b := range headings[i+1:] {
			mid := (a + b) / 2
			se.cands = append(se.cands, canonicalAngle(mid), canonicalAngle(mid+math.Pi))
		}
	}
	sort.Float64s(se.cands)
	w := 1
	for i := 1; i < len(se.cands); i++ {
		if se.cands[i] != se.cands[w-1] {
			se.cands[w] = se.cands[i]
			w++
		}
	}
	se.cands = se.cands[:w]
	se.att = resize(se.att, k)
	se.idx = 0
	return nil
}

// ResetSweep implements Placement.
func (se *ShorelineEvaluator) ResetSweep() { se.idx = 0 }

// NextCandidate implements Placement: candidate i is the shoreline
// with unit normal at heading cands[i] probed at distance 1; Att
// carries the robots' hit times from the planar geometry (Planar
// .FirstHitLine, +Inf for robots that never reach it), sorted
// ascending. Every candidate moves every hit time, so there is no
// order to carry from one candidate to the next. Shoreline
// candidates are isolated kink points, so there is no right-limit
// structure (Lim = nil), and the locator sets Ray = 0 (the plane has
// no rays) with X = the normal's heading in radians. Hit times are
// probed at target distance 1, so a hit time is its own ratio
// (shift 0, dist 1).
func (se *ShorelineEvaluator) NextCandidate(c *Candidate) bool {
	if se.idx >= len(se.cands) {
		return false
	}
	phi := se.cands[se.idx]
	se.idx++
	u := trajectory.UnitDir(phi)
	for i, p := range se.paths {
		se.att[i] = p.FirstHitLine(u, 1)
	}
	slices.Sort(se.att)
	c.Ray, c.X, c.Att, c.Lim, c.shift, c.dist = 0, phi, se.att, nil, 0, 1
	return true
}

// ExactRatio computes the exact worst-case shoreline ratio for f crash
// faults: the supremum over shoreline placements of the (f+1)-st
// smallest hit time over the distance. The returned Evaluation locates
// the supremum with WorstRay = 0 and WorstX = the worst normal heading
// in radians.
func (se *ShorelineEvaluator) ExactRatio(ctx context.Context, faults int) (Evaluation, error) {
	return exactRatio(ctx, se, &se.cand, len(se.paths), faults)
}

// FRange evaluates ExactRatio for every fault count 0..maxF in a
// single candidate sweep, exactly as the line kernel's FRange shares
// one breakpoint pass across fault counts.
func (se *ShorelineEvaluator) FRange(ctx context.Context, maxF int) ([]Evaluation, error) {
	return fRange(ctx, se, &se.cand, len(se.paths), maxF)
}

var (
	_ Placement = (*Evaluator)(nil)
	_ Placement = (*ShorelineEvaluator)(nil)
)
