// Package fractional implements the fractional one-ray retrieval with
// returns of Kupavskii–Welzl (PODC 2018), Section 3, Eq. (11):
//
//	C(eta) = 2 * eta^eta / (eta-1)^(eta-1) + 1,  eta > 1.
//
// Robots have positive weights summing to 1 and move on the single ray
// R>=0, returning to the origin between rounds; a target at distance x
// must be covered by rounds of total weight eta (re-covering by the same
// robot counts per round). The paper proves Eq. (11) by a two-sided
// reduction to the integer ORC problem of Eq. (10):
//
//   - Upper bound: pick rationals q_i/k_i >= eta converging to eta; run the
//     q_i-fold ORC strategy with k_i robots of weight 1/k_i each; the ratio
//     2*mu(q_i,k_i)+1 converges to C(eta).
//
//   - Lower bound: replicate a weighted strategy into integer robots
//     (robot of weight w becomes ~q*w/eta unit robots) and apply Eq. (10).
//
// This package provides the weighted coverage sweep, the measured
// competitive ratio of a weighted strategy (exact over a horizon, via the
// same right-limit breakpoint analysis as internal/adversary), the rational
// reduction strategies, and the replication used by the lower bound.
package fractional

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cover"
	"repro/internal/strategy"
)

// Errors returned by the fractional machinery.
var (
	// ErrBadParams is returned for invalid parameters.
	ErrBadParams = errors.New("fractional: invalid parameters")
	// ErrUncovered is returned when a target cannot accumulate weight eta
	// within the strategy's horizon.
	ErrUncovered = errors.New("fractional: target cannot accumulate the required weight")
)

// WeightedRobot is one robot of the fractional problem: a weight and its
// ORC excursion distances in execution order.
type WeightedRobot struct {
	Weight float64
	Turns  []float64
}

// ValidateRobots checks weights (positive, summing to 1 within tolerance)
// and turn sequences.
func ValidateRobots(robots []WeightedRobot) error {
	if len(robots) == 0 {
		return fmt.Errorf("%w: no robots", ErrBadParams)
	}
	sum := 0.0
	for i, r := range robots {
		if !(r.Weight > 0) || math.IsInf(r.Weight, 0) {
			return fmt.Errorf("%w: robot %d weight %g", ErrBadParams, i, r.Weight)
		}
		sum += r.Weight
		for j, t := range r.Turns {
			if !(t > 0) || math.IsInf(t, 0) {
				return fmt.Errorf("%w: robot %d turn %d is %g", ErrBadParams, i, j+1, t)
			}
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%w: weights sum to %.12g, want 1", ErrBadParams, sum)
	}
	return nil
}

// WeightSegment is a maximal interval (Lo, Hi] of constant covering weight.
type WeightSegment struct {
	Lo, Hi float64
	Weight float64
}

// WeightProfile is the lambda-covering weight as a step function on
// (1, UpTo].
type WeightProfile struct {
	Segments []WeightSegment
	UpTo     float64
}

// MinWeight returns the minimum covering weight over the profile.
func (p WeightProfile) MinWeight() float64 {
	if len(p.Segments) == 0 {
		return 0
	}
	min := p.Segments[0].Weight
	for _, s := range p.Segments[1:] {
		if s.Weight < min {
			min = s.Weight
		}
	}
	return min
}

// FirstBelow returns the left end of the first segment with weight below
// eta (minus a small tolerance), if any.
func (p WeightProfile) FirstBelow(eta float64) (float64, bool) {
	for _, s := range p.Segments {
		if s.Weight < eta-1e-9 {
			return s.Lo, true
		}
	}
	return 0, false
}

// Coverage sweeps the weighted lambda-covering of (1, upTo]: each robot's
// fruitful ORC rounds contribute their weight on [t”_i, t_i].
func Coverage(robots []WeightedRobot, lambda, upTo float64) (WeightProfile, error) {
	if err := ValidateRobots(robots); err != nil {
		return WeightProfile{}, err
	}
	if !(upTo > 1) || math.IsInf(upTo, 0) || math.IsNaN(upTo) {
		return WeightProfile{}, fmt.Errorf("%w: upTo = %g", ErrBadParams, upTo)
	}
	type event struct {
		at float64
		dw float64
	}
	var events []event
	for r, rob := range robots {
		ivs, err := cover.ORCCovIntervals(r, rob.Turns, lambda)
		if err != nil {
			return WeightProfile{}, fmt.Errorf("fractional: robot %d: %w", r, err)
		}
		for _, iv := range ivs {
			lo := math.Max(iv.Lo, 1)
			hi := math.Min(iv.Hi, upTo)
			if iv.Hi <= 1 || lo >= upTo || hi <= lo {
				continue
			}
			events = append(events, event{at: lo, dw: rob.Weight})
			if hi < upTo {
				events = append(events, event{at: hi, dw: -rob.Weight})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	var (
		segs   []WeightSegment
		weight float64
		cur    = 1.0
		idx    int
	)
	for idx < len(events) {
		at := events[idx].at
		if at > cur {
			segs = append(segs, WeightSegment{Lo: cur, Hi: at, Weight: weight})
			cur = at
		}
		for idx < len(events) && events[idx].at == at {
			weight += events[idx].dw
			idx++
		}
	}
	if cur < upTo {
		segs = append(segs, WeightSegment{Lo: cur, Hi: upTo, Weight: weight})
	}
	return WeightProfile{Segments: segs, UpTo: upTo}, nil
}

// roundRef is one excursion of one robot, with its arrival offset.
type roundRef struct {
	turn   float64
	offset float64 // 2 * (sum of the robot's earlier turns)
	weight float64
}

// MeasuredRatio returns the exact supremum, over x in [1, horizon), of the
// time needed to accumulate covering weight eta at x, divided by x. Like
// internal/adversary, the supremum is evaluated at x = 1 and at the
// right-limits of the excursion turning points, where the accumulation
// offsets jump.
func MeasuredRatio(robots []WeightedRobot, eta, horizon float64) (float64, error) {
	if err := ValidateRobots(robots); err != nil {
		return 0, err
	}
	if !(eta >= 1) {
		return 0, fmt.Errorf("%w: eta = %g (want >= 1)", ErrBadParams, eta)
	}
	if !(horizon > 1) || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return 0, fmt.Errorf("%w: horizon %g", ErrBadParams, horizon)
	}
	var rounds []roundRef
	cands := map[float64]struct{}{1: {}}
	for _, rob := range robots {
		prefix := 0.0
		for _, t := range rob.Turns {
			rounds = append(rounds, roundRef{turn: t, offset: 2 * prefix, weight: rob.Weight})
			prefix += t
			if t >= 1 && t < horizon {
				cands[t] = struct{}{}
			}
		}
	}
	// Rounds sorted by offset: accumulation happens in arrival order.
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].offset < rounds[j].offset })

	accumulate := func(x float64, strict bool) (float64, bool) {
		need := eta - 1e-12
		for _, rr := range rounds {
			if strict {
				if rr.turn <= x {
					continue
				}
			} else if rr.turn < x {
				continue
			}
			need -= rr.weight
			if need <= 0 {
				return rr.offset, true
			}
		}
		return 0, false
	}

	worst := -1.0
	for b := range cands {
		if off, ok := accumulate(b, false); ok {
			if ratio := (off + b) / b; ratio > worst {
				worst = ratio
			}
		} else {
			return 0, fmt.Errorf("%w: x = %g", ErrUncovered, b)
		}
		if off, ok := accumulate(b, true); ok {
			if ratio := (off + b) / b; ratio > worst {
				worst = ratio
			}
		}
		// A failing strict accumulation just beyond the largest turns is a
		// horizon artifact, not a coverage failure; skip silently.
	}
	return worst, nil
}

// BestRational returns the rational q/k minimizing q/k - eta subject to
// q/k >= eta, k <= maxK, and k < q (the paper's approximating sequence).
func BestRational(eta float64, maxK int) (q, k int, err error) {
	if !(eta > 1) || math.IsInf(eta, 0) {
		return 0, 0, fmt.Errorf("%w: eta = %g (want > 1)", ErrBadParams, eta)
	}
	if maxK < 1 {
		return 0, 0, fmt.Errorf("%w: maxK = %d", ErrBadParams, maxK)
	}
	bestGap := math.Inf(1)
	for kk := 1; kk <= maxK; kk++ {
		qq := int(math.Ceil(eta * float64(kk)))
		if qq <= kk {
			qq = kk + 1
		}
		gap := float64(qq)/float64(kk) - eta
		if gap < bestGap {
			bestGap, q, k = gap, qq, kk
		}
	}
	return q, k, nil
}

// ReductionRobots builds the paper's upper-bound strategy for C(eta): the
// q-fold ORC strategy with k unit robots (the m = q, f = 0 cyclic
// exponential with ray labels dropped), each carrying weight 1/k. It
// returns the robots and the chosen (q, k).
func ReductionRobots(eta float64, maxK int, horizon float64) ([]WeightedRobot, int, int, error) {
	q, k, err := BestRational(eta, maxK)
	if err != nil {
		return nil, 0, 0, err
	}
	s, err := strategy.NewCyclicExponential(q /* m */, k, 0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("fractional: %w", err)
	}
	robots := make([]WeightedRobot, k)
	for r := 0; r < k; r++ {
		turns, err := strategy.Turns(s, r, horizon)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("fractional: %w", err)
		}
		robots[r] = WeightedRobot{Weight: 1 / float64(k), Turns: turns}
	}
	return robots, q, k, nil
}

// Integerize replicates a weighted strategy into unit robots for the
// Eq. (11) lower-bound reduction: robot of weight w becomes
// ceil(q*w/eta) copies, so the resulting k = sum satisfies q/k <= eta.
// It returns the per-robot turn sequences and k.
func Integerize(robots []WeightedRobot, q int, eta float64) ([][]float64, int, error) {
	if err := ValidateRobots(robots); err != nil {
		return nil, 0, err
	}
	if q < 2 || !(eta > 1) {
		return nil, 0, fmt.Errorf("%w: q=%d eta=%g", ErrBadParams, q, eta)
	}
	var out [][]float64
	for _, rob := range robots {
		copies := int(math.Ceil(float64(q) * rob.Weight / eta))
		if copies < 1 {
			copies = 1
		}
		for c := 0; c < copies; c++ {
			out = append(out, append([]float64(nil), rob.Turns...))
		}
	}
	return out, len(out), nil
}
