// Package cover implements the covering machinery at the core of the lower
// bound proofs in Kupavskii–Welzl (PODC 2018).
//
// Two covering settings appear in the paper:
//
//   - The symmetric line-cover setting (Theorem 3): a robot zigzagging on
//     the line ±-covers the point x >= 1 when it has visited both +x and -x
//     within time lambda*x. A robot can cover a point at most once. For a
//     standard-form turning sequence (t1, t2, ...) the robot lambda-covers
//     exactly the union of intervals [t”_i, t_i] with
//     t”_i = max((t1+...+t_i)/mu, t_{i-1}) and mu = (lambda-1)/2 (Eq. 3).
//
//   - The ORC setting (Section 3): a robot on a single ray covers x in
//     round i (out to t_i and back to 0) when x <= t_i and
//     2(t1+...+t_{i-1}) + x <= lambda*x, i.e. x >= t”_i with
//     t”_i = (t1+...+t_{i-1})/mu. Re-covering counts because the robot
//     returns to 0 between rounds.
//
// On top of interval extraction the package provides the multiplicity sweep
// (is every point of (1, N] covered at least q times?) and the exact-q
// assignment of the proofs: truncating the covering intervals [t”_i, t_i]
// to half-open assigned intervals (t'_i, t_i] so that every point of (1, N]
// is covered exactly q times, with each robot's t' sequence monotone — the
// combinatorial object the potential-function engine consumes.
package cover

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/numeric"
)

// Errors returned by the covering machinery.
var (
	// ErrBadLambda is returned when lambda <= 1 (mu would be <= 0).
	ErrBadLambda = errors.New("cover: lambda must exceed 1")
	// ErrBadTurns is returned for invalid turning sequences.
	ErrBadTurns = errors.New("cover: invalid turning sequence")
	// ErrCoverageGap is returned when a claimed q-fold cover has a point
	// covered fewer than q times.
	ErrCoverageGap = errors.New("cover: coverage gap")
)

// Interval is one covering interval contributed by a robot's excursion: the
// set of points the excursion lambda-covers, as the closed-left interval
// [Lo, Hi] before assignment (assignment later truncates the left end and
// interprets the result half-open).
type Interval struct {
	// Robot identifies the contributing robot (0-based).
	Robot int
	// Index is the excursion's 1-based position in the robot's sequence.
	Index int
	// Lo is t''_i, the earliest lambda-covered point of the excursion.
	Lo float64
	// Hi is t_i, the turning point.
	Hi float64
}

// Mu converts a competitive ratio lambda > 1 into mu = (lambda-1)/2.
func Mu(lambda float64) (float64, error) {
	if !(lambda > 1) || math.IsNaN(lambda) {
		return 0, fmt.Errorf("%w: lambda = %g", ErrBadLambda, lambda)
	}
	return (lambda - 1) / 2, nil
}

func validateTurns(turns []float64) error {
	for i, t := range turns {
		if !(t > 0) || math.IsInf(t, 0) {
			return fmt.Errorf("%w: turn %d is %g (want positive finite)", ErrBadTurns, i+1, t)
		}
	}
	return nil
}

// SymmetricCovIntervals returns the lambda-covering intervals of a single
// robot in the symmetric line-cover setting, per Eq. (3): fruitful
// excursions i contribute [max((t1+...+t_i)/mu, t_{i-1}), t_i]; excursions
// with t”_i > t_i cover nothing and contribute no interval (but still
// count toward the prefix sums — the caller's strategy is taken as given,
// not optimized).
func SymmetricCovIntervals(robot int, turns []float64, lambda float64) ([]Interval, error) {
	mu, err := Mu(lambda)
	if err != nil {
		return nil, err
	}
	if err := validateTurns(turns); err != nil {
		return nil, err
	}
	var (
		out    []Interval
		prefix numeric.Kahan
	)
	for i, t := range turns {
		prefix.Add(t)
		lo := prefix.Value() / mu
		if i > 0 && turns[i-1] > lo {
			lo = turns[i-1]
		}
		if lo > t {
			continue // not fruitful
		}
		out = append(out, Interval{
			Robot: robot,
			Index: i + 1,
			Lo:    lo,
			Hi:    t,
		})
	}
	return out, nil
}

// ORCCovIntervals returns the lambda-covering intervals of a single robot
// in the ORC setting: round i contributes [(t1+...+t_{i-1})/mu, t_i] when
// fruitful. Ray labels are already discarded (the ORC problem is the
// relaxation that forgets them), so the input is just the sequence of
// excursion distances.
func ORCCovIntervals(robot int, turns []float64, lambda float64) ([]Interval, error) {
	mu, err := Mu(lambda)
	if err != nil {
		return nil, err
	}
	if err := validateTurns(turns); err != nil {
		return nil, err
	}
	var (
		out    []Interval
		prefix numeric.Kahan
	)
	for i, t := range turns {
		lo := prefix.Value() / mu
		prefix.Add(t)
		if lo > t {
			continue // not fruitful
		}
		out = append(out, Interval{
			Robot: robot,
			Index: i + 1,
			Lo:    lo,
			Hi:    t,
		})
	}
	return out, nil
}

// Segment is a maximal half-open interval (Lo, Hi] on which the covering
// multiplicity is constant.
type Segment struct {
	Lo, Hi float64
	Mult   int
}

// Profile is the covering-multiplicity step function over (1, UpTo].
type Profile struct {
	// Segments partition (1, UpTo] in increasing order.
	Segments []Segment
	// UpTo is the right end of the analyzed range.
	UpTo float64
}

// Multiplicity sweeps the intervals and returns the multiplicity profile of
// (1, upTo]. Intervals are interpreted as covering (max(Lo,1), Hi].
func Multiplicity(intervals []Interval, upTo float64) (Profile, error) {
	if !(upTo > 1) || math.IsInf(upTo, 0) || math.IsNaN(upTo) {
		return Profile{}, fmt.Errorf("%w: upTo = %g (want finite > 1)", ErrBadTurns, upTo)
	}
	// Event map: +1 at effective lo, -1 at hi (both "take effect after the
	// coordinate", matching half-open (lo, hi] coverage).
	type event struct {
		at    float64
		delta int
	}
	var events []event
	for _, iv := range intervals {
		lo := math.Max(iv.Lo, 1)
		hi := math.Min(iv.Hi, upTo)
		if iv.Hi <= 1 || lo >= upTo || hi <= lo {
			continue // no overlap with (1, upTo]
		}
		events = append(events, event{at: lo, delta: 1})
		if hi < upTo {
			events = append(events, event{at: hi, delta: -1})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })

	var (
		segs  []Segment
		count int
		cur   = 1.0
		idx   = 0
	)
	for idx < len(events) {
		at := events[idx].at
		if at > cur {
			segs = append(segs, Segment{Lo: cur, Hi: at, Mult: count})
			cur = at
		}
		for idx < len(events) && events[idx].at == at {
			count += events[idx].delta
			idx++
		}
	}
	if cur < upTo {
		segs = append(segs, Segment{Lo: cur, Hi: upTo, Mult: count})
	}
	return Profile{Segments: segs, UpTo: upTo}, nil
}

// MinMult returns the minimum multiplicity over the profile's range (0 for
// an empty profile).
func (p Profile) MinMult() int {
	if len(p.Segments) == 0 {
		return 0
	}
	min := p.Segments[0].Mult
	for _, s := range p.Segments[1:] {
		if s.Mult < min {
			min = s.Mult
		}
	}
	return min
}

// FirstBelow returns the left end of the first segment with multiplicity
// below q, and whether such a segment exists.
func (p Profile) FirstBelow(q int) (float64, bool) {
	for _, s := range p.Segments {
		if s.Mult < q {
			return s.Lo, true
		}
	}
	return 0, false
}

// MultAt returns the covering multiplicity at point x in (1, UpTo].
func (p Profile) MultAt(x float64) int {
	for _, s := range p.Segments {
		if s.Lo < x && x <= s.Hi {
			return s.Mult
		}
	}
	return 0
}
