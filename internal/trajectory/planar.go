// planar.go generalizes the trajectory layer from the star S_m to the
// plane: a Planar trajectory is a unit-speed piecewise-linear path in
// R^2, the geometry the shoreline-search scenario family (Acharjee–
// Georgiou–Kundu–Srinivasan 2020) runs on. The line/star trajectories
// of the Kupavskii–Welzl setting are the 1D specialization: an S_2 star
// embeds onto the x-axis (PlanarFromStar with the axis directions), and
// the embedded path's first crossing of the vertical line at offset x
// is bit-identical to Star.FirstVisit of the point at distance x — the
// specialization guarantee pinned by TestPlanarSpecializesStar.
//
// Exactness is engineered, not accidental: PlanarFromStar seeds the
// per-waypoint arrival times from the star's own compensated prefix
// sums (not from recomputed Euclidean lengths), and FirstHitLine
// interpolates with the stored segment length, so an outbound crossing
// evaluates to the same float expression 2*PrefixSum(i) + x the star
// uses.
package trajectory

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/numeric"
)

// Vec is a point (or displacement) in the plane.
type Vec struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns c * v.
func (v Vec) Scale(c float64) Vec { return Vec{c * v.X, c * v.Y} }

// Dot returns the inner product v . w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Hypot(v.X, v.Y) }

// finite reports whether both coordinates are finite (not NaN/Inf).
func (v Vec) finite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) && !math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

// UnitDir returns the unit vector at the given heading (radians,
// counterclockwise from the positive x-axis). Headings that are exact
// multiples of pi/2 snap to the exact axis vectors, so the canonical
// m = 2 and m = 4 star embeddings use exact +-(1,0) / (0,+-1)
// directions instead of sin/cos rounded near zero.
func UnitDir(angle float64) Vec {
	switch angle {
	case 0:
		return Vec{1, 0}
	case math.Pi / 2:
		return Vec{0, 1}
	case math.Pi:
		return Vec{-1, 0}
	case 3 * math.Pi / 2, -math.Pi / 2:
		return Vec{0, -1}
	}
	return Vec{math.Cos(angle), math.Sin(angle)}
}

// StarDirections returns the canonical embedding directions of the star
// S_m into the plane: ray i heads at angle 2*pi*(i-1)/m.
func StarDirections(m int) []Vec {
	dirs := make([]Vec, m)
	for i := range dirs {
		dirs[i] = UnitDir(2 * math.Pi * float64(i) / float64(m))
	}
	return dirs
}

// Planar is a unit-speed piecewise-linear trajectory in the plane: the
// robot starts at pts[0] at time 0 and moves along each segment in
// order at speed 1. cum[i] is the arrival time at pts[i] and seg[i] the
// duration of segment i; both are stored (rather than derived from the
// points) so that embeddings of 1D trajectories can carry the exact
// compensated times of the source trajectory.
type Planar struct {
	pts []Vec
	seg []float64 // seg[i] = duration of pts[i] -> pts[i+1], all > 0
	cum []float64 // cum[i] = arrival time at pts[i]; cum[0] = 0
}

// NewPlanar builds a Planar trajectory through the given waypoints.
// It requires at least two waypoints, finite coordinates, and strictly
// positive (non-degenerate) segments; segment durations are the
// Euclidean lengths, accumulated with compensated summation.
func NewPlanar(pts []Vec) (*Planar, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("%w: planar trajectory needs >= 2 waypoints, got %d", ErrBadSequence, len(pts))
	}
	cp := make([]Vec, len(pts))
	copy(cp, pts)
	seg := make([]float64, len(pts)-1)
	cum := make([]float64, len(pts))
	var acc numeric.Kahan
	for i, p := range cp {
		if !p.finite() {
			return nil, fmt.Errorf("%w: waypoint %d = (%g, %g) is not finite", ErrBadSequence, i, p.X, p.Y)
		}
		if i == 0 {
			continue
		}
		l := p.Sub(cp[i-1]).Norm()
		if !(l > 0) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("%w: segment %d has length %g (want positive finite)", ErrBadSequence, i, l)
		}
		seg[i-1] = l
		acc.Add(l)
		cum[i] = acc.Value()
		if !(cum[i] > cum[i-1]) || math.IsInf(cum[i], 0) {
			return nil, fmt.Errorf("%w: cumulative time is not strictly increasing at waypoint %d", ErrBadSequence, i)
		}
	}
	return &Planar{pts: cp, seg: seg, cum: cum}, nil
}

// newPlanarTimed builds a Planar from waypoints with caller-supplied
// exact segment durations and arrival times (used by the 1D
// embeddings, which carry the source trajectory's compensated sums).
func newPlanarTimed(pts []Vec, seg, cum []float64) *Planar {
	return &Planar{pts: pts, seg: seg, cum: cum}
}

// PointAt returns the i-th waypoint (0-based).
func (p *Planar) PointAt(i int) Vec { return p.pts[i] }

// Start returns the initial position.
func (p *Planar) Start() Vec { return p.pts[0] }

// Horizon returns the total duration of the trajectory.
func (p *Planar) Horizon() float64 { return p.cum[len(p.cum)-1] }

// Position returns the robot's location at time 0 <= t <= Horizon().
// Outside that range (or for NaN t) both coordinates are NaN, matching
// the Line/Star out-of-horizon convention.
func (p *Planar) Position(t float64) Vec {
	if t < 0 || t > p.Horizon() || math.IsNaN(t) {
		return Vec{math.NaN(), math.NaN()}
	}
	// Segment i occupies [cum[i], cum[i+1]].
	i := sort.Search(len(p.seg), func(j int) bool { return p.cum[j+1] >= t })
	if i == len(p.seg) {
		return p.pts[len(p.pts)-1]
	}
	frac := (t - p.cum[i]) / p.seg[i]
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return p.pts[i].Add(p.pts[i+1].Sub(p.pts[i]).Scale(frac))
}

// FirstHitLine returns the earliest time the trajectory touches the
// line {q : q . n = c} for a nonzero normal n, or +Inf if it never does
// within the horizon. For a degenerate normal or non-finite c it
// returns NaN.
//
// The crossing time within a segment interpolates with the stored
// segment duration: t = cum[i] + (c - a) * (seg[i] / (b - a)), where a
// and b are the projections of the segment endpoints onto n. When the
// segment runs straight along the normal (the 1D embedding case: a = 0
// at the origin, b = seg[i] for a unit axis direction), the scale
// factor divides to exactly 1 and the crossing time is the exact sum
// cum[i] + c — the arithmetic the specialization guarantee relies on.
func (p *Planar) FirstHitLine(n Vec, c float64) float64 {
	if !n.finite() || (n.X == 0 && n.Y == 0) || math.IsNaN(c) || math.IsInf(c, 0) {
		return math.NaN()
	}
	prev := p.pts[0].Dot(n)
	if prev == c {
		return 0
	}
	for i := 0; i < len(p.seg); i++ {
		cur := p.pts[i+1].Dot(n)
		if (prev < c) != (cur < c) || cur == c {
			t := p.cum[i] + (c-prev)*(p.seg[i]/(cur-prev))
			// Guard the interpolation against rounding past the segment.
			if t < p.cum[i] {
				t = p.cum[i]
			}
			if t > p.cum[i+1] {
				t = p.cum[i+1]
			}
			return t
		}
		prev = cur
	}
	return math.Inf(1)
}

// PlanarRay returns the single-segment trajectory heading straight out
// of the origin at the given angle for the given duration — the
// building block of the spread-ray shoreline strategies. The segment
// duration is stored as exactly length (the mathematical arc length of
// a unit direction scaled by length), so line-hit times are not
// perturbed by the rounding of cos^2 + sin^2.
func PlanarRay(angle, length float64) (*Planar, error) {
	if !(length > 0) || math.IsInf(length, 0) || math.IsNaN(length) {
		return nil, fmt.Errorf("%w: ray length %g (want positive finite)", ErrBadSequence, length)
	}
	dir := UnitDir(angle)
	pts := []Vec{{0, 0}, dir.Scale(length)}
	if !pts[1].finite() {
		return nil, fmt.Errorf("%w: ray endpoint is not finite", ErrBadSequence)
	}
	return newPlanarTimed(pts, []float64{length}, []float64{0, length}), nil
}

// PlanarFromStar embeds an S_m star trajectory into the plane, sending
// ray r along dirs[r-1] (unit directions; see StarDirections for the
// canonical choice). Each round contributes an outbound and an inbound
// segment through the origin. The waypoint times are seeded from the
// star's own compensated prefix sums — round i's outbound crossing of
// distance x evaluates to exactly 2*PrefixSum(i) + x, the same float
// expression Star.FirstVisit computes — so the embedding preserves
// visit times bit-for-bit rather than merely approximately.
func PlanarFromStar(s *Star, dirs []Vec) (*Planar, error) {
	if len(dirs) != s.M() {
		return nil, fmt.Errorf("%w: %d directions for %d rays", ErrBadRay, len(dirs), s.M())
	}
	for i, d := range dirs {
		if !d.finite() || (d.X == 0 && d.Y == 0) {
			return nil, fmt.Errorf("%w: direction %d is degenerate", ErrBadSequence, i+1)
		}
	}
	n := s.NumRounds()
	pts := make([]Vec, 1, 2*n+1)
	seg := make([]float64, 0, 2*n)
	cum := make([]float64, 1, 2*n+1)
	pts[0] = Vec{0, 0}
	cum[0] = 0
	for i := 0; i < n; i++ {
		r := s.RoundAt(i)
		start := 2 * s.PrefixSum(i)
		tip := dirs[r.Ray-1].Scale(r.Turn)
		pts = append(pts, tip, Vec{0, 0})
		seg = append(seg, r.Turn, r.Turn)
		cum = append(cum, start+r.Turn, 2*s.PrefixSum(i+1))
	}
	return newPlanarTimed(pts, seg, cum), nil
}
