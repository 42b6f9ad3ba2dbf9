// planarjobs.go is the planar job family: shoreline search in the
// plane (spread-ray robots against a line target,
// Acharjee–Georgiou–Kundu–Srinivasan 2020). Every key carries the
// geometry tag geo=r2 next to the strategy fingerprint, so a planar
// job can never share a cache line with a line job even across
// snapshot restores (the evacuation jobs of linejobs.go carry geo=line
// and their objective, obj=evac, the same way).
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/trajectory"
)

// shorelineHash is the content-addressed identity of the spread-ray
// shoreline strategy family, derived from a canonical description of
// the family the way cyclicHash derives from the cyclic program's
// content: k unit-speed robots on straight planar rays at headings
// 2*pi*i/k. Any change to the family's semantics must change this
// string, rolling the cache keys over instead of serving stale
// snapshot entries.
var shorelineHash = func() string {
	sum := sha256.Sum256([]byte("shoreline-spread/v1|geometry=r2|paths=planar-ray|headings=2*pi*i/k"))
	return hex.EncodeToString(sum[:])
}()

// ShorelineWorst runs the exact planar adversary sweep for the
// spread-ray shoreline strategy: the supremum over shoreline
// placements of the (f+1)-st smallest hit time over the distance
// (adversary.ShorelineEvaluator). The Evaluation locates the supremum
// with WorstRay = 0 and WorstX = the worst shoreline normal's heading
// in radians.
type ShorelineWorst struct {
	K, F    int
	Horizon float64
}

// Key implements Job; geo=r2 keeps planar results disjoint from every
// line-geometry cache line.
func (j ShorelineWorst) Key() string {
	return fmt.Sprintf("shoreworst|geo=r2|sp=%s|k=%d|f=%d|h=%g", shorelineHash[:16], j.K, j.F, j.Horizon)
}

// Run implements Job.
func (j ShorelineWorst) Run(ctx context.Context) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	se, err := adversary.NewShorelineEvaluator(adversary.SpreadHeadings(j.K), j.Horizon)
	if err != nil {
		return Result{}, err
	}
	defer se.Release()
	ev, err := se.ExactRatio(ctx, j.F)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: ev.WorstRatio, Eval: ev}, nil
}

// shorelineSimAngles is the uniform-grid resolution of the shoreline
// simulation's heading sweep (the spread headings and gap midpoints —
// the family's exact extremes — are always added on top, so the
// simulated worst case agrees with the analytic bound rather than
// undershooting it the way a pure grid would).
const shorelineSimAngles = 64

// ShorelineSim simulates the spread-ray strategy against shorelines at
// one target distance: the k planar ray trajectories are materialized
// at Dist times a regime-derived horizon factor and driven against a
// deterministic heading sweep through the actual planar geometry
// (trajectory.Planar.FirstHitLine) — the simulator-backed counterpart
// of one ShorelineWorst point, cross-validated against the closed form
// by the golden tests.
type ShorelineSim struct {
	K, F int
	Dist float64
}

// Key implements Job; see ShorelineWorst.Key for the geometry tag.
func (j ShorelineSim) Key() string {
	return fmt.Sprintf("shoresim|geo=r2|sp=%s|k=%d|f=%d|d=%g", shorelineHash[:16], j.K, j.F, j.Dist)
}

// Run implements Job.
func (j ShorelineSim) Run(ctx context.Context) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if !(j.Dist > 0) || math.IsInf(j.Dist, 0) || math.IsNaN(j.Dist) {
		return Result{}, fmt.Errorf("%w: shoreline distance %g (want positive finite)", ErrBadParams, j.Dist)
	}
	sec, err := bounds.Shoreline(j.K, j.F)
	if err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrBadParams, err)
	}
	// Rays twice as long as the worst detection needs: every swept
	// heading's (f+1)-st hit lands strictly inside the trajectory.
	length := j.Dist * (2*sec + 2)
	paths := make([]*trajectory.Planar, j.K)
	for i, h := range adversary.SpreadHeadings(j.K) {
		p, err := trajectory.PlanarRay(h, length)
		if err != nil {
			return Result{}, err
		}
		paths[i] = p
	}
	hits := make([]float64, j.K)
	eval := adversary.Evaluation{WorstRatio: -1}
	for _, phi := range shorelineSimHeadings(j.K) {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		u := trajectory.UnitDir(phi)
		for r, p := range paths {
			hits[r] = p.FirstHitLine(u, j.Dist)
		}
		sort.Float64s(hits)
		det := hits[j.F]
		if math.IsInf(det, 1) {
			return Result{}, fmt.Errorf("engine: shoreline at heading %g rad not reached by %d robots within %g", phi, j.F+1, length)
		}
		if ratio := det / j.Dist; ratio > eval.WorstRatio {
			eval = adversary.Evaluation{WorstRatio: ratio, WorstRay: 0, WorstX: phi, Attained: true}
		}
		eval.Breakpoints++
	}
	return Result{Value: eval.WorstRatio, Eval: eval}, nil
}

// shorelineSimHeadings is the simulation's deterministic heading
// sweep: a uniform grid plus the spread headings and gap midpoints
// (the parity-dependent extremes of the (f+1)-st order statistic).
func shorelineSimHeadings(k int) []float64 {
	out := make([]float64, 0, shorelineSimAngles+2*k)
	for i := 0; i < shorelineSimAngles; i++ {
		out = append(out, 2*math.Pi*float64(i)/shorelineSimAngles)
	}
	for i := 0; i < k; i++ {
		h := 2 * math.Pi * float64(i) / float64(k)
		out = append(out, h, h+math.Pi/float64(k))
	}
	return out
}

var (
	_ Job = ShorelineWorst{}
	_ Job = ShorelineSim{}
)
