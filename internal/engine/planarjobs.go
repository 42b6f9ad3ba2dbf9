// planarjobs.go is the geometry-generic job family the tentpole
// refactor enables: shoreline search in the plane (spread-ray robots
// against a line target, Acharjee–Georgiou–Kundu–Srinivasan 2020) and
// search-and-evacuation on the line with a near majority of faulty
// agents (Czyzowicz–Killick–Kranakis–Stachowiak). Every key carries an
// explicit geometry tag (geo=r2 / geo=line) next to the strategy
// fingerprint, so a planar job can never share a cache line with a
// line job even across snapshot restores, and the evacuation keys
// additionally carry their objective (obj=evac): same strategy, same
// parameters, different question, different key.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"repro/internal/adversary"
	"repro/internal/strategy"
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

// shorelineSecant returns the spread-ray family's closed-form worst
// ratio sec((f+1)*pi/k), or an error outside the valid regime
// k > 2(f+1) (where some shoreline heading defeats any f+1 of the
// rays).
func shorelineSecant(k, f int) (float64, error) {
	if f < 0 || k < 1 {
		return 0, fmt.Errorf("%w: shoreline k=%d f=%d", ErrBadParams, k, f)
	}
	c := math.Cos(float64(f+1) * math.Pi / float64(k))
	if k <= 2*(f+1) || c <= 0 {
		return 0, fmt.Errorf("%w: shoreline needs k > 2(f+1) spread rays, got k=%d f=%d", ErrBadParams, k, f)
	}
	return 1 / c, nil
}

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
	sec, err := shorelineSecant(j.K, j.F)
	if err != nil {
		return Result{}, err
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

// evacuationHash extends the cyclic program's identity with the
// evacuation objective: the strategy under evaluation is the optimal
// cyclic exponential (cyclicHash), but the measured quantity is
// evacuation, so the keys must never collide with find-objective
// entries for the same program.
var evacuationHash = cyclicHash

// evacuationEval carries the per-(k, f) setup — the optimal line
// strategy and the horizon factor — so worst-over-grid jobs compute it
// once, not once per distance (the byzantineLineEval pattern).
type evacuationEval struct {
	s  *strategy.CyclicExponential
	k  int
	f  int
	hf float64
}

func newEvacuationEval(ctx context.Context, k, f int) (*evacuationEval, error) {
	s, hf, err := simSetup(ctx, 2, k, f)
	if err != nil {
		return nil, err
	}
	return &evacuationEval{s: s, k: k, f: f, hf: hf}, nil
}

// ratio measures the exact evacuation ratio at one target distance,
// worst over both rays and over the adversary's fault choices. The
// adversary's optimum has a prefix structure: silencing exactly the
// first j distinct visitors (j <= f) delays the wireless announcement
// to the (j+1)-st distinct first-visit time v_{j+1} while keeping the
// slowest healthy robot as far from the exit as possible, and any
// fault set that is not a visit-order prefix does no better (replacing
// a non-prefix member with an earlier visitor never decreases the
// announcement time, and with k - j - 1 >= f - j robots outside the
// prefix the remaining budget can always be spent on robots that do
// not attain the gather maximum). So the sweep is over j = 0..f, not
// over all C(k, f) fault sets — the brute-force cross-check test pins
// the equivalence.
func (e *evacuationEval) ratio(ctx context.Context, dist float64) (float64, int, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	horizon := dist * e.hf
	trajs, err := strategy.Trajectories(e.s, horizon)
	if err != nil {
		return 0, 0, 0, err
	}
	type arrival struct {
		robot int
		time  float64
	}
	worst, worstRay, worstJ := -1.0, 0, 0
	arrivals := make([]arrival, 0, e.k)
	for ray := 1; ray <= 2; ray++ {
		target := trajectory.Point{Ray: ray, Dist: dist}
		arrivals = arrivals[:0]
		for r, tr := range trajs {
			if t := tr.FirstVisit(target); !math.IsInf(t, 1) {
				arrivals = append(arrivals, arrival{robot: r, time: t})
			}
		}
		sort.Slice(arrivals, func(i, j int) bool {
			if arrivals[i].time != arrivals[j].time {
				return arrivals[i].time < arrivals[j].time
			}
			return arrivals[i].robot < arrivals[j].robot
		})
		if len(arrivals) < e.f+1 {
			return 0, 0, 0, fmt.Errorf("engine: evacuation target at %v reached by %d < %d robots within horizon %g",
				target, len(arrivals), e.f+1, horizon)
		}
		evac, evacJ := -1.0, 0
		for j := 0; j <= e.f; j++ {
			// The first j distinct visitors are faulty; the (j+1)-st
			// announces at t, and every other robot walks to the exit.
			t := arrivals[j].time
			gather := 0.0
			for r, tr := range trajs {
				faulty := false
				for i := 0; i < j; i++ {
					if arrivals[i].robot == r {
						faulty = true
						break
					}
				}
				if faulty {
					continue
				}
				pos := tr.Position(t)
				if math.IsNaN(pos.Dist) {
					return 0, 0, 0, fmt.Errorf("engine: evacuation robot %d position undefined at t=%g (horizon %g)", r, t, horizon)
				}
				var d float64
				if pos.Ray == target.Ray {
					d = math.Abs(pos.Dist - dist)
				} else {
					d = pos.Dist + dist
				}
				if d > gather {
					gather = d
				}
			}
			if v := t + gather; v > evac {
				evac, evacJ = v, j
			}
		}
		if r := evac / dist; r > worst {
			worst, worstRay, worstJ = r, ray, evacJ
		}
	}
	return worst, worstRay, worstJ, nil
}

// EvacuationSim measures the exact evacuation ratio of the optimal
// cyclic search strategy at one target distance: k = 2f+1 robots on
// the line (a near majority faulty), wireless announcement at the
// (j+1)-st distinct visit, every healthy robot walks to the exit —
// the Czyzowicz–Killick–Kranakis–Stachowiak objective served as a
// cacheable job.
type EvacuationSim struct {
	K, F int
	Dist float64
}

// Key implements Job; obj=evac separates evacuation answers from find
// answers for the very same strategy program.
func (j EvacuationSim) Key() string {
	return fmt.Sprintf("evacsim|geo=line|obj=evac|sp=%s|k=%d|f=%d|d=%g", evacuationHash[:16], j.K, j.F, j.Dist)
}

// Run implements Job.
func (j EvacuationSim) Run(ctx context.Context) (Result, error) {
	e, err := newEvacuationEval(ctx, j.K, j.F)
	if err != nil {
		return Result{}, err
	}
	v, ray, _, err := e.ratio(ctx, j.Dist)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: v, Eval: adversary.Evaluation{
		WorstRatio: v, WorstRay: ray, WorstX: j.Dist, Attained: true,
	}}, nil
}

// EvacuationWorst measures the worst evacuation ratio over a
// deterministic log-spaced grid of target distances in [1, Horizon] —
// the evacuation scenario's verifiable headline quantity, mirroring
// ByzantineLineWorst.
type EvacuationWorst struct {
	K, F    int
	Horizon float64
	Points  int
}

// Key implements Job.
func (j EvacuationWorst) Key() string {
	return fmt.Sprintf("evacworst|geo=line|obj=evac|sp=%s|k=%d|f=%d|h=%g|n=%d",
		evacuationHash[:16], j.K, j.F, j.Horizon, j.Points)
}

// Run implements Job.
func (j EvacuationWorst) Run(ctx context.Context) (Result, error) {
	if j.Points < 2 || !(j.Horizon > 1) {
		return Result{}, fmt.Errorf("%w: evacuation worst needs points >= 2 and horizon > 1, got %d, %g", ErrBadParams, j.Points, j.Horizon)
	}
	e, err := newEvacuationEval(ctx, j.K, j.F)
	if err != nil {
		return Result{}, err
	}
	eval := adversary.Evaluation{WorstRatio: -1}
	for _, d := range LogGrid(j.Horizon, j.Points) {
		v, ray, _, err := e.ratio(ctx, d)
		if err != nil {
			return Result{}, err
		}
		if v > eval.WorstRatio {
			eval = adversary.Evaluation{WorstRatio: v, WorstRay: ray, WorstX: d, Attained: true, Breakpoints: eval.Breakpoints}
		}
		eval.Breakpoints++
	}
	return Result{Value: eval.WorstRatio, Eval: eval}, nil
}

var (
	_ Job = ShorelineWorst{}
	_ Job = ShorelineSim{}
	_ Job = EvacuationSim{}
	_ Job = EvacuationWorst{}
)
