// linejobs.go is the line-simulation job family: Byzantine line search
// with consistency-based confirmation (Czyzowicz et al., ISAAC 2016)
// and search-and-evacuation with a near majority of faulty agents
// (Czyzowicz–Killick–Kranakis–Stachowiak). Both observe the optimal
// cyclic line strategy through one evaluator, lineEval, which holds
// the per-(k, f) set-up once and answers either objective at one
// target distance; the worst-over-grid jobs of both share one loop.
package engine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/byzantine"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// lineEval carries the per-(k, f) set-up of the line jobs — the
// optimal line strategy and the horizon factor — so worst-over-grid
// jobs compute it once, not once per distance.
type lineEval struct {
	s  *strategy.CyclicExponential
	f  int
	hf float64
}

// newLineEval builds the shared set-up for (k, f) on the line through
// simSetup.
func newLineEval(ctx context.Context, k, f int) (*lineEval, error) {
	s, hf, err := simSetup(ctx, 2, k, f)
	if err != nil {
		return nil, err
	}
	return &lineEval{s: s, f: f, hf: hf}, nil
}

// trajectories materializes every robot's trajectory for a target at
// distance dist, out to dist times the horizon factor, which it also
// returns.
func (e *lineEval) trajectories(ctx context.Context, dist float64) ([]*trajectory.Star, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	horizon := dist * e.hf
	trajs, err := strategy.Trajectories(e.s, horizon)
	return trajs, horizon, err
}

// byzantine measures the consistency-observer detection ratio with the
// f Byzantine robots playing silent (the adversary's transfer-optimal
// behavior: the first f distinct visitors of the target stay mute)
// against a target at distance dist on ray 1. Candidates are the
// target, its mirror, and a decoy pair at 1.5x the distance — the
// finite hypothesis set the observer must disambiguate.
func (e *lineEval) byzantine(ctx context.Context, dist float64) (float64, error) {
	trajs, horizon, err := e.trajectories(ctx, dist)
	if err != nil {
		return 0, err
	}
	target := trajectory.Point{Ray: 1, Dist: dist}
	robots := make([]byzantine.Robot, len(trajs))
	for r, tr := range trajs {
		robots[r] = byzantine.Robot{Traj: tr, Behavior: byzantine.Honest}
	}
	for i, a := range sim.FirstVisits(trajs, target) {
		if i == e.f {
			break
		}
		robots[a.Robot].Behavior = byzantine.Silent
	}
	sc, err := byzantine.NewScenario(robots, target, e.f)
	if err != nil {
		return 0, err
	}
	candidates := []trajectory.Point{
		target,
		{Ray: 2, Dist: dist},
		{Ray: 1, Dist: dist * 1.5},
		{Ray: 2, Dist: dist * 1.5},
	}
	t, ok := sc.DetectionTime(candidates, horizon)
	if !ok {
		return 0, fmt.Errorf("engine: byzantine observer never certain of target at %v within horizon %g", target, horizon)
	}
	return t / dist, nil
}

// evacuation measures the exact evacuation ratio at one target
// distance, worst over both rays and over the adversary's fault
// choices, and returns it with the worst ray and the worst prefix j.
// The adversary's optimum has a prefix structure: silencing exactly
// the first j distinct visitors (j <= f) delays the wireless
// announcement to the (j+1)-st distinct first-visit time v_{j+1} while
// keeping the slowest healthy robot as far from the exit as possible,
// and any fault set that is not a visit-order prefix does no better
// (replacing a non-prefix member with an earlier visitor never
// decreases the announcement time, and with k - j - 1 >= f - j robots
// outside the prefix the remaining budget can always be spent on
// robots that do not attain the gather maximum). So the sweep is over
// j = 0..f, not over all C(k, f) fault sets — the brute-force
// cross-check test pins the equivalence.
func (e *lineEval) evacuation(ctx context.Context, dist float64) (float64, int, int, error) {
	trajs, horizon, err := e.trajectories(ctx, dist)
	if err != nil {
		return 0, 0, 0, err
	}
	worst, worstRay, worstJ := -1.0, 0, 0
	faulty := make([]bool, len(trajs))
	for ray := 1; ray <= 2; ray++ {
		target := trajectory.Point{Ray: ray, Dist: dist}
		arrivals := sim.FirstVisits(trajs, target)
		if len(arrivals) < e.f+1 {
			return 0, 0, 0, fmt.Errorf("engine: evacuation target at %v reached by %d < %d robots within horizon %g",
				target, len(arrivals), e.f+1, horizon)
		}
		clear(faulty)
		evac, evacJ := -1.0, 0
		for j, a := range arrivals[:e.f+1] {
			// The first j distinct visitors are faulty; the (j+1)-st
			// announces at a.Time, and every other robot walks to the
			// exit.
			gather := 0.0
			for r, tr := range trajs {
				if faulty[r] {
					continue
				}
				pos := tr.Position(a.Time)
				if math.IsNaN(pos.Dist) {
					return 0, 0, 0, fmt.Errorf("engine: evacuation robot %d position undefined at t=%g (horizon %g)", r, a.Time, horizon)
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
			if v := a.Time + gather; v > evac {
				evac, evacJ = v, j
			}
			faulty[a.Robot] = true
		}
		if r := evac / dist; r > worst {
			worst, worstRay, worstJ = r, ray, evacJ
		}
	}
	return worst, worstRay, worstJ, nil
}

// lineWorst is the loop ByzantineLineWorst and EvacuationWorst share:
// the worst of point over LogGrid(horizon, points) for the line set-up
// of (k, f), located at its distance and at the ray point reports
// there. name labels the parameter error.
func lineWorst(ctx context.Context, name string, k, f int, horizon float64, points int,
	point func(e *lineEval, dist float64) (float64, int, error)) (adversary.Evaluation, error) {
	if points < 2 || !(horizon > 1) {
		return adversary.Evaluation{}, fmt.Errorf("%w: %s worst needs points >= 2 and horizon > 1, got %d, %g", ErrBadParams, name, points, horizon)
	}
	e, err := newLineEval(ctx, k, f)
	if err != nil {
		return adversary.Evaluation{}, err
	}
	eval := adversary.Evaluation{WorstRatio: -1}
	for _, d := range LogGrid(horizon, points) {
		v, ray, err := point(e, d)
		if err != nil {
			return adversary.Evaluation{}, err
		}
		if v > eval.WorstRatio {
			eval = adversary.Evaluation{WorstRatio: v, WorstRay: ray, WorstX: d, Attained: true, Breakpoints: eval.Breakpoints}
		}
		eval.Breakpoints++
	}
	return eval, nil
}

// ByzantineLineSim runs one Byzantine line-search simulation
// (Czyzowicz et al., ISAAC 2016 setting): K robots on the line, F of
// them Byzantine-silent, consistency-based target confirmation. Value
// is the certainty ratio (confirmation time / distance).
type ByzantineLineSim struct {
	K, F int
	Dist float64
}

// Key implements Job. The observed strategy is the optimal line
// instance of the cyclic exponential program, hence the sp= fragment.
func (j ByzantineLineSim) Key() string {
	return fmt.Sprintf("byzline|sp=%s|k=%d|f=%d|d=%g", cyclicHash[:16], j.K, j.F, j.Dist)
}

// Run implements Job.
func (j ByzantineLineSim) Run(ctx context.Context) (Result, error) {
	e, err := newLineEval(ctx, j.K, j.F)
	if err != nil {
		return Result{}, err
	}
	v, err := e.byzantine(ctx, j.Dist)
	return Result{Value: v}, err
}

// ByzantineLineWorst measures the worst certainty ratio over a
// deterministic log-spaced grid of Points target distances in
// [1, Horizon] — the Byzantine line scenario's verifiable headline
// quantity.
type ByzantineLineWorst struct {
	K, F    int
	Horizon float64
	Points  int
}

// Key implements Job. See ByzantineLineSim.Key for the sp= fragment.
func (j ByzantineLineWorst) Key() string {
	return fmt.Sprintf("byzworst|sp=%s|k=%d|f=%d|h=%g|n=%d", cyclicHash[:16], j.K, j.F, j.Horizon, j.Points)
}

// Run implements Job. The Result carries the value alone: the
// certainty ratio is observed on ray 1 only, so there is no located
// worst case to report.
func (j ByzantineLineWorst) Run(ctx context.Context) (Result, error) {
	eval, err := lineWorst(ctx, "byzantine", j.K, j.F, j.Horizon, j.Points, func(e *lineEval, d float64) (float64, int, error) {
		v, err := e.byzantine(ctx, d)
		return v, 1, err
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Value: eval.WorstRatio}, nil
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

// Key implements Job. The strategy under evaluation is the optimal
// cyclic exponential (cyclicHash), but the measured quantity is
// evacuation: geo=line and obj=evac keep these answers apart from find
// answers for the very same strategy program.
func (j EvacuationSim) Key() string {
	return fmt.Sprintf("evacsim|geo=line|obj=evac|sp=%s|k=%d|f=%d|d=%g", cyclicHash[:16], j.K, j.F, j.Dist)
}

// Run implements Job.
func (j EvacuationSim) Run(ctx context.Context) (Result, error) {
	e, err := newLineEval(ctx, j.K, j.F)
	if err != nil {
		return Result{}, err
	}
	v, ray, _, err := e.evacuation(ctx, j.Dist)
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

// Key implements Job; see EvacuationSim.Key for the tags.
func (j EvacuationWorst) Key() string {
	return fmt.Sprintf("evacworst|geo=line|obj=evac|sp=%s|k=%d|f=%d|h=%g|n=%d",
		cyclicHash[:16], j.K, j.F, j.Horizon, j.Points)
}

// Run implements Job.
func (j EvacuationWorst) Run(ctx context.Context) (Result, error) {
	eval, err := lineWorst(ctx, "evacuation", j.K, j.F, j.Horizon, j.Points, func(e *lineEval, d float64) (float64, int, error) {
		v, ray, _, err := e.evacuation(ctx, d)
		return v, ray, err
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Value: eval.WorstRatio, Eval: eval}, nil
}

var (
	_ Job = ByzantineLineSim{}
	_ Job = ByzantineLineWorst{}
	_ Job = EvacuationSim{}
	_ Job = EvacuationWorst{}
)
