package engine

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// shorelineClosedForm is the analytic bound the planar jobs must
// reproduce: sec((f+1)*pi/k) for k spread rays and f crash faults.
func shorelineClosedForm(k, f int) float64 {
	return 1 / math.Cos(float64(f+1)*math.Pi/float64(k))
}

func TestShorelineWorstMatchesClosedForm(t *testing.T) {
	eng := New(1)
	for _, c := range []struct{ k, f int }{{3, 0}, {4, 0}, {5, 1}, {7, 2}, {9, 3}} {
		res, err := eng.Run(context.Background(), ShorelineWorst{K: c.k, F: c.f, Horizon: 100})
		if err != nil {
			t.Fatalf("(k=%d, f=%d): %v", c.k, c.f, err)
		}
		want := shorelineClosedForm(c.k, c.f)
		if math.Abs(res.Value-want) > 1e-12*want {
			t.Errorf("(k=%d, f=%d): worst ratio %.15g, want sec((f+1)pi/k) = %.15g",
				c.k, c.f, res.Value, want)
		}
		if res.Eval.WorstRay != 0 {
			t.Errorf("(k=%d, f=%d): WorstRay = %d, want 0 (planar placements carry the heading in WorstX)",
				c.k, c.f, res.Eval.WorstRay)
		}
	}
}

// TestShorelineSimMatchesAnalytic is the shoreline sim-vs-analytic
// golden check: the simulator drives the actual planar trajectories
// against a heading sweep that includes the family's exact extremes,
// so its worst case must agree with both the closed form and the exact
// adversary sweep (ShorelineWorst), not merely stay below them.
func TestShorelineSimMatchesAnalytic(t *testing.T) {
	eng := New(1)
	for _, c := range []struct{ k, f int }{{5, 1}, {8, 2}, {9, 3}} {
		want := shorelineClosedForm(c.k, c.f)
		worst, err := eng.Run(context.Background(), ShorelineWorst{K: c.k, F: c.f, Horizon: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []float64{1, 3.7, 50} {
			res, err := eng.Run(context.Background(), ShorelineSim{K: c.k, F: c.f, Dist: d})
			if err != nil {
				t.Fatalf("(k=%d, f=%d) at %g: %v", c.k, c.f, d, err)
			}
			if math.Abs(res.Value-want) > 1e-9*want {
				t.Errorf("(k=%d, f=%d) at %g: simulated worst %.15g, want analytic %.15g",
					c.k, c.f, d, res.Value, want)
			}
			if math.Abs(res.Value-worst.Value) > 1e-9*want {
				t.Errorf("(k=%d, f=%d) at %g: sim %.15g disagrees with exact sweep %.15g",
					c.k, c.f, d, res.Value, worst.Value)
			}
		}
	}
}

func TestShorelineBadParamsAndRegime(t *testing.T) {
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := (ShorelineSim{K: 5, F: 1, Dist: d}).Run(context.Background()); !errors.Is(err, ErrBadParams) {
			t.Errorf("dist %g: err = %v, want ErrBadParams", d, err)
		}
	}
	// Outside the valid regime k > 2(f+1) the sim rejects up front...
	for _, c := range []struct{ k, f int }{{3, 1}, {4, 1}, {2, 0}, {6, 2}} {
		if _, err := (ShorelineSim{K: c.k, F: c.f, Dist: 5}).Run(context.Background()); !errors.Is(err, ErrBadParams) {
			t.Errorf("sim (k=%d, f=%d): err = %v, want ErrBadParams", c.k, c.f, err)
		}
		// ...and the exact sweep discovers the unreachable placement.
		if _, err := (ShorelineWorst{K: c.k, F: c.f, Horizon: 100}).Run(context.Background()); !errors.Is(err, adversary.ErrUncovered) {
			t.Errorf("worst (k=%d, f=%d): err = %v, want ErrUncovered", c.k, c.f, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (ShorelineSim{K: 5, F: 1, Dist: 5}).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sim: err = %v, want context.Canceled", err)
	}
	if _, err := (ShorelineWorst{K: 5, F: 1, Horizon: 100}).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled worst: err = %v, want context.Canceled", err)
	}
}

// TestPlanarKeysCarryGeometry pins the cache-isolation invariant of the
// refactor: every planar key is tagged geo=r2, every evacuation key is
// tagged with both its geometry and its objective, and none of them can
// collide with the line-geometry find-objective keys for the same
// numeric parameters.
func TestPlanarKeysCarryGeometry(t *testing.T) {
	shoreSim := ShorelineSim{K: 5, F: 1, Dist: 5}.Key()
	shoreWorst := ShorelineWorst{K: 5, F: 1, Horizon: 100}.Key()
	evacSim := EvacuationSim{K: 3, F: 1, Dist: 5}.Key()
	evacWorst := EvacuationWorst{K: 3, F: 1, Horizon: 100, Points: 12}.Key()
	for _, k := range []string{shoreSim, shoreWorst} {
		if !strings.Contains(k, "|geo=r2|") {
			t.Errorf("planar key %q lacks the geo=r2 tag", k)
		}
	}
	for _, k := range []string{evacSim, evacWorst} {
		if !strings.Contains(k, "|geo=line|") || !strings.Contains(k, "|obj=evac|") {
			t.Errorf("evacuation key %q lacks geometry or objective tags", k)
		}
	}
	// Same (m=2, k, f, d) as a line find job — the keys must differ.
	lineSim := SimulationRun{M: 2, K: 3, F: 1, Dist: 5}.Key()
	if evacSim == lineSim {
		t.Errorf("evacuation key collides with line simulation key %q", lineSim)
	}
	if shoreSim == lineSim {
		t.Errorf("shoreline key collides with line simulation key %q", lineSim)
	}
	// Distinct parameters, distinct keys.
	if (ShorelineSim{K: 5, F: 1, Dist: 5}).Key() == (ShorelineSim{K: 5, F: 2, Dist: 5}).Key() {
		t.Error("shoreline keys do not separate fault counts")
	}
}

// bruteForceEvac computes the worst evacuation ratio at one distance by
// enumerating EVERY fault set of size at most f — the exhaustive
// adversary the prefix sweep in lineEval.evacuation claims to equal.
func bruteForceEvac(t *testing.T, k, f int, dist float64) float64 {
	t.Helper()
	s, hf, err := simSetup(context.Background(), 2, k, f)
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := strategy.Trajectories(s, dist*hf)
	if err != nil {
		t.Fatal(err)
	}
	worst := -1.0
	for ray := 1; ray <= 2; ray++ {
		target := trajectory.Point{Ray: ray, Dist: dist}
		for mask := 0; mask < 1<<k; mask++ {
			if bits.OnesCount(uint(mask)) > f {
				continue
			}
			announce := math.Inf(1)
			for r := 0; r < k; r++ {
				if mask>>r&1 == 1 {
					continue
				}
				if v := trajs[r].FirstVisit(target); v < announce {
					announce = v
				}
			}
			if math.IsInf(announce, 1) {
				t.Fatalf("no healthy robot reaches %v under mask %b", target, mask)
			}
			gather := 0.0
			for r := 0; r < k; r++ {
				if mask>>r&1 == 1 {
					continue
				}
				pos := trajs[r].Position(announce)
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
			if v := (announce + gather) / dist; v > worst {
				worst = v
			}
		}
	}
	return worst
}

// TestEvacuationPrefixAdversaryEqualsBruteForce pins the adversary
// argument the evacuation simulator rests on: the optimal fault set is
// always a prefix of the visit order, so sweeping j = 0..f prefixes
// equals the exhaustive maximum over all C(k, <=f) fault sets.
func TestEvacuationPrefixAdversaryEqualsBruteForce(t *testing.T) {
	for _, c := range []struct{ k, f int }{{3, 1}, {5, 2}} {
		e, err := newLineEval(context.Background(), c.k, c.f)
		if err != nil {
			t.Fatalf("(k=%d, f=%d): %v", c.k, c.f, err)
		}
		for _, d := range []float64{1, 2.3, 10} {
			got, _, _, err := e.evacuation(context.Background(), d)
			if err != nil {
				t.Fatalf("(k=%d, f=%d) at %g: %v", c.k, c.f, d, err)
			}
			want := bruteForceEvac(t, c.k, c.f, d)
			if math.Abs(got-want) > 1e-12*want {
				t.Errorf("(k=%d, f=%d) at %g: prefix sweep %.15g, brute force %.15g",
					c.k, c.f, d, got, want)
			}
		}
	}
}

// TestEvacuationDominatesFind: evacuation ends no earlier than
// detection — the announcement is the detection event, and healthy
// robots still have to walk to the exit.
func TestEvacuationDominatesFind(t *testing.T) {
	eng := New(1)
	for _, c := range []struct{ k, f int }{{3, 1}, {5, 2}} {
		for _, d := range []float64{1, 4.2, 19} {
			evac, err := eng.Run(context.Background(), EvacuationSim{K: c.k, F: c.f, Dist: d})
			if err != nil {
				t.Fatalf("(k=%d, f=%d) at %g: %v", c.k, c.f, d, err)
			}
			find, err := eng.Run(context.Background(), SimulationRun{M: 2, K: c.k, F: c.f, Dist: d})
			if err != nil {
				t.Fatal(err)
			}
			if evac.Value < find.Value-1e-12 {
				t.Errorf("(k=%d, f=%d) at %g: evacuation ratio %.15g below detection ratio %.15g",
					c.k, c.f, d, evac.Value, find.Value)
			}
		}
	}
}

func TestEvacuationWorstDominatesProbes(t *testing.T) {
	eng := New(1)
	worst, err := eng.Run(context.Background(), EvacuationWorst{K: 3, F: 1, Horizon: 50, Points: 12})
	if err != nil {
		t.Fatal(err)
	}
	// LogGrid pins its endpoints, so the grid worst dominates probes at
	// exactly 1 and exactly the horizon.
	for _, d := range []float64{1, 50} {
		probe, err := eng.Run(context.Background(), EvacuationSim{K: 3, F: 1, Dist: d})
		if err != nil {
			t.Fatal(err)
		}
		if worst.Value < probe.Value-1e-9 {
			t.Errorf("grid worst %g below probe %g at distance %g", worst.Value, probe.Value, d)
		}
	}
	if !worst.Eval.Attained || worst.Eval.WorstX < 1 || worst.Eval.WorstX > 50 {
		t.Errorf("worst locator not populated: %+v", worst.Eval)
	}
	if _, err := (EvacuationWorst{K: 3, F: 1, Horizon: 50, Points: 1}).Run(context.Background()); !errors.Is(err, ErrBadParams) {
		t.Error("points < 2 must be rejected")
	}
	if _, err := (EvacuationWorst{K: 3, F: 1, Horizon: 1, Points: 12}).Run(context.Background()); !errors.Is(err, ErrBadParams) {
		t.Error("horizon <= 1 must be rejected")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (EvacuationWorst{K: 3, F: 1, Horizon: 50, Points: 12}).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run = %v, want context.Canceled", err)
	}
}
