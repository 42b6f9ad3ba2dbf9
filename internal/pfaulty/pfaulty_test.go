package pfaulty

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/trajectory"
)

func TestValidation(t *testing.T) {
	cases := []struct{ b, p float64 }{
		{0.9, 0.5},  // base <= 1
		{1, 0.5},    // base <= 1
		{2, 0},      // p out of range
		{2, 1},      // p out of range
		{2, -0.1},   // p out of range
		{5, 0.5},    // diverges: p^2 b = 1.25
		{4, 0.5},    // diverges: p^2 b = 1 (boundary)
		{1.5, 0.99}, // diverges
	}
	for _, c := range cases {
		if _, err := WorstRatio(c.b, c.p); err == nil {
			t.Errorf("WorstRatio(%g, %g) accepted invalid parameters", c.b, c.p)
		}
		if _, err := ExpectedRatio(c.b, c.p, 5); err == nil {
			t.Errorf("ExpectedRatio(%g, %g, 5) accepted invalid parameters", c.b, c.p)
		}
	}
	if _, err := WorstRatio(5, 0.5); !errors.Is(err, ErrDiverges) {
		t.Errorf("p^2 b >= 1 should be ErrDiverges, got %v", err)
	}
	if _, err := ExpectedRatio(2, 0.5, -1); !errors.Is(err, ErrBadParams) {
		t.Errorf("negative distance should be ErrBadParams, got %v", err)
	}
}

// TestExpectedRatioPeriodicity pins the structural property of the
// closed form: the expected ratio depends on x only through
// gamma = b^ceil(log_b x)/x, so scaling x by b leaves it unchanged.
func TestExpectedRatioPeriodicity(t *testing.T) {
	const b, p = 1.9, 0.5
	for _, x := range []float64{1.3, 2.7, 5.5} {
		r1, err := ExpectedRatio(b, p, x)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ExpectedRatio(b, p, x*b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r1-r2)/r1 > 1e-9 {
			t.Errorf("ratio not log-periodic: R(%g)=%g, R(%g)=%g", x, r1, x*b, r2)
		}
	}
}

// TestWorstRatioIsSupremum: the worst ratio dominates the expected
// ratio at every distance, and is approached as x nears a turning
// point from above.
func TestWorstRatioIsSupremum(t *testing.T) {
	const b, p = 2.1, 0.4
	worst, err := WorstRatio(b, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		x := 1 + float64(i)*0.05
		r, err := ExpectedRatio(b, p, x)
		if err != nil {
			t.Fatal(err)
		}
		if r > worst*(1+1e-12) {
			t.Fatalf("ExpectedRatio(%g) = %g exceeds WorstRatio %g", x, r, worst)
		}
	}
	// Just above a turning point the ratio approaches the supremum.
	x := math.Pow(b, 3) * (1 + 1e-9)
	r, err := ExpectedRatio(b, p, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-worst)/worst > 1e-6 {
		t.Errorf("ratio just above a turn = %g, want ~ supremum %g", r, worst)
	}
}

func TestOptimalBaseInterior(t *testing.T) {
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		base, ratio, err := OptimalBase(p)
		if err != nil {
			t.Fatalf("OptimalBase(%g): %v", p, err)
		}
		if !(base > 1) || !(base < 1/(p*p)) {
			t.Errorf("OptimalBase(%g) = %g outside the feasible interval (1, %g)", p, base, 1/(p*p))
		}
		// The reported minimum beats nearby bases.
		for _, scale := range []float64{0.95, 1.05} {
			b2 := base * scale
			if !(b2 > 1) || p*p*b2 >= 1 {
				continue
			}
			v, err := WorstRatio(b2, p)
			if err != nil {
				t.Fatal(err)
			}
			if v < ratio-1e-9 {
				t.Errorf("p=%g: WorstRatio(%g)=%g beats the reported optimum %g at %g", p, b2, v, ratio, base)
			}
		}
	}
	if _, _, err := OptimalBase(0); err == nil {
		t.Error("OptimalBase(0) should fail")
	}
	if _, _, err := OptimalBase(1); err == nil {
		t.Error("OptimalBase(1) should fail")
	}
}

// TestOptimalBaseQuarterClosedForm checks p = 1/4 against an exact
// stationary point: minimizing W(b, 1/4) analytically gives b* = 8/3
// (the feasible root), with W = 27/5.
func TestOptimalBaseQuarterClosedForm(t *testing.T) {
	base, ratio, err := OptimalBase(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base-8.0/3.0) > 1e-6 {
		t.Errorf("OptimalBase(1/4) = %.9g, want 8/3", base)
	}
	if math.Abs(ratio-27.0/5.0) > 1e-9 {
		t.Errorf("optimal worst ratio at p=1/4 = %.12g, want 27/5", ratio)
	}
}

// TestTrajectoryVisits: the materialized S_1 trajectory passes the
// target at least the requested number of times, in increasing order.
func TestTrajectoryVisits(t *testing.T) {
	star, err := Trajectory(1.8, 7.5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if star.M() != 1 {
		t.Fatalf("half-line trajectory has %d rays", star.M())
	}
	visits := star.VisitTimes(trajectory.Point{Ray: 1, Dist: 7.5})
	if len(visits) < 30 {
		t.Fatalf("materialized %d visits, want >= 30", len(visits))
	}
	for i := 1; i < len(visits); i++ {
		if visits[i] <= visits[i-1] {
			t.Fatalf("visit times not increasing at %d: %g <= %g", i, visits[i], visits[i-1])
		}
	}
	if visits[0] < 7.5 {
		t.Errorf("first visit at %g before the robot could reach 7.5", visits[0])
	}
}

// TestMonteCarloMatchesClosedForm is the simulator-vs-closed-form
// golden check: the sampled mean over materialized trajectories must
// agree with the geometric-series closed form within Monte-Carlo
// tolerance at every tested fault probability.
func TestMonteCarloMatchesClosedForm(t *testing.T) {
	for _, p := range []float64{0.1, 0.25, 0.5} {
		base, _, err := OptimalBase(p)
		if err != nil {
			t.Fatal(err)
		}
		closed, err := ExpectedRatio(base, p, 7.5)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := MonteCarloRatio(context.Background(), base, p, 7.5, 20000, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(mc-closed) / closed; rel > 0.05 {
			t.Errorf("p=%g: Monte-Carlo %g vs closed form %g (rel %g)", p, mc, closed, rel)
		}
	}
}

// TestMonteCarloDeterministicBySeed: same seed, same estimate — the
// engine's cacheability contract.
func TestMonteCarloDeterministicBySeed(t *testing.T) {
	a, err := MonteCarloRatio(context.Background(), 1.8, 0.5, 5, 500, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloRatio(context.Background(), 1.8, 0.5, 5, 500, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced %g and %g", a, b)
	}
	c, err := MonteCarloRatio(context.Background(), 1.8, 0.5, 5, 500, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Errorf("different seeds produced the identical estimate %g", a)
	}
}

func TestMonteCarloCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MonteCarloRatio(ctx, 1.8, 0.5, 5, 10000, rand.New(rand.NewSource(1))); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}
