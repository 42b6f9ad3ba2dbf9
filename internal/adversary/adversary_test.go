package adversary

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bounds"
	"repro/internal/numeric"
	"repro/internal/strategy"
)

func TestExactRatioValidation(t *testing.T) {
	s := strategy.Doubling()
	if _, err := ExactRatio(context.Background(), nil, 0, 10); !errors.Is(err, ErrBadParams) {
		t.Error("nil strategy should fail")
	}
	if _, err := ExactRatio(context.Background(), s, 1, 10); !errors.Is(err, ErrBadParams) {
		t.Error("faults >= robots should fail")
	}
	if _, err := ExactRatio(context.Background(), s, 0, 1); !errors.Is(err, ErrBadParams) {
		t.Error("horizon <= 1 should fail")
	}
	if _, err := ExactRatio(context.Background(), s, 0, math.Inf(1)); !errors.Is(err, ErrBadParams) {
		t.Error("infinite horizon should fail")
	}
}

func TestExactRatioCowPathIsNine(t *testing.T) {
	// The doubling strategy's supremum is the classical 9, approached as
	// x grows (the windowed sup at breakpoint 2^i is 9 - 2^(1-i)), so a
	// large horizon pins it tightly from below.
	ev, err := ExactRatio(context.Background(), strategy.Doubling(), 0, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(ev.WorstRatio, 9, 1e-6) {
		t.Errorf("cow-path exact ratio = %.12g, want 9", ev.WorstRatio)
	}
	if ev.WorstRatio > 9+1e-9 {
		t.Error("measured ratio must never exceed the strategy's true ratio")
	}
	if ev.Attained {
		t.Error("the supremum of the doubling is a right-limit, not attained")
	}
}

func TestExactRatioMatchesLambda0(t *testing.T) {
	// The optimal strategy's measured supremum equals the closed form for
	// a spread of parameters (this is E1/E4's verification core).
	cases := []struct{ m, k, f int }{
		{2, 1, 0}, {2, 3, 1}, {2, 5, 2}, {3, 2, 0}, {3, 4, 1}, {4, 3, 0}, {5, 4, 0},
	}
	for _, c := range cases {
		s, err := strategy.NewCyclicExponential(c.m, c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		lambda0, err := bounds.AMKF(c.m, c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := ExactRatio(context.Background(), s, c.f, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.EqualWithin(ev.WorstRatio, lambda0, 1e-4) {
			t.Errorf("m=%d k=%d f=%d: exact ratio %.9g, lambda0 %.9g",
				c.m, c.k, c.f, ev.WorstRatio, lambda0)
		}
		if ev.WorstRatio > lambda0*(1+1e-9) {
			t.Errorf("m=%d k=%d f=%d: measured ratio exceeds the optimum", c.m, c.k, c.f)
		}
	}
}

func TestExactRatioSuboptimalAlphaIsWorse(t *testing.T) {
	// E7's shape: a detuned base must measure strictly worse than the
	// optimum, matching the closed-form ratio 2*alpha^q/(alpha^k-1)+1.
	m, k, f := 2, 1, 0
	for _, alpha := range []float64{1.5, 3, 4} {
		s, err := strategy.NewCyclicExponentialAlpha(m, k, f, alpha)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bounds.ExpStrategyRatio(alpha, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := ExactRatio(context.Background(), s, f, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.EqualWithin(ev.WorstRatio, want, 1e-4) {
			t.Errorf("alpha=%g: measured %.9g, closed form %.9g", alpha, ev.WorstRatio, want)
		}
		if ev.WorstRatio < 9-1e-9 {
			t.Errorf("alpha=%g: measured %.9g beats the optimal 9", alpha, ev.WorstRatio)
		}
	}
}

func TestGridRatioUnderestimates(t *testing.T) {
	s, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactRatio(context.Background(), s, 1, 300)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := GridRatio(context.Background(), s, 1, 300, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if grid > exact.WorstRatio+1e-9 {
		t.Errorf("grid %.12g exceeds exact %.12g", grid, exact.WorstRatio)
	}
	// With a dense grid the two should be close but the grid still below.
	if grid < exact.WorstRatio*0.9 {
		t.Errorf("grid %.12g implausibly far below exact %.12g", grid, exact.WorstRatio)
	}
}

func TestGridRatioValidation(t *testing.T) {
	s := strategy.Doubling()
	if _, err := GridRatio(context.Background(), nil, 0, 10, 10); !errors.Is(err, ErrBadParams) {
		t.Error("nil strategy should fail")
	}
	if _, err := GridRatio(context.Background(), s, 0, 10, 1); !errors.Is(err, ErrBadParams) {
		t.Error("n < 2 should fail")
	}
	if _, err := GridRatio(context.Background(), s, 1, 10, 10); !errors.Is(err, ErrBadParams) {
		t.Error("faults >= robots should fail")
	}
	if _, err := GridRatio(context.Background(), s, 0, 0.5, 10); !errors.Is(err, ErrBadParams) {
		t.Error("horizon <= 1 should fail")
	}
}

func TestConvergenceCheckStabilizes(t *testing.T) {
	s, err := strategy.NewCyclicExponential(3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh exact evaluations over six doubling horizons from 50.
	var ratios []float64
	for h := 50.0; len(ratios) < 6; h *= 2 {
		ev, err := ExactRatio(context.Background(), s, 0, h)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, ev.WorstRatio)
	}
	// Windowed suprema increase monotonically toward the asymptotic ratio
	// and stabilize to it within a relative 1e-3 over the last doublings.
	for i := 1; i < len(ratios); i++ {
		if ratios[i] < ratios[i-1]-1e-12 {
			t.Errorf("windowed suprema %v decreased", ratios)
		}
	}
	last, prev := ratios[len(ratios)-1], ratios[len(ratios)-2]
	if !numeric.EqualWithin(last, prev, 1e-3) {
		t.Errorf("windowed suprema %v did not stabilize", ratios)
	}
}

func TestRaySplitBaselineWorseThanOptimal(t *testing.T) {
	// The E8 baseline comparison: partitioning rays among robots (each
	// searching alone) is strictly worse than the cooperative cyclic
	// strategy. m=3, k=2: the optimum is 2*(1.5)^1.5/(0.5)^0.5 + 1 ~ 6.2,
	// while the baseline's worst robot privately searches 2 rays at the
	// cow-path constant 9.
	m, k := 3, 2
	base, err := strategy.NewRaySplit(m, k)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := strategy.NewCyclicExponential(m, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	evBase, err := ExactRatio(context.Background(), base, 0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	evOpt, err := ExactRatio(context.Background(), opt, 0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if evBase.WorstRatio <= evOpt.WorstRatio+0.5 {
		t.Errorf("baseline %.6g should be clearly worse than optimal %.6g",
			evBase.WorstRatio, evOpt.WorstRatio)
	}
	// The baseline's supremum is the single-robot two-ray constant 9.
	want, err := bounds.SingleRobotMRays(2)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(evBase.WorstRatio, want, 1e-4) {
		t.Errorf("ray-split ratio %.9g, want single-robot bound %.9g", evBase.WorstRatio, want)
	}
}

func TestQuickExactAtLeastGrid(t *testing.T) {
	// Property: the exact evaluator dominates grid sampling for random
	// in-regime strategies and fault counts.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		ff := rng.Intn(2)
		kMin, kMax := ff+1, m*(ff+1)-1
		if kMax < kMin {
			return true
		}
		k := kMin + rng.Intn(kMax-kMin+1)
		s, err := strategy.NewCyclicExponential(m, k, ff)
		if err != nil {
			return false
		}
		exact, err := ExactRatio(context.Background(), s, ff, 120)
		if err != nil {
			return false
		}
		grid, err := GridRatio(context.Background(), s, ff, 120, 150)
		if err != nil {
			return false
		}
		return grid <= exact.WorstRatio+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickMeasuredNeverBeatsLowerBound(t *testing.T) {
	// The paper's main theorem as a property: no measured strategy ratio
	// falls below lambda0 (here exercised on the family of detuned
	// exponential strategies).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(2)
		k := 1 + rng.Intn(2)
		if k >= m {
			return true
		}
		lambda0, err := bounds.AMKF(m, k, 0)
		if err != nil {
			return false
		}
		alphaStar, err := bounds.OptimalAlpha(m, k)
		if err != nil {
			return false
		}
		alpha := 1 + (alphaStar-1)*(0.5+rng.Float64())
		s, err := strategy.NewCyclicExponentialAlpha(m, k, 0, alpha)
		if err != nil {
			return false
		}
		// Finite windows approach the true supremum from below, so allow
		// the window-convergence slack on top of the bound.
		ev, err := ExactRatio(context.Background(), s, 0, 1e5)
		if err != nil {
			return false
		}
		return ev.WorstRatio >= lambda0*(1-1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExactRatioCancellation: the breakpoint loop checks its context
// periodically, so a cancelled evaluation aborts with the context's
// error instead of running to completion.
func TestExactRatioCancellation(t *testing.T) {
	// A deep ladder (k=8, horizon 1e7) has thousands of breakpoints, so
	// the every-64th-point check fires many times.
	s, err := strategy.NewCyclicExponential(2, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExactRatio(ctx, s, 7, 1e7); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ExactRatio = %v, want context.Canceled", err)
	}
	if _, err := GridRatio(ctx, s, 7, 1e7, 1000); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled GridRatio = %v, want context.Canceled", err)
	}
	// A live context evaluates normally.
	ev, err := ExactRatio(context.Background(), s, 7, 1e5)
	if err != nil || !(ev.WorstRatio > 1) {
		t.Errorf("ExactRatio = (%+v, %v)", ev, err)
	}
}
