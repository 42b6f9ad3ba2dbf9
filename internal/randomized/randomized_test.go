package randomized

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestExpectedRatioDomain(t *testing.T) {
	if _, err := ExpectedRatio(1); !errors.Is(err, ErrBadParams) {
		t.Error("b = 1 should fail")
	}
	if _, err := ExpectedRatio(math.NaN()); !errors.Is(err, ErrBadParams) {
		t.Error("NaN should fail")
	}
}

func TestExpectedRatioKnownValues(t *testing.T) {
	// At b = e: 1 + (1+e)/1 = 2 + e.
	got, err := ExpectedRatio(math.E)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(got, 2+math.E, 1e-13) {
		t.Errorf("ExpectedRatio(e) = %.15g, want %.15g", got, 2+math.E)
	}
}

func TestOptimalBaseClassicConstant(t *testing.T) {
	base, ratio, err := OptimalBase()
	if err != nil {
		t.Fatal(err)
	}
	// Kao–Reif–Tate: b* ~ 3.59112, expected ratio ~ 4.59112.
	if math.Abs(base-3.59112) > 1e-3 {
		t.Errorf("optimal base = %.6g, want ~3.59112", base)
	}
	if math.Abs(ratio-4.59112) > 1e-3 {
		t.Errorf("optimal expected ratio = %.6g, want ~4.59112", ratio)
	}
	// Strictly better than the deterministic 9 and the stationarity
	// condition ln b = (1+b)/b holds at the optimum.
	if ratio >= DeterministicFloor {
		t.Error("randomization must beat the deterministic floor")
	}
	if station := math.Log(base) - (1+base)/base; math.Abs(station) > 1e-5 {
		t.Errorf("stationarity residual %g at the reported optimum", station)
	}
}

func TestAdvantageNearlyTwo(t *testing.T) {
	// The optimal randomized strategy gains a factor of nearly two over
	// the deterministic optimum.
	_, ratio, err := OptimalBase()
	if err != nil {
		t.Fatal(err)
	}
	adv := DeterministicFloor / ratio
	if adv < 1.9 || adv > 2.0 {
		t.Errorf("advantage = %.4g, want just under 2", adv)
	}
}

func TestQuadratureMatchesClosedForm(t *testing.T) {
	for _, b := range []float64{2, 3, 3.59112, 5} {
		want, err := ExpectedRatio(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []float64{1, 2.7, 10, 123.4} {
			got, err := QuadratureRatio(b, x, 40000)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.EqualWithin(got, want, 2e-4) {
				t.Errorf("b=%g x=%g: quadrature %.9g, closed form %.9g", b, x, got, want)
			}
		}
	}
}

func TestQuadratureDomain(t *testing.T) {
	if _, err := QuadratureRatio(1, 1, 10); !errors.Is(err, ErrBadParams) {
		t.Error("b = 1 should fail")
	}
	if _, err := QuadratureRatio(2, 0, 10); !errors.Is(err, ErrBadParams) {
		t.Error("x = 0 should fail")
	}
	if _, err := QuadratureRatio(2, 1, 1); !errors.Is(err, ErrBadParams) {
		t.Error("n < 2 should fail")
	}
}

func TestQuickQuadratureFlatInX(t *testing.T) {
	// The hallmark of the randomized strategy: the expected ratio does
	// not depend on the target position.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 1.5 + rng.Float64()*5
		x1 := 1 + rng.Float64()*50
		x2 := 1 + rng.Float64()*50
		r1, err1 := QuadratureRatio(b, x1, 8000)
		r2, err2 := QuadratureRatio(b, x2, 8000)
		if err1 != nil || err2 != nil {
			return false
		}
		return numeric.EqualWithin(r1, r2, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTrajectorySampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l, err := Trajectory(3.6, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The zigzag must reach both +100-ish and -100-ish territory.
	if math.IsInf(l.FirstVisit(50), 1) || math.IsInf(l.FirstVisit(-50), 1) {
		t.Error("sampled trajectory does not cover the horizon on both sides")
	}
	if _, err := Trajectory(0.5, rng, 100); !errors.Is(err, ErrBadParams) {
		t.Error("base <= 1 should fail")
	}
	if _, err := Trajectory(2, rng, 0.5); !errors.Is(err, ErrBadParams) {
		t.Error("horizon <= 1 should fail")
	}
}

func TestMonteCarloMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := 3.59112
	want, err := ExpectedRatio(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MonteCarloRatio(context.Background(), b, 7.3, 4000, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Monte Carlo with 4000 samples: ~2% tolerance.
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("Monte Carlo %.6g vs closed form %.6g", got, want)
	}
}

func TestMonteCarloNegativeTargetSymmetric(t *testing.T) {
	b := 3.0
	rngA := rand.New(rand.NewSource(1))
	rngB := rand.New(rand.NewSource(1))
	pos, err := MonteCarloRatio(context.Background(), b, 5, 1500, rngA)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := MonteCarloRatio(context.Background(), b, -5, 1500, rngB)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, mirrored target: identical sampled ratios (the side
	// coin mirrors the sign).
	if pos != neg {
		t.Errorf("mirror symmetry broken: %.9g vs %.9g", pos, neg)
	}
}

func TestMonteCarloDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := MonteCarloRatio(context.Background(), 1, 1, 10, rng); !errors.Is(err, ErrBadParams) {
		t.Error("b = 1 should fail")
	}
	if _, err := MonteCarloRatio(context.Background(), 2, 0, 10, rng); !errors.Is(err, ErrBadParams) {
		t.Error("x = 0 should fail")
	}
	if _, err := MonteCarloRatio(context.Background(), 2, 1, 0, rng); !errors.Is(err, ErrBadParams) {
		t.Error("0 samples should fail")
	}
	if _, err := MonteCarloRatio(context.Background(), 2, 1, 1, nil); !errors.Is(err, ErrBadParams) {
		t.Error("nil rng should fail")
	}
}

func TestQuickExpectedRatioConvex(t *testing.T) {
	// The expected-ratio curve is unimodal around b*: moving away from
	// the optimum in either direction increases it.
	base, optimal, err := OptimalBase()
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 0.05 + rng.Float64()*2
		lo, err1 := ExpectedRatio(base - d)
		hi, err2 := ExpectedRatio(base + d)
		if err1 != nil {
			lo = math.Inf(1)
		}
		if err2 != nil {
			return false
		}
		return lo >= optimal-1e-12 && hi >= optimal-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMonteCarloRatioCancellation: the sample loop checks its
// context, so a cancelled batch aborts instead of finishing.
func TestMonteCarloRatioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(1))
	if _, err := MonteCarloRatio(ctx, 3.59, 7.5, 5000, rng); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled MonteCarloRatio = %v, want context.Canceled", err)
	}
}
