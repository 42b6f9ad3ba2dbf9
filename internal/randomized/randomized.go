// Package randomized implements randomized line search, the classical
// counterpoint (Kao–Reif–Tate, Information and Computation 1996 —
// reference [21] of Kupavskii–Welzl) to the deterministic bounds the paper
// proves. Where the deterministic cow path cannot beat competitive ratio
// 9, a randomized zigzag with a geometric base b, a uniformly random
// fractional exponent offset, and a fair random starting side achieves
// expected ratio
//
//	E[ratio](b) = 1 + (1 + b) / ln b,
//
// minimized at the root b* of ln b = (1+b)/b... numerically b* ~ 3.5911,
// giving the celebrated constant ~4.5911 — roughly half the deterministic
// 9. The package provides the closed form, its optimizer, a quadrature
// evaluator that integrates the expected detection time over the offset
// (matching the closed form), and a Monte Carlo simulator over concrete
// randomized trajectories (matching both).
//
// Derivation of the closed form, in the idealized infinite-past model
// (turning points b^(i+u) for all integers i, u uniform on [0,1), first
// side fair): a target at distance x = b^y on a fixed side is reached at
// 2*sum_{i<j} b^(i+u) + x, where j is the first index with b^(j+u) >= x
// and the correct side parity. The sum telescopes to b^(j+u)/(b-1);
// averaging b^(j+u) over u gives x*(b-1)/ln b, and the parity coin
// contributes the factor E[b^B] = (1+b)/2. Hence
// E[time] = x * (1 + 2*((b-1)/ln b)*((1+b)/2)/(b-1)) = x*(1 + (1+b)/ln b),
// independent of x — randomization flattens the worst case entirely.
package randomized

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/numeric"
	"repro/internal/trajectory"
)

// Errors returned by the randomized-search evaluators.
var (
	// ErrBadParams is returned for invalid parameters.
	ErrBadParams = errors.New("randomized: invalid parameters")
)

// ExpectedRatio returns the closed-form expected competitive ratio
// 1 + (1+b)/ln(b) of the randomized geometric zigzag with base b > 1.
func ExpectedRatio(b float64) (float64, error) {
	if !(b > 1) || math.IsInf(b, 0) || math.IsNaN(b) {
		return 0, fmt.Errorf("%w: base %g (want > 1)", ErrBadParams, b)
	}
	return 1 + (1+b)/math.Log(b), nil
}

// OptimalBase returns the base minimizing ExpectedRatio (~3.5911) and the
// minimal expected ratio (~4.5911).
func OptimalBase() (base, ratio float64, err error) {
	f := func(b float64) float64 {
		v, ferr := ExpectedRatio(b)
		if ferr != nil {
			return math.Inf(1)
		}
		return v
	}
	base, err = numeric.GoldenSection(f, 1.5, 10, 1e-12, 400)
	if err != nil {
		return 0, 0, fmt.Errorf("randomized: %w", err)
	}
	ratio, err = ExpectedRatio(base)
	if err != nil {
		return 0, 0, err
	}
	return base, ratio, nil
}

// QuadratureRatio evaluates the expected ratio for a target at distance x
// by integrating the detection time of the idealized strategy over the
// offset u (n quadrature nodes) and the fair side coin. It must agree
// with ExpectedRatio for every x — the property tests check exactly this
// flatness.
func QuadratureRatio(b, x float64, n int) (float64, error) {
	if !(b > 1) || !(x > 0) || n < 2 {
		return 0, fmt.Errorf("%w: base %g, x %g, n %d", ErrBadParams, b, x, n)
	}
	y := math.Log(x) / math.Log(b)
	var acc numeric.Kahan
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / float64(n)
		// Smallest integer j with j + u >= y.
		j := math.Ceil(y - u)
		// Parity coin: the target's side matches turn j with prob 1/2;
		// otherwise the robot must go one more turn (j+1).
		for _, extra := range []float64{0, 1} {
			jj := j + extra
			// time = 2 * sum_{i < jj} b^(i+u) + x; the infinite-past sum
			// telescopes to b^(jj+u)/(b-1).
			t := 2*math.Pow(b, jj+u)/(b-1) + x
			acc.Add(t / 2) // each branch has probability 1/2
		}
	}
	return acc.Value() / float64(n) / x, nil
}

// Trajectory materializes one sample of the randomized strategy as a
// concrete zigzag: turning points b^(i+u) for i = iMin..iMax, starting on
// ray 1 (firstPositive) or ray 2. The caller supplies the rng for
// reproducibility.
func Trajectory(b float64, rng *rand.Rand, horizon float64) (*trajectory.Line, error) {
	if !(b > 1) || math.IsInf(b, 0) || math.IsNaN(b) {
		return nil, fmt.Errorf("%w: base %g", ErrBadParams, b)
	}
	if !(horizon > 1) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("%w: horizon %g", ErrBadParams, horizon)
	}
	u := rng.Float64()
	// Start far enough in the past that the missing tail is negligible
	// relative to the horizon, and far enough in the future to cover it.
	iMin := int(math.Floor(-16 / math.Log10(b)))
	iMax := int(math.Ceil(math.Log(horizon)/math.Log(b))) + 2
	turns := make([]float64, 0, iMax-iMin+1)
	for i := iMin; i <= iMax; i++ {
		turns = append(turns, math.Pow(b, float64(i)+u))
	}
	return trajectory.NewLine(turns, false)
}

// MonteCarloRatio estimates the expected competitive ratio for a target at
// signed position x by sampling full randomized trajectories. The fair
// side coin is implemented by mirroring the target sign per sample. The
// sample loop checks ctx every 64 samples so a cancelled batch stops
// promptly. Cancellation does not disturb determinism — a run that
// completes consumes exactly the same rng stream regardless of ctx.
func MonteCarloRatio(ctx context.Context, b, x float64, samples int, rng *rand.Rand) (float64, error) {
	if !(b > 1) || x == 0 || samples < 1 || rng == nil {
		return 0, fmt.Errorf("%w: base %g, x %g, samples %d", ErrBadParams, b, x, samples)
	}
	ax := math.Abs(x)
	var acc numeric.Kahan
	for s := 0; s < samples; s++ {
		if s%64 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		l, err := Trajectory(b, rng, ax*b*b)
		if err != nil {
			return 0, err
		}
		// Fair coin: which side the first excursion explores relative to
		// the target.
		sign := 1.0
		if rng.Intn(2) == 1 {
			sign = -1
		}
		t := l.FirstVisit(sign * ax)
		if math.IsInf(t, 1) {
			return 0, fmt.Errorf("randomized: sampled trajectory missed the target (horizon too small)")
		}
		acc.Add(t / ax)
	}
	return acc.Value() / float64(samples), nil
}

// DeterministicFloor is the deterministic optimum the randomization beats:
// the cow-path constant 9 (A(2,1,0) = rho-form at rho = 2).
const DeterministicFloor = 9.0
