package pfaulty

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/trajectory"
)

// passMoments returns the exact mean and standard deviation of the
// ratio MonteCarloRatio samples: pass n of the materialized passes
// detects with probability (1-p) p^(n-1), so the mean is the finite sum
// Σₙ (1-p) p^(n-1) tₙ/x (Bonato et al.). It depends neither on the
// closed form W(b, p) nor on the sampler.
func passMoments(passes []float64, p, x float64) (mean, sd float64) {
	var m2 float64
	w := 1 - p
	for _, t := range passes {
		r := t / x
		mean += w * r
		m2 += w * r * r
		w *= p
	}
	return mean, math.Sqrt(m2 - mean*mean)
}

// starFrom is Trajectory with its first round at b^first instead of
// about 1e-16.
func starFrom(t *testing.T, b, x float64, first, visits int) *trajectory.Star {
	t.Helper()
	last := int(math.Ceil(math.Log(x)/math.Log(b))) + visits/2 + 1
	var rounds []trajectory.Round
	for i := first; i <= last; i++ {
		rounds = append(rounds, trajectory.Round{Ray: 1, Turn: math.Pow(b, float64(i))})
	}
	star, err := trajectory.NewStar(1, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return star
}

var yardstickPs = []float64{0.05, 0.25, 0.5, 0.9, 0.99}

// yardstickXs are on the turning lattice (1) and off it.
var yardstickXs = []float64{1, 7.5, 50, 1e4}

// TestMonteCarloWithinExactYardstick: every sampled answer lies within
// z·σ/√n of the exact finite-sum mean over the same materialized
// passes, σ being the exact standard deviation of one sample. With
// z = 5 a row fails for a fresh seed with probability about 5.7e-7
// (normal approximation), so the 120 rows here fail together with
// probability about 7e-5; the seeds are fixed, so the test itself is
// deterministic.
func TestMonteCarloWithinExactYardstick(t *testing.T) {
	const z = 5
	for _, p := range yardstickPs {
		b, _, err := OptimalBase(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range yardstickXs {
			star, err := Trajectory(b, x, visitsFor(p))
			if err != nil {
				t.Fatal(err)
			}
			mean, sd := passMoments(passTimes(star, x), p, x)
			for _, n := range []int{500, 20000} {
				for seed := int64(1); seed <= 3; seed++ {
					v, err := MonteCarloRatio(context.Background(), b, p, x, n, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					if band := z * sd / math.Sqrt(float64(n)); math.Abs(v-mean) > band {
						t.Errorf("p=%v x=%v n=%d seed=%d: sampled %v, exact mean %v ± %v", p, x, n, seed, v, mean, band)
					}
				}
			}
		}
	}
}

// TestYardstickApproachesClosedForm: rounds that start at b^first
// instead of in the infinite past make every pass 2 b^first/(b-1)
// earlier, so the finite sum falls short of ExpectedRatio by that much
// times the detected mass 1-p^N, over x, plus the tail beyond the N
// materialized passes. Moving the first round from b^(j-1) down to
// Trajectory's ~1e-16 shrinks the gap to that tail, which is about
// (p²b)^(N/2) of the mean when p^N < 1e-12: near 1e-6 when b is near
// 1/p.
func TestYardstickApproachesClosedForm(t *testing.T) {
	for _, p := range yardstickPs {
		b, _, err := OptimalBase(p)
		if err != nil {
			t.Fatal(err)
		}
		visits := visitsFor(p)
		iMin := int(math.Floor(-16 * math.Ln10 / math.Log(b)))
		for _, x := range yardstickXs {
			closed, err := ExpectedRatio(b, p, x)
			if err != nil {
				t.Fatal(err)
			}
			j := int(math.Ceil(math.Log(x) / math.Log(b)))
			var tail float64
			prevGap := math.Inf(1)
			for _, first := range []int{j - 1, j - 5, j - 20, iMin} {
				passes := passTimes(starFrom(t, b, x, first, visits), x)
				mean, _ := passMoments(passes, p, x)
				gap := closed - mean
				if !(gap < prevGap) {
					t.Fatalf("p=%v x=%v: gap %v at first round b^%d did not shrink from %v", p, x, gap, first, prevGap)
				}
				prevGap = gap
				shift := 2 * math.Pow(b, float64(first)) / ((b - 1) * x) * (1 - math.Pow(p, float64(len(passes))))
				if first == j-1 {
					tail = gap - shift
				} else if math.Abs(gap-shift-tail) > 1e-12*closed {
					t.Errorf("p=%v x=%v first=%d: gap %v = shift %v + tail %v, but the tail was %v", p, x, first, gap, shift, gap-shift, tail)
				}
			}
			if !(tail >= 0) || tail > 1e-5*closed {
				t.Errorf("p=%v x=%v: truncation tail %v of closed form %v", p, x, tail, closed)
			}
			star, err := Trajectory(b, x, visits)
			if err != nil {
				t.Fatal(err)
			}
			if mean, _ := passMoments(passTimes(star, x), p, x); math.Abs(closed-mean) > 1e-5*closed {
				t.Errorf("p=%v x=%v: finite sum %v vs closed form %v", p, x, mean, closed)
			}
		}
	}
}
