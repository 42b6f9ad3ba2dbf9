package randomized

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// quadratureMoments returns the mean and the standard deviation of the
// ratio one MonteCarloRatio sample draws for a target at |x|, by
// QuadratureRatio's rule: n midpoint nodes of the offset u, each with
// the fair side coin's two branches. The mean is QuadratureRatio's sum
// without the compensation; the second moment sits beside it.
func quadratureMoments(b, x float64, n int) (mean, sd float64) {
	y := math.Log(x) / math.Log(b)
	var m2 float64
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / float64(n)
		j := math.Ceil(y - u)
		for _, extra := range []float64{0, 1} {
			r := (2*math.Pow(b, j+extra+u)/(b-1) + x) / x
			mean += r / 2
			m2 += r * r / 2
		}
	}
	mean /= float64(n)
	m2 /= float64(n)
	return mean, math.Sqrt(m2 - mean*mean)
}

// TestMonteCarloWithinQuadratureYardstick: every sampled answer of
// randomized.MonteCarloRatio lies within z·σ/√n of QuadratureRatio, σ
// being the standard deviation of one sample by the same quadrature.
// With z = 5 a row fails for a fresh seed with probability about
// 5.7e-7 (normal approximation), so the 84 rows here fail together
// with probability about 5e-5; the seeds are fixed, so the test itself
// is deterministic. At 1e5 nodes the quadrature differs from
// ExpectedRatio by under 6e-6 of it here, far inside the narrowest
// band (2.5% of the mean).
func TestMonteCarloWithinQuadratureYardstick(t *testing.T) {
	const z, nodes = 5, 100000
	opt, _, err := OptimalBase()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{opt, 2, 6} {
		for _, x := range []float64{1, 2.5, 7.3, 50, 1e3, -1, -50} {
			want, err := QuadratureRatio(b, math.Abs(x), nodes)
			if err != nil {
				t.Fatal(err)
			}
			mean, sd := quadratureMoments(b, math.Abs(x), nodes)
			if math.Abs(mean-want) > 1e-12*want {
				t.Fatalf("b=%v x=%v: moment quadrature mean %v, QuadratureRatio %v", b, x, mean, want)
			}
			for _, n := range []int{400, 4000} {
				for seed := int64(1); seed <= 2; seed++ {
					v, err := MonteCarloRatio(context.Background(), b, x, n, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					if band := z * sd / math.Sqrt(float64(n)); math.Abs(v-want) > band {
						t.Errorf("b=%v x=%v n=%d seed=%d: sampled %v, quadrature %v ± %v", b, x, n, seed, v, want, band)
					}
				}
			}
		}
	}
}
