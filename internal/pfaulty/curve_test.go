package pfaulty

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// curveDistances draws n distances from draw: x = 1, lattice points
// b^j, log-uniform points in [1, 1e5], and now and then an invalid
// x < 1, which must fail alone.
func curveDistances(draw *rand.Rand, b float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch draw.Intn(8) {
		case 0:
			xs[i] = 1
		case 1, 2:
			xs[i] = math.Pow(b, float64(draw.Intn(12)))
		case 3:
			if draw.Intn(4) == 0 {
				xs[i] = 0.5
				continue
			}
			fallthrough
		default:
			xs[i] = math.Exp(draw.Float64() * math.Log(1e5))
		}
	}
	return xs
}

// checkCurveMatchesPoints evaluates 1–100 distances in one
// MonteCarloCurve call and checks each against a lone MonteCarloRatio
// call and the reference loop, both with a fresh rng of the same seed.
// The base is OptimalBase(p) where that exists (2 otherwise, so invalid
// p still reaches the shared validation) and samples lie in [0, 2000].
func checkCurveMatchesPoints(t *testing.T, p float64, samples uint16, seed int64, points uint8, xseed int64) {
	t.Helper()
	b, _, err := OptimalBase(p)
	if err != nil {
		b = 2
	}
	n := int(samples % 2001)
	xs := curveDistances(rand.New(rand.NewSource(xseed)), b, 1+int(points)%100)
	vals, errs := MonteCarloCurve(context.Background(), b, p, xs, n, seed)
	if len(vals) != len(xs) || len(errs) != len(xs) {
		t.Fatalf("%d distances: got %d values and %d errors", len(xs), len(vals), len(errs))
	}
	for i, x := range xs {
		lone, lerr := MonteCarloRatio(context.Background(), b, p, x, n, rand.New(rand.NewSource(seed)))
		if !sameAnswer(vals[i], errs[i], lone, lerr) {
			t.Fatalf("b=%v p=%v x=%v n=%d seed=%d: curve (%v, %v), lone (%v, %v)", b, p, x, n, seed, vals[i], errs[i], lone, lerr)
		}
		ref, rerr := referenceMonteCarloRatio(context.Background(), b, p, x, n, rand.New(rand.NewSource(seed)))
		if !sameAnswer(vals[i], errs[i], ref, rerr) {
			t.Fatalf("b=%v p=%v x=%v n=%d seed=%d: curve (%v, %v), reference (%v, %v)", b, p, x, n, seed, vals[i], errs[i], ref, rerr)
		}
	}
}

// TestMonteCarloCurveMatchesPoints is the seeded differential check of
// the shared sampler: random p, sample counts on both sides of
// minTableSamples, seeds and distance sets get every lone call's bits.
func TestMonteCarloCurveMatchesPoints(t *testing.T) {
	draw := rand.New(rand.NewSource(29))
	for i := 0; i < 60; i++ {
		p := 0.001 + 0.998*draw.Float64()
		if i%4 == 0 {
			p = 0.9 + 0.099*draw.Float64()
		}
		samples := uint16(draw.Intn(2 * minTableSamples))
		if i%2 == 0 {
			samples = uint16(minTableSamples + draw.Intn(2001-minTableSamples))
		}
		checkCurveMatchesPoints(t, p, samples, draw.Int63(), uint8(draw.Intn(100)), draw.Int63())
	}
	// 100 distances at p = 0.995 outgrow one run's curveFloats.
	if 100*visitsFor(0.995) < 2*curveFloats {
		t.Fatalf("%d passes per distance fit 100 distances in one run", visitsFor(0.995))
	}
	checkCurveMatchesPoints(t, 0.995, 300, 41, 99, 43)
}

func FuzzMonteCarloCurveMatchesPoints(f *testing.F) {
	f.Add(0.5, uint16(2000), int64(7), uint8(47), int64(1))
	f.Add(0.05, uint16(16), int64(1), uint8(0), int64(2))
	f.Add(0.99, uint16(500), int64(23), uint8(8), int64(3))
	f.Add(0.275, uint16(256), int64(-3), uint8(99), int64(4))
	f.Add(0.275, uint16(255), int64(5), uint8(59), int64(5))
	f.Add(1.0, uint16(10), int64(0), uint8(3), int64(6))
	f.Fuzz(checkCurveMatchesPoints)
}

// TestMonteCarloCurvePerDistanceError cuts some distances' passes
// short through sampleRatios, so that a sample needs more passes than
// they hold: those distances fail with the lone run's error, and the
// others keep the lone run's bits. Lone here is sampleRatios on one
// distance, and the reference loop over the same cut passes.
func TestMonteCarloCurvePerDistanceError(t *testing.T) {
	const p, samples = 0.9, 1000
	b, _, err := OptimalBase(p)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{1, 7.5, b * b, 50, 1e4, 3}
	cut := []int{0, 3, 0, 1, 0, 6} // passes kept; 0 keeps them all
	for _, seed := range []int64{1, 2, 3} {
		var ratios, times [][]float64
		for i, x := range xs {
			star, err := Trajectory(b, x, visitsFor(p))
			if err != nil {
				t.Fatal(err)
			}
			ts := passTimes(star, x)
			if cut[i] > 0 {
				ts = ts[:cut[i]]
			}
			rs := make([]float64, len(ts))
			for n, v := range ts {
				rs[n] = v / x
			}
			ratios, times = append(ratios, rs), append(times, ts)
		}
		errs := make([]error, len(xs))
		vals := sampleRatios(context.Background(), p, ratios, errs, samples, rand.New(rand.NewSource(seed)))
		for i, x := range xs {
			if (errs[i] != nil) != (cut[i] > 0) {
				t.Fatalf("seed %d x=%v keeping %d passes: error %v", seed, x, cut[i], errs[i])
			}
			lerr := make([]error, 1)
			lone := sampleRatios(context.Background(), p, ratios[i:i+1], lerr, samples, rand.New(rand.NewSource(seed)))
			if !sameAnswer(vals[i], errs[i], lone[0], lerr[0]) {
				t.Fatalf("seed %d x=%v: curve (%v, %v), lone (%v, %v)", seed, x, vals[i], errs[i], lone[0], lerr[0])
			}
			ref, rerr := referenceSample(context.Background(), p, x, times[i], samples, rand.New(rand.NewSource(seed)))
			if !sameAnswer(vals[i], errs[i], ref, rerr) {
				t.Fatalf("seed %d x=%v: curve (%v, %v), reference (%v, %v)", seed, x, vals[i], errs[i], ref, rerr)
			}
		}
	}
}

// TestMonteCarloCurveCancelled: a cancelled ctx fails every distance
// still sampling with ctx's error, and a distance that failed before
// sampling keeps its own error.
func TestMonteCarloCurveCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _, err := OptimalBase(0.5)
	if err != nil {
		t.Fatal(err)
	}
	vals, errs := MonteCarloCurve(ctx, b, 0.5, []float64{1, 0.5, 50}, 1000, 1)
	for i, want := range []error{context.Canceled, ErrBadParams, context.Canceled} {
		if !errors.Is(errs[i], want) || vals[i] != 0 {
			t.Errorf("distance %d: (%v, %v), want error %v", i, vals[i], errs[i], want)
		}
	}
}
