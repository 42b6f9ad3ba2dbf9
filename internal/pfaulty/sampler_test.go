package pfaulty

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/numeric"
)

// referenceMonteCarloRatio is MonteCarloRatio as it was before the
// pass table: one rng.Float64 and one math.Log per sample. The table
// sampler must reproduce it in every bit, error for error.
func referenceMonteCarloRatio(ctx context.Context, b, p, x float64, samples int, rng *rand.Rand) (float64, error) {
	if err := validate(b, p); err != nil {
		return 0, err
	}
	if !(x >= 1) || samples < 1 || rng == nil {
		return 0, fmt.Errorf("%w: x %g, samples %d", ErrBadParams, x, samples)
	}
	star, err := Trajectory(b, x, visitsFor(p))
	if err != nil {
		return 0, err
	}
	visits := passTimes(star, x)
	if len(visits) == 0 {
		return 0, fmt.Errorf("pfaulty: trajectory never reaches %g", x)
	}
	return referenceSample(ctx, p, x, visits, samples, rng)
}

// referenceSample is referenceMonteCarloRatio's sample loop over the
// given pass times of a target at x.
func referenceSample(ctx context.Context, p, x float64, visits []float64, samples int, rng *rand.Rand) (float64, error) {
	logP := math.Log(p)
	var acc numeric.Kahan
	for s := 0; s < samples; s++ {
		if s%64 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		n := 1 + int(math.Log(1-rng.Float64())/logP)
		if n > len(visits) {
			return 0, fmt.Errorf("pfaulty: sample needed pass %d of %d materialized (p too close to 1 for the horizon)", n, len(visits))
		}
		acc.Add(visits[n-1] / x)
	}
	return acc.Value() / float64(samples), nil
}

// referencePass is the inverse-transform expression on one Int63 draw
// that does not round to 1.
func referencePass(v int64, logP float64) int {
	return 1 + int(math.Log(1-float64(v)/(1<<63))/logP)
}

// sameAnswer reports whether two (value, error) pairs are the same
// answer: equal bits, or equal error text.
func sameAnswer(v1 float64, err1 error, v2 float64, err2 error) bool {
	if err1 != nil || err2 != nil {
		return err1 != nil && err2 != nil && err1.Error() == err2.Error()
	}
	return math.Float64bits(v1) == math.Float64bits(v2)
}

// checkMatchesLogSampler runs both samplers on inputs drawn from raw
// values: the base is OptimalBase(p) where that exists (2 otherwise, so
// invalid p still reaches the shared validation) and samples lie in
// [0, 2000].
func checkMatchesLogSampler(t *testing.T, p, x float64, samples uint16, seed int64) {
	t.Helper()
	b, _, err := OptimalBase(p)
	if err != nil {
		b = 2
	}
	n := int(samples % 2001)
	got, gerr := MonteCarloRatio(context.Background(), b, p, x, n, rand.New(rand.NewSource(seed)))
	want, werr := referenceMonteCarloRatio(context.Background(), b, p, x, n, rand.New(rand.NewSource(seed)))
	if !sameAnswer(got, gerr, want, werr) {
		t.Fatalf("b=%v p=%v x=%v n=%d seed=%d: got (%v, %v), reference (%v, %v)", b, p, x, n, seed, got, gerr, want, werr)
	}
}

// TestMonteCarloMatchesLogSampler is the seeded differential check:
// random (p, x, samples, seed) get the reference loop's bits.
func TestMonteCarloMatchesLogSampler(t *testing.T) {
	draw := rand.New(rand.NewSource(17))
	for i := 0; i < 1000; i++ {
		p := 0.001 + 0.998*draw.Float64()
		if i%4 == 0 {
			p = 0.9 + 0.099*draw.Float64()
		}
		x := math.Exp(draw.Float64() * math.Log(1e5))
		checkMatchesLogSampler(t, p, x, uint16(draw.Intn(2001)), draw.Int63())
	}
}

func FuzzMonteCarloMatchesLogSampler(f *testing.F) {
	f.Add(0.5, 50.0, uint16(2000), int64(7))
	f.Add(0.05, 1.0, uint16(16), int64(1))
	f.Add(0.99, 7.5, uint16(500), int64(23))
	f.Add(0.275, 1e4, uint16(0), int64(-3))
	f.Add(1.0, 5.0, uint16(10), int64(0))
	f.Fuzz(checkMatchesLogSampler)
}

// TestPassTableMatchesExpression checks every non-zero bucket against
// the exact expression at both ends and at random interior draws, over
// a dense p grid, and at both ends over p = i/4096, where 1-p is a
// bucket edge and an unwidened threshold lands within an ulp of it. It
// also checks that every zero bucket has a reason: it is the last
// bucket, it touches a widened threshold, or it lies past the cap.
func TestPassTableMatchesExpression(t *testing.T) {
	draw := rand.New(rand.NewSource(5))
	for i := 1; i <= 999; i++ {
		checkPassTable(t, float64(i)/1000, draw)
	}
	for i := 1; i < 1<<passBits; i++ {
		checkPassTable(t, float64(i)/(1<<passBits), nil)
	}
}

// checkPassTable checks one p's table; a nil draw checks bucket ends
// only.
func checkPassTable(t *testing.T, p float64, draw *rand.Rand) {
	t.Helper()
	const shift = 63 - passBits
	const width = 1.0 / (1 << passBits)
	logP := math.Log(p)
	var table [1 << passBits]uint8
	fillPassTable(&table, logP, maxTablePass)
	thresholds := make([]float64, maxTablePass)
	for j := range thresholds {
		thresholds[j] = -math.Expm1(float64(j+1) * logP)
	}
	for k, n := range table {
		if n == 0 {
			// The first threshold whose widened interval reaches this
			// bucket must start inside it.
			j := sort.SearchFloat64s(thresholds, float64(k)*width-passDelta)
			if k < len(table)-1 && j < len(thresholds) && thresholds[j]-passDelta > float64(k+1)*width {
				t.Fatalf("p=%v: bucket %d falls back with no threshold near it", p, k)
			}
			continue
		}
		lo := int64(k) << shift
		draws := []int64{lo, lo + 1<<shift - 1}
		if draw != nil {
			draws = append(draws, lo+draw.Int63n(1<<shift), lo+draw.Int63n(1<<shift))
		}
		for _, v := range draws {
			if want := referencePass(v, logP); int(n) != want {
				t.Fatalf("p=%v bucket %d draw %#x: table %d, expression %d", p, k, v, n, want)
			}
		}
	}
	if table[len(table)-1] != 0 {
		t.Fatalf("p=%v: last bucket holds %d, want the fallback", p, table[len(table)-1])
	}
}

// TestPassTableCap uses p = 0.99, where the materialized passes exceed
// what a uint8 entry holds: the table stops at maxTablePass, later
// passes take the log, and the answer keeps the reference's bits.
func TestPassTableCap(t *testing.T) {
	const p = 0.99
	if visitsFor(p) <= maxTablePass {
		t.Fatalf("visitsFor(%v) = %d does not exceed the table cap", p, visitsFor(p))
	}
	var table [1 << passBits]uint8
	fillPassTable(&table, math.Log(p), maxTablePass)
	top := uint8(0)
	for _, n := range table {
		top = max(top, n)
	}
	if top != maxTablePass {
		t.Errorf("largest entry %d, want the cap %d", top, maxTablePass)
	}
	for _, n := range table[len(table)-200:] {
		if n != 0 {
			t.Fatalf("bucket past pass %d holds %d, want the fallback", maxTablePass, n)
		}
	}
	b, _, err := OptimalBase(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		got, gerr := MonteCarloRatio(context.Background(), b, p, 7.5, 20000, rand.New(rand.NewSource(seed)))
		want, werr := referenceMonteCarloRatio(context.Background(), b, p, 7.5, 20000, rand.New(rand.NewSource(seed)))
		if !sameAnswer(got, gerr, want, werr) {
			t.Fatalf("seed %d: got (%v, %v), reference (%v, %v)", seed, got, gerr, want, werr)
		}
	}
}

// topSource returns 2^63-1 first, whose float64 quotient by 2^63
// rounds to 1, then the values of the wrapped source.
type topSource struct {
	rand.Source
	used bool
}

func (s *topSource) Int63() int64 {
	if !s.used {
		s.used = true
		return 1<<63 - 1
	}
	return s.Source.Int63()
}

// TestMonteCarloResamplesLikeFloat64: a draw that rounds to u = 1 is
// redrawn as rand.Float64 redraws it, so the rng stream stays aligned,
// both with a filled table and with the empty one of short runs.
func TestMonteCarloResamplesLikeFloat64(t *testing.T) {
	if float64(int64(1<<63-1))/(1<<63) != 1 {
		t.Fatal("2^63-1 no longer rounds to u = 1; the stub does not reach the redraw")
	}
	for _, p := range []float64{0.05, 0.5, 0.9} {
		b, _, err := OptimalBase(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{minTableSamples - 1, minTableSamples} {
			got, gerr := MonteCarloRatio(context.Background(), b, p, 7.5, n, rand.New(&topSource{Source: rand.NewSource(9)}))
			want, werr := referenceMonteCarloRatio(context.Background(), b, p, 7.5, n, rand.New(&topSource{Source: rand.NewSource(9)}))
			if !sameAnswer(got, gerr, want, werr) {
				t.Fatalf("p=%v n=%d: got (%v, %v), reference (%v, %v)", p, n, got, gerr, want, werr)
			}
		}
	}
}
