package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKahanCompensates(t *testing.T) {
	// Summing 1 followed by many tiny values loses the tail in naive
	// float64 addition but not under compensation.
	const n = 1_000_000
	const tiny = 1e-16
	var acc Kahan
	acc.Add(1)
	naive := 1.0
	for i := 0; i < n; i++ {
		acc.Add(tiny)
		naive += tiny
	}
	want := 1 + n*tiny
	if got := acc.Value(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Kahan sum = %.17g, want %.17g", got, want)
	}
	if math.Abs(naive-want) < 1e-12 {
		t.Skip("naive summation unexpectedly accurate on this platform; compensation untestable")
	}
}

func TestSumKahanMatchesExact(t *testing.T) {
	var acc Kahan
	for _, x := range []float64{1, 2, 3, 4.5, -2.5} {
		acc.Add(x)
	}
	if got := acc.Value(); got != 8 {
		t.Errorf("Kahan sum = %g, want 8", got)
	}
}

func TestEqualWithin(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{"identical", 1, 1, 0, true},
		{"absolute", 1e-10, 2e-10, 1e-9, true},
		{"relative", 1e10, 1e10 + 1, 1e-9, true},
		{"fails", 1, 2, 1e-3, false},
		{"zero vs tiny", 0, 1e-12, 1e-9, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := EqualWithin(tt.a, tt.b, tt.tol); got != tt.want {
				t.Errorf("EqualWithin(%g, %g, %g) = %v, want %v", tt.a, tt.b, tt.tol, got, tt.want)
			}
		})
	}
}

func TestXLogX(t *testing.T) {
	tests := []struct {
		x, want float64
	}{
		{0, 0},
		{1, 0},
		{math.E, math.E},
		{2, 2 * math.Ln2},
	}
	for _, tt := range tests {
		if got := XLogX(tt.x); math.Abs(got-tt.want) > 1e-15 {
			t.Errorf("XLogX(%g) = %g, want %g", tt.x, got, tt.want)
		}
	}
	if !math.IsNaN(XLogX(-1)) {
		t.Error("XLogX(-1) should be NaN")
	}
}

func TestPowRatioAgainstDirect(t *testing.T) {
	// For small arguments the direct evaluation fits in float64.
	tests := []struct {
		a, b, c float64
	}{
		{2, 1, 1},
		{4, 2, 2},
		{3, 1, 2},
		{6, 3, 3},
		{10, 4, 6},
	}
	for _, tt := range tests {
		got, err := PowRatio(tt.a, tt.b, tt.c)
		if err != nil {
			t.Fatalf("PowRatio(%g,%g,%g): %v", tt.a, tt.b, tt.c, err)
		}
		direct := math.Pow(
			math.Pow(tt.a, tt.a)/(math.Pow(tt.b, tt.b)*math.Pow(tt.c, tt.c)),
			1/tt.c,
		)
		if !EqualWithin(got, direct, 1e-12) {
			t.Errorf("PowRatio(%g,%g,%g) = %g, direct = %g", tt.a, tt.b, tt.c, got, direct)
		}
	}
}

func TestPowRatioNoOverflow(t *testing.T) {
	// q = 400: q^q overflows float64, but the log-space route is finite.
	got, err := PowRatio(400, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Errorf("PowRatio(400,100,300) = %g, want a positive finite value", got)
	}
}

func TestPowRatioDomainErrors(t *testing.T) {
	if _, err := PowRatio(-1, 0, 1); err == nil {
		t.Error("expected domain error for a < 0")
	}
	if _, err := PowRatio(1, 1, 0); err == nil {
		t.Error("expected domain error for c = 0")
	}
}

func TestPowRatioEdgeBZero(t *testing.T) {
	// b = 0 uses the 0^0 = 1 extension: (a^a / c^c)^(1/c).
	got, err := PowRatio(2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(4.0/4.0, 0.5)
	if !EqualWithin(got, want, 1e-14) {
		t.Errorf("PowRatio(2,0,2) = %g, want %g", got, want)
	}
}

func TestNextUpDown(t *testing.T) {
	x := 1.0
	if !(NextUp(x) > x) {
		t.Error("NextUp(1) should exceed 1")
	}
	if !(NextDown(x) < x) {
		t.Error("NextDown(1) should be below 1")
	}
	if NextUp(math.Inf(1)) != math.Inf(1) {
		t.Error("NextUp(+Inf) should stay +Inf")
	}
	if NextDown(math.Inf(-1)) != math.Inf(-1) {
		t.Error("NextDown(-Inf) should stay -Inf")
	}
}

func TestQuickKahanAtLeastAsAccurate(t *testing.T) {
	// Property: for random positive inputs, the Kahan sum is within a few
	// ulps of a float64 reference computed via sorted summation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
		}
		var acc Kahan
		for _, x := range xs {
			acc.Add(x)
		}
		got := acc.Value()
		// High-precision reference via pairwise summation of sorted values.
		ref := pairwiseSum(xs)
		return EqualWithin(got, ref, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func pairwiseSum(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	mid := len(xs) / 2
	return pairwiseSum(xs[:mid]) + pairwiseSum(xs[mid:])
}
