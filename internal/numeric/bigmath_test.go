package numeric

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRatPowInt(t *testing.T) {
	r := big.NewRat(3, 2)
	p, err := RatPowInt(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cmp(big.NewRat(81, 16)) != 0 {
		t.Errorf("(3/2)^4 = %s, want 81/16", p)
	}
	if _, err := RatPowInt(r, -1); err == nil {
		t.Error("negative exponent should fail")
	}
	p0, _ := RatPowInt(r, 0)
	if p0.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("(3/2)^0 = %s, want 1", p0)
	}
}

func TestMuKernelKnownValues(t *testing.T) {
	tests := []struct {
		q, k int
		want *big.Rat
	}{
		// q=2, k=1: 2^2/(1^1*1^1) = 4 -> mu = 4, lambda = 9 (cow path).
		{2, 1, big.NewRat(4, 1)},
		// q=4, k=2: 4^4/(2^2*2^2) = 256/16 = 16 -> mu = 4, lambda = 9.
		{4, 2, big.NewRat(16, 1)},
		// q=4, k=3: 4^4/(1*27) = 256/27 -> mu^3, lambda = (8/3)4^(1/3)+1.
		{4, 3, big.NewRat(256, 27)},
		// q=3, k=1: 3^3/(2^2*1) = 27/4.
		{3, 1, big.NewRat(27, 4)},
	}
	for _, tt := range tests {
		got, err := MuKernel(tt.q, tt.k)
		if err != nil {
			t.Fatalf("MuKernel(%d,%d): %v", tt.q, tt.k, err)
		}
		if got.Cmp(tt.want) != 0 {
			t.Errorf("MuKernel(%d,%d) = %s, want %s", tt.q, tt.k, got, tt.want)
		}
	}
}

func TestMuKernelDomain(t *testing.T) {
	if _, err := MuKernel(3, 3); err == nil {
		t.Error("MuKernel(3,3) should fail (k < q required)")
	}
	if _, err := MuKernel(3, 0); err == nil {
		t.Error("MuKernel(3,0) should fail")
	}
}

func TestRootKCertifiedSqrt(t *testing.T) {
	enc, err := RootK(big.NewRat(2, 1), 2, 80)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := enc.Lo.Float64()
	hi, _ := enc.Hi.Float64()
	if !(lo <= math.Sqrt2 && math.Sqrt2 <= hi) {
		t.Errorf("enclosure [%.17g, %.17g] misses sqrt(2)", lo, hi)
	}
	w, _ := enc.Width().Float64()
	if w > 1e-20 {
		t.Errorf("enclosure width %g too wide for 80 bits", w)
	}
}

func TestRootKExactCube(t *testing.T) {
	enc, err := RootK(big.NewRat(27, 1), 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Float64() != 3 {
		t.Errorf("27^(1/3) enclosure midpoint = %g, want exactly 3", enc.Float64())
	}
}

func TestRootKOrderOne(t *testing.T) {
	enc, err := RootK(big.NewRat(7, 3), 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := new(big.Float).SetRat(big.NewRat(7, 3)).Float64()
	if !EqualWithin(enc.Float64(), want, 1e-15) {
		t.Errorf("RootK order 1 = %g, want %g", enc.Float64(), want)
	}
}

func TestRootKDomain(t *testing.T) {
	if _, err := RootK(big.NewRat(-1, 1), 2, 64); err == nil {
		t.Error("RootK of negative should fail")
	}
	if _, err := RootK(big.NewRat(1, 1), 0, 64); err == nil {
		t.Error("RootK order 0 should fail")
	}
}

func TestQuickRootKEnclosureValid(t *testing.T) {
	// Property: for random rationals and orders, the enclosure is valid
	// (Lo^k <= r <= Hi^k exactly) and tight (Hi - Lo is one ulp or zero).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		num := int64(rng.Intn(10000) + 1)
		den := int64(rng.Intn(1000) + 1)
		k := rng.Intn(8) + 2
		r := big.NewRat(num, den)
		enc, err := RootK(r, k, 64)
		if err != nil {
			return false
		}
		loR, _ := enc.Lo.Rat(nil)
		hiR, _ := enc.Hi.Rat(nil)
		loPow, _ := RatPowInt(loR, k)
		hiPow, _ := RatPowInt(hiR, k)
		return loPow.Cmp(r) <= 0 && hiPow.Cmp(r) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBigMuMatchesFloat(t *testing.T) {
	// mu(q,k) from the exact rational path must agree with the log-space
	// float64 path to float64 accuracy.
	cases := []struct{ q, k int }{{2, 1}, {4, 2}, {4, 3}, {6, 5}, {12, 7}, {30, 11}}
	for _, c := range cases {
		enc, err := BigMu(c.q, c.k, 96)
		if err != nil {
			t.Fatalf("BigMu(%d,%d): %v", c.q, c.k, err)
		}
		flt, err := PowRatio(float64(c.q), float64(c.q-c.k), float64(c.k))
		if err != nil {
			t.Fatal(err)
		}
		if !EqualWithin(enc.Float64(), flt, 1e-13) {
			t.Errorf("BigMu(%d,%d) = %.17g, PowRatio = %.17g", c.q, c.k, enc.Float64(), flt)
		}
	}
}

func TestBigLambda0B31(t *testing.T) {
	// The paper's improved Byzantine bound: B(3,1) >= (8/3)*4^(1/3) + 1,
	// which is lambda0 for q = 4, k = 3. Approximately 5.23.
	enc, err := BigLambda0(4, 3, 96)
	if err != nil {
		t.Fatal(err)
	}
	want := 8.0/3.0*math.Cbrt(4) + 1
	if !EqualWithin(enc.Float64(), want, 1e-13) {
		t.Errorf("BigLambda0(4,3) = %.17g, want %.17g", enc.Float64(), want)
	}
	if enc.Float64() < 5.23 || enc.Float64() > 5.24 {
		t.Errorf("B(3,1) bound = %.6g, expected about 5.233", enc.Float64())
	}
}

func TestBigLambda0CowPath(t *testing.T) {
	enc, err := BigLambda0(2, 1, 96)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(enc.Float64(), 9, 1e-14) {
		t.Errorf("lambda0(2,1) = %.17g, want 9", enc.Float64())
	}
}

func TestBigMuLargeQNoOverflow(t *testing.T) {
	// q = 400 overflows float64's q^q but the rational kernel is exact.
	enc, err := BigMu(400, 100, 96)
	if err != nil {
		t.Fatal(err)
	}
	flt, err := PowRatio(400, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(enc.Float64(), flt, 1e-12) {
		t.Errorf("BigMu(400,100) = %.17g, PowRatio = %.17g", enc.Float64(), flt)
	}
}
