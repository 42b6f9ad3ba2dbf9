package bounds

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestClassify(t *testing.T) {
	tests := []struct {
		name    string
		m, k, f int
		want    Regime
	}{
		{"all faulty", 2, 3, 3, RegimeUnsolvable},
		{"more faulty than robots", 2, 2, 5, RegimeUnsolvable},
		{"trivial line", 2, 4, 1, RegimeTrivial},
		{"trivial exact", 3, 6, 1, RegimeTrivial},
		{"cow path", 2, 1, 0, RegimeSearch},
		{"line one fault", 2, 3, 1, RegimeSearch},
		{"three rays", 3, 2, 0, RegimeSearch},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Classify(tt.m, tt.k, tt.f)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Classify(%d,%d,%d) = %v, want %v", tt.m, tt.k, tt.f, got, tt.want)
			}
		})
	}
}

func TestClassifyInvalid(t *testing.T) {
	for _, c := range []struct{ m, k, f int }{{0, 1, 0}, {2, 0, 0}, {2, 1, -1}} {
		if _, err := Classify(c.m, c.k, c.f); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("Classify(%d,%d,%d) should fail", c.m, c.k, c.f)
		}
	}
}

func TestRegimeString(t *testing.T) {
	if RegimeSearch.String() != "search" || RegimeTrivial.String() != "trivial" ||
		RegimeUnsolvable.String() != "unsolvable" {
		t.Error("Regime.String misbehaves")
	}
	if Regime(99).String() == "" {
		t.Error("unknown regime should still produce a string")
	}
}

func TestAKFKnownValues(t *testing.T) {
	tests := []struct {
		name string
		k, f int
		want float64
	}{
		// k=1, f=0: s=2, rho=2 -> 2*4+1 = 9: the classical cow path.
		{"cow path", 1, 0, 9},
		// k=2, f=1: s=2, rho=2 -> 9 again (one fault eats the extra robot
		// on the line: you need both robots at every point).
		{"two robots one fault", 2, 2 - 1, 9},
		// k=3, f=1: s=1, rho=4/3 -> (8/3)*4^(1/3)+1, the B(3,1) number.
		{"three robots one fault", 3, 1, 8.0/3.0*math.Cbrt(4) + 1},
		// k=3, f=2: s=3, rho=2 -> 9.
		{"three robots two faults", 3, 2, 9},
		// k=4, f=1: s=0 boundary -> trivial regime, ratio 1.
		{"four robots one fault trivial", 4, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := AKF(tt.k, tt.f)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.EqualWithin(got, tt.want, 1e-12) {
				t.Errorf("AKF(%d,%d) = %.15g, want %.15g", tt.k, tt.f, got, tt.want)
			}
		})
	}
}

func TestAKFUnsolvable(t *testing.T) {
	got, err := AKF(2, 2)
	if !errors.Is(err, ErrUnsolvable) {
		t.Fatalf("AKF(2,2) error = %v, want ErrUnsolvable", err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("AKF(2,2) = %g, want +Inf", got)
	}
}

func TestAMKFEqualsAKFOnLine(t *testing.T) {
	// Substituting m = 2 into Eq. (9) recovers Eq. (1), per the paper.
	for k := 1; k <= 8; k++ {
		for f := 0; f < k; f++ {
			line, errLine := AKF(k, f)
			gen, errGen := AMKF(2, k, f)
			if (errLine == nil) != (errGen == nil) {
				t.Fatalf("error mismatch at k=%d f=%d: %v vs %v", k, f, errLine, errGen)
			}
			if errLine != nil {
				continue
			}
			if !numeric.EqualWithin(line, gen, 1e-13) {
				t.Errorf("AKF(%d,%d)=%.15g != AMKF(2,%d,%d)=%.15g", k, f, line, k, f, gen)
			}
		}
	}
}

func TestAMKFSingleRobotClassics(t *testing.T) {
	// k=1, f=0 on m rays must equal the classical 1 + 2m^m/(m-1)^(m-1).
	for m := 2; m <= 8; m++ {
		got, err := AMKF(m, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SingleRobotMRays(m)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.EqualWithin(got, want, 1e-12) {
			t.Errorf("AMKF(%d,1,0) = %.15g, want %.15g", m, got, want)
		}
	}
}

func TestSingleRobotMRaysValues(t *testing.T) {
	got, err := SingleRobotMRays(2)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(got, 9, 1e-13) {
		t.Errorf("SingleRobotMRays(2) = %.15g, want 9", got)
	}
	// m=3: 1 + 2*27/4 = 14.5.
	got3, err := SingleRobotMRays(3)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(got3, 14.5, 1e-13) {
		t.Errorf("SingleRobotMRays(3) = %.15g, want 14.5", got3)
	}
	if _, err := SingleRobotMRays(1); err == nil {
		t.Error("SingleRobotMRays(1) should fail")
	}
}

func TestMuQKScaleInvariance(t *testing.T) {
	// The paper notes mu(q,k) = mu(cq,ck) for any c > 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Float64()*10
		q := k + 0.1 + rng.Float64()*20
		c := 0.1 + rng.Float64()*10
		a, err1 := MuQK(q, k)
		b, err2 := MuQK(c*q, c*k)
		if err1 != nil || err2 != nil {
			return false
		}
		return numeric.EqualWithin(a, b, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMuQKMonotone(t *testing.T) {
	// The paper uses mu(q,k) < mu(q-1,k-1) for q > k > 1.
	for q := 3; q <= 20; q++ {
		for k := 2; k < q; k++ {
			a, err := MuQK(float64(q), float64(k))
			if err != nil {
				t.Fatal(err)
			}
			b, err := MuQK(float64(q-1), float64(k-1))
			if err != nil {
				t.Fatal(err)
			}
			if !(a < b) {
				t.Errorf("mu(%d,%d)=%.12g should be < mu(%d,%d)=%.12g", q, k, a, q-1, k-1, b)
			}
		}
	}
}

func TestRhoFormMatchesLambda0(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Float64()*10
		rho := 1.01 + rng.Float64()*5
		q := rho * k
		viaRho, err1 := RhoForm(rho)
		viaQK, err2 := Lambda0(q, k)
		if err1 != nil || err2 != nil {
			return false
		}
		return numeric.EqualWithin(viaRho, viaQK, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRhoFormDomain(t *testing.T) {
	if _, err := RhoForm(1); err == nil {
		t.Error("RhoForm(1) should fail")
	}
	if _, err := RhoForm(0.5); err == nil {
		t.Error("RhoForm(0.5) should fail")
	}
}

func TestCKQMatchesLambda0(t *testing.T) {
	got, err := CKQ(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Lambda0(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("CKQ(3,4) = %g, want %g", got, want)
	}
	if _, err := CKQ(3, 3); err == nil {
		t.Error("CKQ(3,3) should fail (needs q > k)")
	}
}

func TestCEtaValues(t *testing.T) {
	// eta = 2 gives the cow-path kernel: 2*4/1 + 1 = 9.
	got, err := CEta(2)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(got, 9, 1e-13) {
		t.Errorf("CEta(2) = %.15g, want 9", got)
	}
	if _, err := CEta(1); err == nil {
		t.Error("CEta(1) should fail (formula holds for eta > 1)")
	}
}

func TestCEtaMatchesCKQOnRationals(t *testing.T) {
	// C(eta) at eta = q/k must equal C(k, q), which is how the paper's
	// Eq. (11) reduction works.
	cases := []struct{ k, q int }{{1, 2}, {2, 3}, {3, 4}, {3, 7}, {5, 8}}
	for _, c := range cases {
		eta := float64(c.q) / float64(c.k)
		a, err := CEta(eta)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CKQ(c.k, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.EqualWithin(a, b, 1e-12) {
			t.Errorf("CEta(%g)=%.15g != CKQ(%d,%d)=%.15g", eta, a, c.k, c.q, b)
		}
	}
}

func TestSlackS(t *testing.T) {
	if SlackS(3, 1) != 1 || SlackS(1, 0) != 1 || SlackS(2, 1) != 2 || SlackS(4, 1) != 0 {
		t.Error("SlackS misbehaves")
	}
}

func TestRho(t *testing.T) {
	got, err := Rho(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(got, 4.0/3.0, 1e-15) {
		t.Errorf("Rho(2,3,1) = %g, want 4/3", got)
	}
	if _, err := Rho(0, 1, 0); err == nil {
		t.Error("Rho(0,1,0) should fail")
	}
}

func TestOptimalAlphaMinimizesRatio(t *testing.T) {
	// alpha* must beat nearby alphas for a range of (q, k).
	cases := []struct{ q, k int }{{2, 1}, {4, 3}, {6, 1}, {6, 5}, {9, 4}}
	for _, c := range cases {
		star, err := OptimalAlpha(c.q, c.k)
		if err != nil {
			t.Fatal(err)
		}
		atStar, err := ExpStrategyRatio(star, c.q, c.k)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []float64{0.9, 0.99, 1.01, 1.1} {
			alpha := 1 + (star-1)*d
			if alpha <= 1 {
				continue
			}
			v, err := ExpStrategyRatio(alpha, c.q, c.k)
			if err != nil {
				t.Fatal(err)
			}
			if v < atStar-1e-12 {
				t.Errorf("q=%d k=%d: ratio(%g)=%.15g beats ratio(alpha*)=%.15g",
					c.q, c.k, alpha, v, atStar)
			}
		}
		// And at alpha* the ratio equals lambda0.
		l0, err := Lambda0(float64(c.q), float64(c.k))
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.EqualWithin(atStar, l0, 1e-12) {
			t.Errorf("q=%d k=%d: ratio(alpha*)=%.15g, lambda0=%.15g", c.q, c.k, atStar, l0)
		}
	}
}

// TestOptimalAlphaIsSmallestRoot checks the closed form's bits against
// an oracle that never calls math.Pow: the smallest float64 a with
// a^k >= q/(q-k), where a^k is a product of k factors. On the Theorem-1
// grid (m = 2, f <= 24) and an m-ray grid (3 <= m <= 8, f <= 4), the
// two must be at most one ulp apart.
func TestOptimalAlphaIsSmallestRoot(t *testing.T) {
	pow := func(a float64, k int) float64 {
		p := a
		for i := 1; i < k; i++ {
			p *= a
		}
		return p
	}
	check := func(m, k, f int) {
		q := m * (f + 1)
		closed, err := OptimalAlpha(q, k)
		if err != nil {
			t.Fatalf("OptimalAlpha(%d, %d): %v", q, k, err)
		}
		target := float64(q) / float64(q-k)
		a := closed
		for steps := 0; pow(a, k) >= target; steps++ {
			if steps > 64 {
				t.Fatalf("m=%d k=%d f=%d: no root below the closed form %x within 64 ulps", m, k, f, closed)
			}
			a = math.Nextafter(a, 1)
		}
		for steps := 0; pow(a, k) < target; steps++ {
			if steps > 128 {
				t.Fatalf("m=%d k=%d f=%d: no root above %x within 128 ulps", m, k, f, a)
			}
			a = math.Nextafter(a, math.Inf(1))
		}
		if d := int64(math.Float64bits(a)) - int64(math.Float64bits(closed)); d < -1 || d > 1 {
			t.Fatalf("m=%d k=%d f=%d: closed form %x is %d ulps from the smallest root %x", m, k, f, closed, d, a)
		}
	}
	for f := 0; f <= 24; f++ {
		for k := f + 1; k < 2*(f+1); k++ {
			check(2, k, f)
		}
	}
	for m := 3; m <= 8; m++ {
		for f := 0; f <= 4; f++ {
			for k := f + 1; k < m*(f+1); k++ {
				check(m, k, f)
			}
		}
	}
}

func TestOptimalAlphaDomain(t *testing.T) {
	if _, err := OptimalAlpha(2, 2); err == nil {
		t.Error("OptimalAlpha(2,2) should fail")
	}
}

func TestExpStrategyRatioDomain(t *testing.T) {
	if _, err := ExpStrategyRatio(1, 2, 1); err == nil {
		t.Error("alpha = 1 should fail")
	}
	if _, err := ExpStrategyRatio(2, 1, 1); err == nil {
		t.Error("q <= k should fail")
	}
}

func TestLemma4(t *testing.T) {
	// The maximizer of x^s (mu-x)^k over (0, mu) is s*mu/(k+s); values at
	// nearby points must not exceed the value at the maximizer.
	mu, s, k := 3.0, 2.0, 5.0
	xStar, err := Lemma4ArgMax(mu, s, k)
	if err != nil {
		t.Fatal(err)
	}
	vStar, err := Lemma4Value(xStar, mu, s, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.1, 0.5, 1, 1.5, 2, 2.5, 2.9} {
		v, err := Lemma4Value(x, mu, s, k)
		if err != nil {
			t.Fatal(err)
		}
		if v > vStar+1e-12 {
			t.Errorf("Lemma4Value(%g) = %g exceeds max %g at x* = %g", x, v, vStar, xStar)
		}
	}
}

func TestQuickLemma4MaxIsMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mu := 0.5 + rng.Float64()*10
		s := 0.5 + rng.Float64()*8
		k := 0.5 + rng.Float64()*8
		xStar, err := Lemma4ArgMax(mu, s, k)
		if err != nil {
			return false
		}
		vStar, err := Lemma4Value(xStar, mu, s, k)
		if err != nil {
			return false
		}
		x := rng.Float64() * mu
		if x == 0 || x == mu {
			return true
		}
		v, err := Lemma4Value(x, mu, s, k)
		if err != nil {
			return false
		}
		return v <= vStar*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLemma5DeltaThreshold(t *testing.T) {
	// delta > 1 iff mu < mu(k+s, k); at mu = mu(k+s,k) delta = 1.
	for _, c := range []struct{ s, k int }{{1, 1}, {2, 3}, {1, 3}, {4, 5}} {
		muCrit, err := MuQK(float64(c.k+c.s), float64(c.k))
		if err != nil {
			t.Fatal(err)
		}
		atCrit, err := Lemma5Delta(muCrit, float64(c.s), float64(c.k))
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.EqualWithin(atCrit, 1, 1e-12) {
			t.Errorf("s=%d k=%d: delta at critical mu = %.15g, want 1", c.s, c.k, atCrit)
		}
		below, err := Lemma5Delta(muCrit*0.99, float64(c.s), float64(c.k))
		if err != nil {
			t.Fatal(err)
		}
		if below <= 1 {
			t.Errorf("s=%d k=%d: delta below critical mu = %.15g, want > 1", c.s, c.k, below)
		}
		above, err := Lemma5Delta(muCrit*1.01, float64(c.s), float64(c.k))
		if err != nil {
			t.Fatal(err)
		}
		if above >= 1 {
			t.Errorf("s=%d k=%d: delta above critical mu = %.15g, want < 1", c.s, c.k, above)
		}
	}
}

func TestByzantineImprovement(t *testing.T) {
	// B(3,1) >= A(3,1) by transfer from the crash-type bound.
	lb, err := AKF(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(lb, B31Improved(), 1e-13) {
		t.Errorf("AKF(3,1) = %.15g, want B31Improved = %.15g", lb, B31Improved())
	}
	if !(B31Improved() > B31Prior) {
		t.Errorf("improved bound %.6g should exceed prior %.6g", B31Improved(), B31Prior)
	}
	if math.Abs(B31Improved()-5.2333) > 0.001 {
		t.Errorf("B31Improved = %.6g, expected ~5.2333", B31Improved())
	}
}

func TestHighPrecisionBoundAgreesWithFloat(t *testing.T) {
	cases := []struct{ q, k int }{{2, 1}, {4, 3}, {6, 5}, {12, 7}}
	for _, c := range cases {
		hp, err := HighPrecisionBound(c.q, c.k, 128)
		if err != nil {
			t.Fatal(err)
		}
		l0, err := Lambda0(float64(c.q), float64(c.k))
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.EqualWithin(hp.Lambda0.Float64(), l0, 1e-12) {
			t.Errorf("q=%d k=%d: certified %.17g vs float %.17g",
				c.q, c.k, hp.Lambda0.Float64(), l0)
		}
		mu, err := MuQK(float64(c.q), float64(c.k))
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.EqualWithin(hp.Mu.Float64(), mu, 1e-12) {
			t.Errorf("q=%d k=%d: certified mu %.17g vs float %.17g",
				c.q, c.k, hp.Mu.Float64(), mu)
		}
	}
}

func TestHighPrecisionBoundInvalid(t *testing.T) {
	if _, err := HighPrecisionBound(3, 3, 64); err == nil {
		t.Error("HighPrecisionBound(3,3) should fail")
	}
}

func TestQuickAMKFAtLeastOne(t *testing.T) {
	// Property: every solvable configuration has ratio >= 1, and the
	// search regime is strictly above 3 (rho > 1 forces lambda > 3).
	f := func(mRaw, kRaw, fRaw uint8) bool {
		m := int(mRaw%6) + 2
		k := int(kRaw%10) + 1
		ff := int(fRaw % 10)
		regime, err := Classify(m, k, ff)
		if err != nil {
			return false
		}
		v, err := AMKF(m, k, ff)
		switch regime {
		case RegimeUnsolvable:
			return errors.Is(err, ErrUnsolvable) && math.IsInf(v, 1)
		case RegimeTrivial:
			return err == nil && v == 1
		default:
			return err == nil && v > 3
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickMoreFaultsNeverHelp(t *testing.T) {
	// Property: with m and k fixed, the ratio is nondecreasing in f over
	// the search regime (more faults can only hurt).
	f := func(mRaw, kRaw uint8) bool {
		m := int(mRaw%5) + 2
		k := int(kRaw%8) + 2
		prev := 0.0
		for ff := 0; ff < k; ff++ {
			regime, err := Classify(m, k, ff)
			if err != nil || regime != RegimeSearch {
				continue
			}
			v, err := AMKF(m, k, ff)
			if err != nil {
				return false
			}
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMoreRobotsNeverHurt(t *testing.T) {
	// Property: with m and f fixed, the ratio is nonincreasing in k.
	f := func(mRaw, fRaw uint8) bool {
		m := int(mRaw%5) + 2
		ff := int(fRaw % 3)
		prev := math.Inf(1)
		for k := ff + 1; k <= m*(ff+1)+2; k++ {
			v, err := AMKF(m, k, ff)
			if err != nil {
				return false
			}
			if v > prev+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
