package potential

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/cover"
	"repro/internal/strategy"
)

// hexFloat renders v as a Go expression that reproduces its bits: a hex
// float literal, or the math call for an infinity or NaN.
func hexFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "math.NaN()"
	case math.IsInf(v, 1):
		return "math.Inf(1)"
	case math.IsInf(v, -1):
		return "math.Inf(-1)"
	}
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// certLiteral renders every field of c, its Sub chain included, as a Go
// composite literal with bit-exact floats. Two certificates are the same
// when their literals are.
func certLiteral(c *Certificate) string {
	if c == nil {
		return "nil"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "&Certificate{Setting: %q, K: %d, Fold: %d, Lambda: %s, Mu: %s, MuCrit: %s, Delta: %s, LogFBound: %s, ",
		c.Setting, c.K, c.Fold, hexFloat(c.Lambda), hexFloat(c.Mu), hexFloat(c.MuCrit), hexFloat(c.Delta), hexFloat(c.LogFBound))
	fmt.Fprintf(&b, "Steps: %d, WarmupSteps: %d, LogFStart: %s, LogFEnd: %s, MinStepRatio: %s, ContradictionStep: %d, ",
		c.Steps, c.WarmupSteps, hexFloat(c.LogFStart), hexFloat(c.LogFEnd), hexFloat(c.MinStepRatio), c.ContradictionStep)
	fmt.Fprintf(&b, "Verdict: %s, StepsNeeded: %d, MaxSteps: %d, GapDetail: %q, Sub: %s}",
		verdictLiteral(c.Verdict), c.StepsNeeded, c.MaxSteps, c.GapDetail, certLiteral(c.Sub))
	return b.String()
}

// verdictLiteral names v as a Go expression.
func verdictLiteral(v Verdict) string {
	if name, ok := map[Verdict]string{
		VerdictContradiction: "VerdictContradiction",
		VerdictExhausted:     "VerdictExhausted",
		VerdictBounded:       "VerdictBounded",
	}[v]; ok {
		return name
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// case2Literal renders every field of a Case2Info like certLiteral.
func case2Literal(c *Case2Info) string {
	if c == nil {
		return "nil"
	}
	return fmt.Sprintf("&Case2Info{Robot: %d, TPrime: %s, NextTPrime: %s, WindowLo: %s, WindowHi: %s}",
		c.Robot, hexFloat(c.TPrime), hexFloat(c.NextTPrime), hexFloat(c.WindowLo), hexFloat(c.WindowHi))
}

// optimalTurns returns each robot's turning points of the optimal (m, k,
// f) strategy up to horizon, and its lower bound lambda0.
func optimalTurns(t *testing.T, m, k, f int, horizon float64) ([][]float64, float64) {
	t.Helper()
	s, err := strategy.NewCyclicExponential(m, k, f)
	if err != nil {
		t.Fatal(err)
	}
	lambda0, err := bounds.AMKF(m, k, f)
	if err != nil {
		t.Fatal(err)
	}
	turns := make([][]float64, k)
	for r := range turns {
		if turns[r], err = strategy.Turns(s, r, horizon); err != nil {
			t.Fatal(err)
		}
	}
	return turns, lambda0
}

// coverageGapTurns is two copies of the optimal single-robot two-ray
// strategy's turns up to 500. At λ = 8.8 the copies cover the points
// just beyond x = 8 twice, short of fold 3, so the refuter stops at
// the cover's gap before the ORC runs.
func coverageGapTurns(t *testing.T) [][]float64 {
	t.Helper()
	turns, _ := optimalTurns(t, 2, 1, 0, 500)
	return [][]float64{turns[0], append([]float64(nil), turns[0]...)}
}

// greedyAssignment is the exact-1 assignment of the greedy maximal
// single-robot line cover at ratio lambda (TestRunSymmetricStepRatioAtLeastDelta's
// input): t1 = mu, then t_i = mu*t_{i-1} - S_{i-1} while that grows.
func greedyAssignment(t *testing.T, lambda float64) []cover.Assigned {
	t.Helper()
	mu := (lambda - 1) / 2
	turns, sum := []float64{mu}, mu
	for len(turns) < 60 {
		next := mu*turns[len(turns)-1] - sum
		if next <= turns[len(turns)-1] {
			break
		}
		turns = append(turns, next)
		sum += next
	}
	ivs, err := cover.SymmetricCovIntervals(0, turns, lambda)
	if err != nil {
		t.Fatal(err)
	}
	assigned, err := cover.ExactAssignment(ivs, 1, turns[len(turns)-1])
	if err != nil {
		t.Fatal(err)
	}
	return assigned
}

// case2Turns is TestRunORCCase2Detection's input: robot 0 jumps from 8 to
// 1000, robot 1 doubles.
var case2Turns = [][]float64{
	{1, 2, 4, 8, 1000, 2000, 4000},
	{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
}

// TestCertificatesPinned pins every field of the certificates the
// experiments, the CLIs and the other tests read, bit for bit: the E3
// table (Theorem 3 on the optimal k = 3, f = 1 line strategy), the E5
// table (Eq. 10 on the optimal m = 3, k = 2 and m = 2, k = 1
// strategies), and runs that reach every verdict, the Case-2 recursion
// and the q <= k branch. A refactor of the engine must leave every
// literal unchanged; on a mismatch the test prints the new literal.
func TestCertificatesPinned(t *testing.T) {
	e03 := func(factor float64) func(t *testing.T) (Certificate, error) {
		return func(t *testing.T) (Certificate, error) {
			turns, lambda0 := optimalTurns(t, 2, 3, 1, 4000)
			return RefuteSymmetricStrategy(turns, bounds.SlackS(3, 1), lambda0*factor, 400)
		}
	}
	e05 := func(m, k int, factor float64) func(t *testing.T) (Certificate, error) {
		return func(t *testing.T) (Certificate, error) {
			turns, lambda0 := optimalTurns(t, m, k, 0, 2000)
			return RefuteORCStrategy(turns, m, lambda0*factor, 250, 1e9)
		}
	}
	doubling := [][]float64{make([]float64, 20)}
	for i, v := 0, 1.0; i < 20; i, v = i+1, v*2 {
		doubling[0][i] = v
	}
	cases := []struct {
		name string
		run  func(t *testing.T) (Certificate, error)
		want *Certificate // nil: the run must fail with ErrBadParams
	}{
		{"E3/1.0001", e03(1.0001), &Certificate{
			Setting: "symmetric", K: 3, Fold: 1, Lambda: 0x1.4ef32f2072ed3p+02, Mu: 0x1.0ef32f2072ed3p+01, MuCrit: 0x1.0eea9c37e497ep+01, Delta: 0x1.ffcf66b9a95b8p-01, LogFBound: 0x1.1ff68b444b586p+01,
			Steps: 11, WarmupSteps: 2, LogFStart: -0x1.62e42fefa39ecp+00, LogFEnd: -0x1.10693f9b53f4p-01, MinStepRatio: 0x1.00c0c0c0c0c0fp+00, ContradictionStep: -1,
			Verdict: VerdictBounded, StepsNeeded: 0, MaxSteps: 0, GapDetail: "",
			Sub: nil,
		}},
		{"E3/0.99", e03(0.99), &Certificate{
			Setting: "symmetric", K: 3, Fold: 1, Lambda: 0x1.4b9139604b447p+02, Mu: 0x1.0b9139604b447p+01, MuCrit: 0x1.0eea9c37e497ep+01, Delta: 0x1.09bbe4a5b6585p+00, LogFBound: 0x0p+00,
			Steps: 0, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x0p+00, MinStepRatio: 0x0p+00, ContradictionStep: 0,
			Verdict: VerdictContradiction, StepsNeeded: 0, MaxSteps: 0, GapDetail: "cover: coverage gap: multiplicity 0 < 1 just beyond x = 1.58740105197",
			Sub: nil,
		}},
		{"E3/0.95", e03(0.95), &Certificate{
			Setting: "symmetric", K: 3, Fold: 1, Lambda: 0x1.3e2bae01e5f6bp+02, Mu: 0x1.fc575c03cbed6p+00, MuCrit: 0x1.0eea9c37e497ep+01, Delta: 0x1.3601850e79a5fp+00, LogFBound: 0x0p+00,
			Steps: 0, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x0p+00, MinStepRatio: 0x0p+00, ContradictionStep: 0,
			Verdict: VerdictContradiction, StepsNeeded: 0, MaxSteps: 0, GapDetail: "cover: coverage gap: multiplicity 0 < 1 just beyond x = 1",
			Sub: nil,
		}},
		{"E3/0.9", e03(0.9), &Certificate{
			Setting: "symmetric", K: 3, Fold: 1, Lambda: 0x1.2d6cbfcbe7558p+02, Mu: 0x1.dad97f97ceabp+00, MuCrit: 0x1.0eea9c37e497ep+01, Delta: 0x1.7c561a7395773p+00, LogFBound: 0x0p+00,
			Steps: 0, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x0p+00, MinStepRatio: 0x0p+00, ContradictionStep: 0,
			Verdict: VerdictContradiction, StepsNeeded: 0, MaxSteps: 0, GapDetail: "cover: coverage gap: multiplicity 0 < 1 just beyond x = 1",
			Sub: nil,
		}},
		{"E5/m3k2/1.001", e05(3, 2, 1.001), &Certificate{
			Setting: "orc", K: 2, Fold: 3, Lambda: 0x1.8cf3477024a72p+02, Mu: 0x1.4cf3477024a72p+01, MuCrit: 0x1.4c8dc2e42397fp+01, Delta: 0x1.fec7f6f051dbep-01, LogFBound: 0x1.f9018eb8fafbbp+06,
			Steps: 10, WarmupSteps: 1, LogFStart: -0x1.193ea7aad030cp-01, LogFEnd: 0x1.064655083b48p-02, MinStepRatio: 0x1.00b48a39d446cp+00, ContradictionStep: -1,
			Verdict: VerdictBounded, StepsNeeded: 0, MaxSteps: 0, GapDetail: "",
			Sub: nil,
		}},
		{"E5/m3k2/0.95", e05(3, 2, 0.95), &Certificate{
			Setting: "orc", K: 2, Fold: 3, Lambda: 0x1.78b9df8bee9d2p+02, Mu: 0x1.38b9df8bee9d2p+01, MuCrit: 0x1.4c8dc2e42397fp+01, Delta: 0x1.217dc59470cfap+00, LogFBound: 0x0p+00,
			Steps: 0, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x0p+00, MinStepRatio: 0x0p+00, ContradictionStep: 0,
			Verdict: VerdictContradiction, StepsNeeded: 0, MaxSteps: 0, GapDetail: "cover: coverage gap: multiplicity 2 < 3 just beyond x = 1",
			Sub: nil,
		}},
		{"E5/m2k1/1.001", e05(2, 1, 1.001), &Certificate{
			Setting: "orc", K: 1, Fold: 2, Lambda: 0x1.2049ba5e353f7p+03, Mu: 0x1.0049ba5e353f7p+02, MuCrit: 0x1p+02, Delta: 0x1.ff6cb5af00ccap-01, LogFBound: 0x1.56abee304fc8p+05,
			Steps: 8, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x1.60e32f44788ep-01, MinStepRatio: 0x1.0102040810204p+00, ContradictionStep: -1,
			Verdict: VerdictBounded, StepsNeeded: 0, MaxSteps: 0, GapDetail: "",
			Sub: nil,
		}},
		{"E5/m2k1/0.95", e05(2, 1, 0.95), &Certificate{
			Setting: "orc", K: 1, Fold: 2, Lambda: 0x1.1199999999999p+03, Mu: 0x1.e333333333332p+01, MuCrit: 0x1p+02, Delta: 0x1.0f421e843d088p+00, LogFBound: 0x0p+00,
			Steps: 0, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x0p+00, MinStepRatio: 0x0p+00, ContradictionStep: 0,
			Verdict: VerdictContradiction, StepsNeeded: 0, MaxSteps: 0, GapDetail: "cover: coverage gap: multiplicity 1 < 2 just beyond x = 4",
			Sub: nil,
		}},
		{"symmetric/doubling-bounded", func(t *testing.T) (Certificate, error) {
			return RunSymmetric(doublingAssignment(t, 9.05, 1000, 16), 1, 1, 9.05)
		}, &Certificate{
			Setting: "symmetric", K: 1, Fold: 1, Lambda: 0x1.219999999999ap+03, Mu: 0x1.019999999999ap+02, MuCrit: 0x1p+02, Delta: 0x1.fcd1e360fe68dp-01, LogFBound: 0x1.647c83370de1ep+00,
			Steps: 10, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x1.62641fecf874p-01, MinStepRatio: 0x1.004020100804p+00, ContradictionStep: -1,
			Verdict: VerdictBounded, StepsNeeded: 0, MaxSteps: 0, GapDetail: "",
			Sub: nil,
		}},
		{"symmetric/greedy-exhausted", func(t *testing.T) (Certificate, error) {
			return RunSymmetric(greedyAssignment(t, 8.8), 1, 1, 8.8)
		}, &Certificate{
			Setting: "symmetric", K: 1, Fold: 1, Lambda: 0x1.199999999999ap+03, Mu: 0x1.f333333333334p+01, MuCrit: 0x1p+02, Delta: 0x1.069069069069p+00, LogFBound: 0x1.5c68f59a57182p+00,
			Steps: 17, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x1.1b13b76fd1f28p+00, MinStepRatio: 0x1.0690e8a656eb5p+00, ContradictionStep: -1,
			Verdict: VerdictExhausted, StepsNeeded: 12, MaxSteps: 54, GapDetail: "",
			Sub: nil,
		}},
		{"symmetric/doubling-gap", func(t *testing.T) (Certificate, error) {
			return RefuteSymmetricStrategy(doubling, 1, 8.5, 1000)
		}, &Certificate{
			Setting: "symmetric", K: 1, Fold: 1, Lambda: 0x1.1p+03, Mu: 0x1.ep+01, MuCrit: 0x1p+02, Delta: 0x1.1111111111111p+00, LogFBound: 0x0p+00,
			Steps: 0, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x0p+00, MinStepRatio: 0x0p+00, ContradictionStep: 0,
			Verdict: VerdictContradiction, StepsNeeded: 0, MaxSteps: 0, GapDetail: "cover: coverage gap: multiplicity 0 < 1 just beyond x = 8",
			Sub: nil,
		}},
		{"orc/contradiction", func(t *testing.T) (Certificate, error) {
			turns, lambda0 := optimalTurns(t, 3, 2, 0, 2400)
			return RefuteORCStrategy(turns, 3, lambda0*0.97, 300, 1e6)
		}, &Certificate{
			Setting: "orc", K: 2, Fold: 3, Lambda: 0x1.80a83a7c03ce4p+02, Mu: 0x1.40a83a7c03ce4p+01, MuCrit: 0x1.4c8dc2e42397fp+01, Delta: 0x1.1359130163472p+00, LogFBound: 0x0p+00,
			Steps: 0, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x0p+00, MinStepRatio: 0x0p+00, ContradictionStep: 0,
			Verdict: VerdictContradiction, StepsNeeded: 0, MaxSteps: 0, GapDetail: "cover: coverage gap: multiplicity 2 < 3 just beyond x = 1",
			Sub: nil,
		}},
		{"orc/coverage-gap", func(t *testing.T) (Certificate, error) {
			return RefuteORCStrategy(coverageGapTurns(t), 3, 8.8, 100, 1.5)
		}, &Certificate{
			Setting: "orc", K: 2, Fold: 3, Lambda: 0x1.199999999999ap+03, Mu: 0x1.f333333333334p+01, MuCrit: 0x1.4c8dc2e42397fp+01, Delta: 0x1.c670183c977a7p-02, LogFBound: 0x0p+00,
			Steps: 0, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x0p+00, MinStepRatio: 0x0p+00, ContradictionStep: 0,
			Verdict: VerdictContradiction, StepsNeeded: 0, MaxSteps: 0, GapDetail: "cover: coverage gap: multiplicity 2 < 3 just beyond x = 8",
			Sub: nil,
		}},
		{"orc/case2-bounded", func(t *testing.T) (Certificate, error) {
			return RefuteORCStrategy(case2Turns, 3, 40, 500, 20)
		}, &Certificate{
			Setting: "orc", K: 2, Fold: 3, Lambda: 0x1.4p+05, Mu: 0x1.38p+04, MuCrit: 0x1.4c8dc2e42397fp+01, Delta: 0x1.22d719c060f27p-06, LogFBound: 0x1.7ea4c06c94a84p+04,
			Steps: 3, WarmupSteps: 1, LogFStart: 0x0p+00, LogFEnd: 0x1.9f323ecbf985p-01, MinStepRatio: 0x1.7ffffffffffffp-01, ContradictionStep: -1,
			Verdict: VerdictBounded, StepsNeeded: 0, MaxSteps: 0, GapDetail: "",
			Sub: &Certificate{
				Setting: "orc", K: 1, Fold: 2, Lambda: 0x1.4p+05, Mu: 0x1.38p+04, MuCrit: 0x1p+02, Delta: 0x1.a41a41a41a41cp-03, LogFBound: 0x1.1ec7b67ec519fp+03,
				Steps: 2, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x1.9f323ecbf984cp-02, MinStepRatio: 0x1.7ffffffffffffp+00, ContradictionStep: -1,
				Verdict: VerdictBounded, StepsNeeded: 0, MaxSteps: 0, GapDetail: "",
				Sub: nil,
			},
		}},
		// caseC = 1.5 <= mu = 19.5 let a jump from 1 to 2 through as
		// Case 2 with the empty window (19.5, 2]; the recursion then
		// reported a gap "just beyond x = 1" of a range it had forced up
		// to 1+1e-6.
		{"orc/case2-contradiction", func(t *testing.T) (Certificate, error) {
			return RefuteORCStrategy(case2Turns, 4, 40, 500, 1.5)
		}, nil},
		// caseC = 20 <= mu = 39.5 let the jump from 8 to 256 through as
		// Case 2 with the empty window (316, 256], which the lone robot
		// then "failed" to cover.
		{"orc/case2-window", func(t *testing.T) (Certificate, error) {
			turns := [][]float64{{1, 2, 4, 8, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}}
			return RefuteORCStrategy(turns, 2, 80, 500, 20)
		}, nil},
		{"orc/q-at-most-k", func(t *testing.T) (Certificate, error) {
			turns, lambda0 := optimalTurns(t, 2, 3, 1, 800)
			return RefuteORCStrategy(turns, 2, lambda0*1.001, 100, 1e9)
		}, &Certificate{
			Setting: "orc", K: 3, Fold: 2, Lambda: 0x1.4f40594d73edp+02, Mu: 0x1.0f40594d73edp+01, MuCrit: 0x0p+00, Delta: 0x0p+00, LogFBound: 0x0p+00,
			Steps: 11, WarmupSteps: 0, LogFStart: 0x0p+00, LogFEnd: 0x0p+00, MinStepRatio: 0x0p+00, ContradictionStep: 0,
			Verdict: VerdictBounded, StepsNeeded: 0, MaxSteps: 0, GapDetail: "",
			Sub: nil,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cert, err := c.run(t)
			if c.want == nil {
				if !errors.Is(err, ErrBadParams) {
					t.Fatalf("got (%s, %v), want ErrBadParams", certLiteral(&cert), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := certLiteral(&cert), certLiteral(c.want); got != want {
				t.Errorf("certificate changed:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCase2Pinned pins the certificate and the Case-2 window RunORC
// reports when a robot's assigned starts jump by at least caseC: the top
// level of the "orc/case2-bounded" case above.
func TestCase2Pinned(t *testing.T) {
	var all []cover.Interval
	for r, turns := range case2Turns {
		ivs, err := cover.ORCCovIntervals(r, turns, 40)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ivs...)
	}
	assigned, err := cover.ExactAssignment(all, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	cert, case2, err := RunORC(assigned, 2, 3, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	wantCert := &Certificate{
		Setting: "orc", K: 2, Fold: 3, Lambda: 0x1.4p+05, Mu: 0x1.38p+04, MuCrit: 0x1.4c8dc2e42397fp+01, Delta: 0x1.22d719c060f27p-06, LogFBound: 0x1.7ea4c06c94a84p+04,
		Steps: 3, WarmupSteps: 1, LogFStart: 0x0p+00, LogFEnd: 0x1.9f323ecbf985p-01, MinStepRatio: 0x1.7ffffffffffffp-01, ContradictionStep: -1,
		Verdict: VerdictBounded, StepsNeeded: 0, MaxSteps: 0, GapDetail: "",
		Sub: nil,
	}
	wantCase2 := &Case2Info{Robot: 0, TPrime: 0x1p+01, NextTPrime: 0x1p+07, WindowLo: 0x1.38p+05, WindowHi: 0x1p+07}
	if got, want := certLiteral(&cert), certLiteral(wantCert); got != want {
		t.Errorf("certificate changed:\n got %s\nwant %s", got, want)
	}
	if got, want := case2Literal(case2), case2Literal(wantCase2); got != want {
		t.Errorf("Case-2 window changed:\n got %s\nwant %s", got, want)
	}
}
