package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/numeric"
	"repro/internal/potential"
	"repro/internal/registry"
	"repro/internal/trajectory"
)

func TestProblemValidate(t *testing.T) {
	if _, err := (Problem{M: 2, K: 3, F: 1}).scenario(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	if _, err := (Problem{M: 0, K: 1, F: 0}).scenario(); err == nil {
		t.Error("m = 0 should fail")
	}
	if _, err := (Problem{M: 2, K: 1, F: 0, Model: "no-such-model"}).scenario(); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestProblemRegimes(t *testing.T) {
	tests := []struct {
		p    Problem
		want bounds.Regime
	}{
		{Problem{M: 2, K: 1, F: 0}, bounds.RegimeSearch},
		{Problem{M: 2, K: 4, F: 1}, bounds.RegimeTrivial},
		{Problem{M: 2, K: 2, F: 2}, bounds.RegimeUnsolvable},
	}
	for _, tt := range tests {
		got, err := tt.p.Regime()
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("Regime(%+v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestProblemBoundsCrash(t *testing.T) {
	p := Problem{M: 2, K: 3, F: 1}
	lb, err := p.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	ub, err := p.UpperBound()
	if err != nil {
		t.Fatal(err)
	}
	if lb != ub {
		t.Errorf("crash bounds must coincide: lb %g, ub %g", lb, ub)
	}
	want, err := bounds.AKF(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lb != want {
		t.Errorf("LowerBound = %g, want %g", lb, want)
	}
}

func TestProblemBoundsByzantine(t *testing.T) {
	p := Problem{M: 2, K: 3, F: 1, Model: "byzantine"}
	lb, err := p.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	crash, err := bounds.AKF(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lb != crash {
		t.Errorf("Byzantine transfer lower bound = %g, want the crash value %g", lb, crash)
	}
	if _, err := p.UpperBound(); !errors.Is(err, registry.ErrNoUpperBound) {
		t.Error("Byzantine upper bound should be unknown")
	}
}

func TestProblemQRho(t *testing.T) {
	p := Problem{M: 3, K: 4, F: 1}
	if q, err := p.Q(); err != nil || q != 6 {
		t.Errorf("Q = (%d, %v), want 6", q, err)
	}
	rho, err := p.Rho()
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(rho, 1.5, 1e-15) {
		t.Errorf("Rho = %g, want 1.5", rho)
	}
}

func TestProblemHighPrecision(t *testing.T) {
	p := Problem{M: 2, K: 3, F: 1}
	hp, err := p.HighPrecision(96)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := p.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(hp.Lambda0.Float64(), lb, 1e-12) {
		t.Errorf("certified %.17g vs float %.17g", hp.Lambda0.Float64(), lb)
	}
	trivial := Problem{M: 2, K: 4, F: 1}
	if _, err := trivial.HighPrecision(64); !errors.Is(err, ErrNotSearchRegime) {
		t.Error("high precision outside search regime should fail")
	}
}

func TestProblemOptimalStrategyAndVerify(t *testing.T) {
	p := Problem{M: 3, K: 2, F: 0}
	s, err := p.OptimalStrategy()
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != 3 || s.K() != 2 {
		t.Error("strategy parameters wrong")
	}
	ev, err := p.VerifyUpperOn(context.Background(), engine.New(0), 1e5)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := p.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.EqualWithin(ev.WorstRatio, lb, 1e-3) {
		t.Errorf("measured %.9g, lambda0 %.9g", ev.WorstRatio, lb)
	}
	if ev.WorstRatio > lb*(1+1e-9) {
		t.Error("measured ratio must not exceed lambda0")
	}

	trivial := Problem{M: 2, K: 4, F: 1}
	if _, err := trivial.OptimalStrategy(); !errors.Is(err, ErrNotSearchRegime) {
		t.Error("optimal strategy outside search regime should fail")
	}
}

func TestProblemRefuteBelow(t *testing.T) {
	p := Problem{M: 2, K: 1, F: 0}
	cert, err := p.RefuteBelow(context.Background(), 0.95, 200)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict == potential.VerdictBounded {
		t.Errorf("verdict below the bound = %v, expected a refutation", cert.Verdict)
	}
	if _, err := p.RefuteBelow(context.Background(), 1.5, 200); err == nil {
		t.Error("factor >= 1 should fail")
	}
}

func TestProblemRefuteStrategy(t *testing.T) {
	p := Problem{M: 2, K: 1, F: 0}
	// A linear (non-exponential) strategy is far from covering at any
	// constant ratio: refute it well below lambda0.
	turns := [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 20, 24, 30}}
	cert, err := p.RefuteStrategy(turns, 7, 20)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict == potential.VerdictBounded {
		t.Errorf("linear strategy at lambda=7 should be refuted, got %v", cert.Verdict)
	}
}

func TestProblemSolve(t *testing.T) {
	p := Problem{M: 2, K: 3, F: 1}
	res, err := p.Solve(trajectory.Point{Ray: 1, Dist: 4})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := p.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio > lb*(1+1e-9) {
		t.Errorf("solve ratio %.9g exceeds lambda0 %.9g", res.Ratio, lb)
	}
	if len(res.FaultySet) != 1 {
		t.Error("one robot should be crashed")
	}
}

func TestEndToEndGrid(t *testing.T) {
	// For a grid of search-regime instances: bounds coincide, the
	// strategy verifies at lambda0, and a below-bound refutation exists.
	cases := []Problem{
		{M: 2, K: 1, F: 0},
		{M: 2, K: 3, F: 1},
		{M: 3, K: 2, F: 0},
		{M: 3, K: 4, F: 1},
		{M: 4, K: 3, F: 0},
	}
	for _, p := range cases {
		lb, err := p.LowerBound()
		if err != nil {
			t.Fatal(err)
		}
		ub, err := p.UpperBound()
		if err != nil {
			t.Fatal(err)
		}
		if lb != ub {
			t.Errorf("%+v: bounds differ", p)
		}
		ev, err := p.VerifyUpperOn(context.Background(), engine.New(0), 2e4)
		if err != nil {
			t.Fatal(err)
		}
		if ev.WorstRatio > lb*(1+1e-9) {
			t.Errorf("%+v: measured %.9g above lambda0 %.9g", p, ev.WorstRatio, lb)
		}
		if ev.WorstRatio < lb*(1-5e-3) {
			t.Errorf("%+v: measured %.9g suspiciously below lambda0 %.9g", p, ev.WorstRatio, lb)
		}
		cert, err := p.RefuteBelow(context.Background(), 0.9, 100)
		if err != nil {
			t.Fatal(err)
		}
		if cert.Verdict == potential.VerdictBounded {
			t.Errorf("%+v: refutation below the bound failed", p)
		}
	}
}

func TestProblemScenarioResolution(t *testing.T) {
	sc, err := (Problem{M: 2, K: 3, F: 1}).Scenario()
	if err != nil || sc.Name != "crash" {
		t.Errorf("empty Model resolves to %q (%v), want crash", sc.Name, err)
	}
	sc, err = (Problem{M: 2, K: 3, F: 1, Model: "byzantine"}).Scenario()
	if err != nil || sc.Name != "byzantine" {
		t.Errorf("Byzantine resolves to %q (%v)", sc.Name, err)
	}
	if _, err := (Problem{M: 2, K: 1, F: 0, Model: "no-such-model"}).Scenario(); err == nil {
		t.Error("unknown model must not resolve")
	}
}

// TestProblemModelReachesEveryScenario checks that Model addresses the
// scenarios outside the paper's fault models: their bounds are the
// registry's, and VerifyOn runs exactly the scenario's verify job.
func TestProblemModelReachesEveryScenario(t *testing.T) {
	ctx := context.Background()
	const horizon = 100
	for _, p := range []Problem{
		{Model: "shoreline", M: 2, K: 5, F: 1},
		{Model: "evacuation-line", M: 2, K: 3, F: 1},
	} {
		sc, err := registry.Get(p.Model)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sc.LowerBound(p.M, p.K, p.F)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := p.LowerBound(); err != nil || got != want {
			t.Errorf("%+v: LowerBound = (%v, %v), want the registry's %v", p, got, err, want)
		}
		job, err := sc.VerifyJob(ctx, registry.Request{M: p.M, K: p.K, F: p.F, Horizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := engine.New(1).Run(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.VerifyOn(ctx, engine.New(1), horizon)
		if err != nil {
			t.Fatalf("%+v: VerifyOn: %v", p, err)
		}
		if !reflect.DeepEqual(got, wantRes) {
			t.Errorf("%+v: VerifyOn = %+v, want the engine's run of %s: %+v", p, got, job.Key(), wantRes)
		}
	}
	_, err := (Problem{Model: "no-such-model", M: 2, K: 3, F: 1}).LowerBound()
	if !errors.Is(err, registry.ErrUnknownScenario) || !strings.Contains(err.Error(), `"no-such-model"`) {
		t.Errorf("unknown model error = %v, want ErrUnknownScenario naming it", err)
	}
}

// TestShorelineHasNoRayRegime: shoreline's M is the ambient dimension,
// not a ray count, so a valid shoreline problem validates through its
// scenario, and the helpers that read M as rays answer ErrNotRayModel
// instead of classifying (2, 5, 1) as the trivial regime. Every ray
// model still classifies.
func TestShorelineHasNoRayRegime(t *testing.T) {
	p := Problem{Model: "shoreline", M: 2, K: 5, F: 1}
	if _, err := p.scenario(); err != nil {
		t.Fatalf("valid shoreline problem rejected: %v", err)
	}
	if _, err := (Problem{Model: "shoreline", M: 2, K: 4, F: 1}).scenario(); err == nil {
		t.Error("shoreline with k <= 2(f+1) validated")
	}
	if lb, err := p.LowerBound(); err != nil || !(lb > 1) {
		t.Errorf("LowerBound = (%v, %v), want the scenario's bound", lb, err)
	}
	if regime, err := p.Regime(); !errors.Is(err, ErrNotRayModel) {
		t.Errorf("Regime = (%v, %v), want ErrNotRayModel", regime, err)
	}
	if _, err := p.Rho(); !errors.Is(err, ErrNotRayModel) {
		t.Errorf("Rho error = %v, want ErrNotRayModel", err)
	}
	if _, err := p.HighPrecision(64); !errors.Is(err, ErrNotRayModel) {
		t.Errorf("HighPrecision error = %v, want ErrNotRayModel", err)
	}
	if _, err := p.OptimalStrategy(); !errors.Is(err, ErrNotRayModel) {
		t.Errorf("OptimalStrategy error = %v, want ErrNotRayModel", err)
	}
	if _, err := p.RefuteStrategy([][]float64{{1, 2, 4}}, 9, 10); !errors.Is(err, ErrNotRayModel) {
		t.Errorf("RefuteStrategy error = %v, want ErrNotRayModel", err)
	}
	for _, q := range []Problem{
		{M: 2, K: 3, F: 1},
		{Model: "byzantine", M: 2, K: 3, F: 1},
		{Model: "probabilistic", M: 2, K: 1, F: 0},
		{Model: "pfaulty-halfline", M: 1, K: 1, F: 0},
		{Model: "byzantine-line", M: 2, K: 3, F: 1},
		{Model: "evacuation-line", M: 2, K: 3, F: 1},
	} {
		want, err := bounds.Classify(q.M, q.K, q.F)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := q.Regime(); err != nil || got != want {
			t.Errorf("%+v: Regime = (%v, %v), want %v", q, got, err, want)
		}
	}
}

func TestProblemProbabilistic(t *testing.T) {
	p := Problem{M: 2, K: 1, F: 0, Model: "probabilistic"}
	lb, err := p.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if lb < 4.59 || lb > 4.60 {
		t.Errorf("probabilistic bound = %g, want ~4.5911", lb)
	}
	ub, err := p.UpperBound()
	if err != nil || !numeric.EqualWithin(ub, lb, 1e-12) {
		t.Errorf("probabilistic upper bound = (%g, %v), want tight %g", ub, err, lb)
	}
	res, err := p.VerifyOn(context.Background(), engine.New(1), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < lb*0.9 || res.Value > lb*1.1 {
		t.Errorf("Monte-Carlo verification %g far from closed form %g", res.Value, lb)
	}
	// The stub is scoped: other parameter triples must fail validation.
	if _, err := (Problem{M: 2, K: 3, F: 1, Model: "probabilistic"}).scenario(); err == nil {
		t.Error("probabilistic stub must reject k > 1")
	}
}

func TestVerifyOnRegimeErrors(t *testing.T) {
	trivial := Problem{M: 2, K: 4, F: 1}
	if _, err := trivial.VerifyOn(context.Background(), engine.New(1), 1e3); !errors.Is(err, ErrNotSearchRegime) {
		t.Errorf("trivial-regime VerifyOn = %v, want ErrNotSearchRegime", err)
	}
	byz := Problem{M: 2, K: 3, F: 1, Model: "byzantine"}
	if _, err := byz.VerifyOn(context.Background(), engine.New(1), 1e3); !errors.Is(err, registry.ErrNotVerifiable) {
		t.Errorf("byzantine VerifyOn = %v, want ErrNotVerifiable", err)
	}
}

func TestVerifyUpperRejectsScalarScenarios(t *testing.T) {
	// Probabilistic verification is a Monte-Carlo scalar; surfacing it
	// as an adversarial Evaluation would read as "sup ratio 0".
	p := Problem{M: 2, K: 1, F: 0, Model: "probabilistic"}
	if _, err := p.VerifyUpperOn(context.Background(), engine.New(1), 2000); !errors.Is(err, ErrNoEvaluation) {
		t.Errorf("probabilistic VerifyUpperOn = %v, want ErrNoEvaluation", err)
	}
	// VerifyOn remains the supported path.
	res, err := p.VerifyOn(context.Background(), engine.New(1), 2000)
	if err != nil || res.Value <= 0 {
		t.Errorf("VerifyOn = (%+v, %v)", res, err)
	}
}

// TestQRayOnly: q = m(f+1) counts ray coverings, so a planar model has
// none (shoreline's M is the ambient dimension), an out-of-scope
// triple answers its validation error, and each ray model answers
// m(f+1).
func TestQRayOnly(t *testing.T) {
	if q, err := (Problem{Model: "shoreline", M: 2, K: 5, F: 1}).Q(); !errors.Is(err, ErrNotRayModel) {
		t.Errorf("shoreline Q = (%d, %v), want ErrNotRayModel", q, err)
	}
	if q, err := (Problem{Model: "byzantine-line", M: 3, K: 2, F: 0}).Q(); err == nil || errors.Is(err, ErrNotRayModel) {
		t.Errorf("out-of-scope Q = (%d, %v), want the scope error", q, err)
	}
	for _, p := range []Problem{
		{M: 4, K: 3, F: 2},
		{Model: "pfaulty-halfline", M: 1, K: 1, F: 0},
		{Model: "evacuation-line", M: 2, K: 5, F: 2},
	} {
		if q, err := p.Q(); err != nil || q != p.M*(p.F+1) {
			t.Errorf("%+v: Q = (%d, %v), want %d", p, q, err, p.M*(p.F+1))
		}
	}
}
