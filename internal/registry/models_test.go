package registry

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/pfaulty"
)

// TestDeriveSeed pins the seed-derivation contract: deterministic,
// positive, and parameter-sensitive.
func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(2, 1, 0, 4000)
	if a != DeriveSeed(2, 1, 0, 4000) {
		t.Error("DeriveSeed is not deterministic")
	}
	if a <= 0 {
		t.Errorf("DeriveSeed = %d, want positive", a)
	}
	distinct := map[int64]bool{a: true}
	for _, alt := range [][4]int{{2, 1, 0, 8000}, {2, 3, 1, 4000}, {3, 1, 0, 4000}, {2, 1, 1, 4000}} {
		s := DeriveSeed(alt[0], alt[1], alt[2], alt[3])
		if distinct[s] {
			t.Errorf("DeriveSeed%v collides with an earlier tuple", alt)
		}
		distinct[s] = true
	}
}

// TestProbabilisticSeedDerivation is the regression test for the
// seed-pinning bug: VerifyJob used to hardcode Seed 1, so every
// Monte-Carlo verification replayed the identical sample path
// regardless of parameters. The seed must now derive from
// (m, k, f, samples) and honor an explicit override.
func TestProbabilisticSeedDerivation(t *testing.T) {
	sc, err := Get("probabilistic")
	if err != nil {
		t.Fatal(err)
	}
	job, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 1, F: 0, Horizon: 4000})
	if err != nil {
		t.Fatal(err)
	}
	trials, ok := job.(engine.RandomizedTrials)
	if !ok {
		t.Fatalf("probabilistic verify job is %T, want RandomizedTrials", job)
	}
	if trials.Seed == 1 {
		t.Fatal("verify job still pins Seed 1 (pre-fix behavior)")
	}
	if want := DeriveSeed(2, 1, 0, 4000); trials.Seed != want {
		t.Errorf("derived seed = %d, want DeriveSeed result %d", trials.Seed, want)
	}
	// Different sample counts must explore different sample paths.
	job2, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 1, F: 0, Horizon: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if job2.(engine.RandomizedTrials).Seed == trials.Seed {
		t.Error("different horizons (sample counts) replay the same seed")
	}
	// Identical requests stay cache-stable.
	job3, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 1, F: 0, Horizon: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if job.Key() == "" || job.Key() != job3.Key() {
		t.Errorf("identical requests have unstable keys: %q vs %q", job.Key(), job3.Key())
	}
	// Explicit override wins verbatim.
	job4, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 1, F: 0, Horizon: 4000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got := job4.(engine.RandomizedTrials).Seed; got != 99 {
		t.Errorf("seed override = %d, want 99", got)
	}
}

// TestSampleClampSurfaced is the regression test for the silent-clamp
// bug: a horizon of 1e6 derives a sample count far beyond the cap, and
// the clamp must now be visible on the job (and thence the engine
// result and HTTP response) instead of silently running 20000 samples.
func TestSampleClampSurfaced(t *testing.T) {
	sc, err := Get("probabilistic")
	if err != nil {
		t.Fatal(err)
	}
	job, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 1, F: 0, Horizon: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	trials := job.(engine.RandomizedTrials)
	if trials.Samples != MaxSamples {
		t.Errorf("samples = %d, want the cap %d", trials.Samples, MaxSamples)
	}
	if !trials.Clamped {
		t.Fatal("clamp not surfaced on the job (pre-fix behavior)")
	}
	// An in-range horizon is not flagged.
	job2, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 1, F: 0, Horizon: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if job2.(engine.RandomizedTrials).Clamped {
		t.Error("in-range derivation reported as clamped")
	}
	// An explicit out-of-range override errors instead of clamping.
	if _, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 1, F: 0, Horizon: 4000, Samples: MaxSamples + 1}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("oversized explicit samples = %v, want ErrInvalidRequest", err)
	}
}

func TestMonteCarloSamples(t *testing.T) {
	if n, clamped := MonteCarloSamples(4000); n != 4000 || clamped {
		t.Errorf("MonteCarloSamples(4000) = (%d, %v)", n, clamped)
	}
	if n, clamped := MonteCarloSamples(2); n != MinSamples || !clamped {
		t.Errorf("MonteCarloSamples(2) = (%d, %v), want clamped floor", n, clamped)
	}
	if n, clamped := MonteCarloSamples(1e6); n != MaxSamples || !clamped {
		t.Errorf("MonteCarloSamples(1e6) = (%d, %v), want clamped cap", n, clamped)
	}
}

func TestPFaultyHalflineScenario(t *testing.T) {
	sc, err := Get("pfaulty-halfline")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := sc.LowerBound(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := pfaulty.OptimalBase(DefaultFaultProbability)
	if err != nil {
		t.Fatal(err)
	}
	if lb != want {
		t.Errorf("pfaulty lower bound = %g, want geometric-family optimum %g", lb, want)
	}
	if ub, err := sc.UpperBound(1, 1, 0); err != nil || ub != lb {
		t.Errorf("pfaulty upper bound = (%g, %v), want tight-in-family %g", ub, err, lb)
	}
	if err := sc.Validate(2, 1, 0); err == nil {
		t.Error("pfaulty-halfline must reject m != 1")
	}
	// Verify end to end: the Monte-Carlo job's mean must sit near the
	// closed form at the probe, at an explicit p.
	req := Request{M: 1, K: 1, F: 0, Horizon: 4000, P: 0.25}
	job, err := sc.VerifyJob(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(1).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := sc.ClosedForm(req)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Value-closed) / closed; rel > 0.1 {
		t.Errorf("pfaulty Monte-Carlo %g far from closed form %g (rel %g)", res.Value, closed, rel)
	}
	if res.Samples != 4000 || res.Seed == 0 {
		t.Errorf("effective MC config not surfaced: %+v", res)
	}
	// Invalid p is rejected.
	if _, err := sc.VerifyJob(context.Background(), Request{M: 1, K: 1, F: 0, Horizon: 100, P: 1.5}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("p out of range = %v, want ErrInvalidRequest", err)
	}
	// Requests differing only in p explore independent sample paths:
	// the fault probability folds into the derived seed.
	jobA, err := sc.VerifyJob(context.Background(), Request{M: 1, K: 1, F: 0, Horizon: 4000, P: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := sc.VerifyJob(context.Background(), Request{M: 1, K: 1, F: 0, Horizon: 4000, P: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if jobA.(engine.PFaultyTrials).Seed == jobB.(engine.PFaultyTrials).Seed {
		t.Error("p=0.25 and p=0.75 derived the identical seed (correlated sample paths)")
	}
	// EffectiveP resolves the documented default when unset.
	if got := sc.EffectiveP(Request{M: 1, K: 1, F: 0}); got != DefaultFaultProbability {
		t.Errorf("EffectiveP(unset) = %g, want the declared default %g", got, DefaultFaultProbability)
	}
	if got := sc.EffectiveP(Request{M: 1, K: 1, F: 0, P: 0.3}); got != 0.3 {
		t.Errorf("EffectiveP(0.3) = %g", got)
	}
}

func TestByzantineLineScenario(t *testing.T) {
	sc, err := Get("byzantine-line")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := sc.LowerBound(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	crash, _ := bounds.AMKF(2, 3, 1)
	if lb != crash {
		t.Errorf("byzantine-line transfer bound = %g, want crash value %g", lb, crash)
	}
	if _, err := sc.UpperBound(2, 3, 1); !errors.Is(err, ErrNoUpperBound) {
		t.Errorf("byzantine-line upper bound = %v, want ErrNoUpperBound", err)
	}
	if err := sc.Validate(3, 3, 1); err == nil {
		t.Error("byzantine-line must reject m != 2")
	}
	// The verify job measures a finite certainty ratio.
	job, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 3, F: 1, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(1).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Value > 1) || math.IsInf(res.Value, 0) {
		t.Errorf("byzantine-line worst certainty ratio = %g, want finite > 1", res.Value)
	}
	// Outside the search regime the constructor refuses.
	if _, err := sc.VerifyJob(context.Background(), Request{M: 2, K: 4, F: 1, Horizon: 30}); !errors.Is(err, ErrNotVerifiable) {
		t.Errorf("trivial-regime byzantine-line verify = %v, want ErrNotVerifiable", err)
	}
}

// TestSearchRegimeRefusalNamesOperation: outside the search regime a
// scenario's verify refusal names verification and its simulate
// refusal names simulation, so a client is not told an operation it
// never asked for failed.
func TestSearchRegimeRefusalNamesOperation(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"crash", "byzantine-line"} {
		sc, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4} { // unsolvable and trivial at m = 2, f = 1
			req := Request{M: 2, K: k, F: 1, Horizon: 40}
			for _, c := range []struct {
				op  string
				job func(context.Context, Request) (engine.Job, error)
			}{{"verification", sc.VerifyJob}, {"simulation", sc.SimulateJob}} {
				_, err := c.job(ctx, req)
				if want := name + " " + c.op + " needs the search regime"; !errors.Is(err, ErrNotVerifiable) || !strings.Contains(err.Error(), want) {
					t.Errorf("%s %s at k=%d: %v, want ErrNotVerifiable naming %q", name, c.op, k, err, want)
				}
			}
		}
	}
}
