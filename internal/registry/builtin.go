package registry

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/randomized"
)

// registerBuiltins installs the paper's fault models, the two
// simulation-backed neighbor models (PAPERS.md), and the two
// geometry/objective expansions (geometry.go) into r.
func registerBuiltins(r *Registry) {
	r.MustRegister(crashScenario())
	r.MustRegister(byzantineScenario())
	r.MustRegister(probabilisticScenario())
	r.MustRegister(pfaultyHalflineScenario())
	r.MustRegister(byzantineLineScenario())
	r.MustRegister(shorelineScenario())
	r.MustRegister(evacuationLineScenario())
}

// baseParams is the (m, k, f) schema shared by the ray-search models.
func baseParams() []Param {
	return []Param{
		{Name: "m", Kind: KindInt, Doc: "number of rays (2 = the line)"},
		{Name: "k", Kind: KindInt, Doc: "number of robots"},
		{Name: "f", Kind: KindInt, Doc: "number of faulty robots"},
	}
}

// classify is the scope of the scenarios that take every triple the
// paper's regime classification accepts.
func classify(m, k, f int) error {
	_, err := bounds.Classify(m, k, f)
	return err
}

// crashScenario is Theorems 1/6 of Kupavskii–Welzl: crash-faulty robots
// stay silent at the target; the bound A(m,k,f) = 2*mu(m(f+1),k)+1 is
// tight, and the upper bound is executable (exact adversarial
// evaluation of the optimal cyclic exponential strategy). The simulate
// job replays the internal/sim event timeline at one target distance
// and reports the worst ratio over the rays.
func crashScenario() Scenario {
	return Scenario{
		Name:        "crash",
		Description: "crash-faulty robots stay silent at the target; tight bound A(m,k,f) = 2*mu(m(f+1),k)+1 (Kupavskii–Welzl, Theorems 1/6)",
		Params:      baseParams(),
		Verifiable:  true,
		Rays:        true,
		Cost:        CostAnalytic,
		Objective:   ObjectiveFind,
		Validate:    classify,
		LowerBound:  bounds.AMKF,
		UpperBound:  bounds.AMKF,
		VerifyJob: func(ctx context.Context, req Request) (engine.Job, error) {
			if err := requireSearchRegime(req, "crash verification"); err != nil {
				return nil, err
			}
			return engine.VerifyUpper{M: req.M, K: req.K, F: req.F, Horizon: req.Horizon}, nil
		},
		SimulateJob: func(ctx context.Context, req Request) (engine.Job, error) {
			if err := requireSearchRegime(req, "crash simulation"); err != nil {
				return nil, err
			}
			return engine.SimulationRun{M: req.M, K: req.K, F: req.F, Dist: req.Dist}, nil
		},
	}
}

// requireSearchRegime rejects triples outside f < k < m(f+1), where the
// cyclic exponential strategy (the object under measurement) exists.
func requireSearchRegime(req Request, what string) error {
	regime, err := bounds.Classify(req.M, req.K, req.F)
	if err != nil {
		return err
	}
	if regime != bounds.RegimeSearch {
		return fmt.Errorf("%w: %s needs the search regime f < k < m(f+1), got %v", ErrNotVerifiable, what, regime)
	}
	return nil
}

// byzantineScenario is the transfer setting of reference [13]
// (Czyzowicz et al., ISAAC 2016): faulty robots may stay silent or lie.
// Silence is legal Byzantine behavior, so every crash lower bound
// transfers: B(k,f) >= A(k,f). No matching upper bound is known; the
// simulation-backed variant is the "byzantine-line" scenario.
func byzantineScenario() Scenario {
	return Scenario{
		Name:        "byzantine",
		Description: "Byzantine robots may stay silent or lie; transfer lower bound B(k,f) >= A(k,f) (Czyzowicz et al., ISAAC 2016; improved to 5.23 for B(3,1) by the paper)",
		Params:      baseParams(),
		Verifiable:  false,
		Rays:        true,
		Cost:        CostClosedForm,
		Objective:   ObjectiveFind,
		Validate:    classify,
		LowerBound:  bounds.AMKF,
		VerifyJob: func(ctx context.Context, req Request) (engine.Job, error) {
			return nil, fmt.Errorf("%w: only the transfer lower bound is known for Byzantine faults (the byzantine-line scenario carries the simulator)", ErrNotVerifiable)
		},
	}
}

// probabilisticProbeX is the fixed target distance of the verification
// job. The randomized zigzag's expected ratio is distance-independent
// (randomization flattens the worst case), so any probe works; the
// value is pinned for cache-key stability.
const probabilisticProbeX = 7.5

// probabilisticScenario is the randomized line-search counterpoint
// (Kao–Reif–Tate, reference [21]): one fault-free robot with a random
// geometric zigzag achieves expected ratio ~4.5911, below every
// deterministic bound. Scoped to (m=2, k=1, f=0) and wired to
// internal/randomized; the p-Faulty half-line search of Bonato et al.
// is the "pfaulty-halfline" scenario. The verification seed derives
// from (m, k, f, samples) via DeriveSeed — distinct requests explore
// distinct sample paths — and req.Seed overrides it.
func probabilisticScenario() Scenario {
	return Scenario{
		Name:        "probabilistic",
		Description: "randomized zigzag line search, expected ratio 1+(1+b*)/ln b* ~ 4.5911 (Kao–Reif–Tate); scoped to m=2, k=1, f=0",
		Params:      baseParams(),
		Verifiable:  true,
		Rays:        true,
		Cost:        CostMonteCarlo,
		Objective:   ObjectiveFind,
		Validate:    validateProbabilistic,
		LowerBound:  probabilisticBound,
		UpperBound:  probabilisticBound,
		VerifyJob: func(ctx context.Context, req Request) (engine.Job, error) {
			return probabilisticTrials(req, probabilisticProbeX)
		},
		SimulateJob: func(ctx context.Context, req Request) (engine.Job, error) {
			return probabilisticTrials(req, req.Dist)
		},
	}
}

// probabilisticBound is the Kao–Reif–Tate constant, served as both
// bounds: the optimal zigzag achieves it, so it is tight in
// expectation.
func probabilisticBound(m, k, f int) (float64, error) {
	_, ratio, err := randomized.OptimalBase()
	return ratio, err
}

// probabilisticTrials builds the seeded Monte-Carlo job for the
// randomized zigzag at the probe distance x.
func probabilisticTrials(req Request, x float64) (engine.Job, error) {
	base, _, err := randomized.OptimalBase()
	if err != nil {
		return nil, err
	}
	samples, clamped, seed, err := resolveTrials(req)
	if err != nil {
		return nil, err
	}
	return engine.RandomizedTrials{
		Base:    base,
		X:       x,
		Samples: samples,
		Seed:    seed,
		Clamped: clamped,
	}, nil
}

func validateProbabilistic(m, k, f int) error {
	if err := classify(m, k, f); err != nil {
		return err
	}
	if m != 2 || k != 1 || f != 0 {
		return fmt.Errorf("registry: probabilistic scenario is currently scoped to m=2, k=1, f=0 (got m=%d k=%d f=%d)", m, k, f)
	}
	return nil
}
