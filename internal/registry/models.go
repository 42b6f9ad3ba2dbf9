// models.go registers the two simulation-backed scenario expansions
// named by the registry's charter: the p-Faulty half-line search of
// Bonato et al. and the Byzantine line search of Czyzowicz et al.
// Both resolve through the same Scenario surface as the paper's own
// models, so every consumer (core.Problem, the CLIs' -model flags,
// boundsd) addresses them with no new switches.
package registry

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/pfaulty"
	"repro/internal/solver"
)

// DefaultFaultProbability is the fault probability the pfaulty-halfline
// scenario's (m, k, f)-only bound functions assume; requests carrying
// an explicit p (CLI -p, HTTP ?p=) override it in the job constructors
// and the closed-form reference.
const DefaultFaultProbability = 0.5

// pfaultyProbeX is the verification job's fixed target distance,
// pinned (like the probabilistic probe) for cache-key stability. It is
// deliberately not a power of any plausible base, so the x-periodic
// expected ratio is probed away from its best case.
const pfaultyProbeX = 7.5

// pfaultyParams is the pfaulty-halfline schema. Its p entry's Default
// is where an unset p resolves, through Scenario.EffectiveP.
var pfaultyParams = []Param{
	{Name: "m", Kind: KindInt, Doc: "number of rays (must be 1: the half-line)"},
	{Name: "k", Kind: KindInt, Doc: "number of robots (must be 1)"},
	{Name: "f", Kind: KindInt, Doc: "adversarial fault count (must be 0; faults are probabilistic)"},
	{Name: "p", Kind: KindFloat, Doc: "per-visit fault probability in (0,1)", Default: DefaultFaultProbability},
}

// pfaultyP resolves the request's effective fault probability.
func pfaultyP(req Request) (float64, error) {
	p := Scenario{Params: pfaultyParams}.EffectiveP(req)
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("%w: fault probability %g (want 0 < p < 1)", ErrInvalidRequest, p)
	}
	return p, nil
}

// validatePFaulty scopes the scenario to its model: the half-line is
// the one-ray star, searched by a single robot whose faults are
// probabilistic per visit (f, the adversarial fault count, is 0).
func validatePFaulty(m, k, f int) error {
	if err := classify(m, k, f); err != nil {
		return err
	}
	if m != 1 || k != 1 || f != 0 {
		return fmt.Errorf("registry: pfaulty-halfline is the one-robot half-line model m=1, k=1, f=0 (got m=%d k=%d f=%d); faults enter through the probability p", m, k, f)
	}
	return nil
}

// pfaultyTrials builds the seeded Monte-Carlo job at probe distance x
// for the request's effective (p, samples, seed). The optimal base is a
// golden-section search; the context's memoizing solver runs it once
// per distinct p instead of once per constructed job.
func pfaultyTrials(ctx context.Context, req Request, x float64) (engine.Job, error) {
	p, err := pfaultyP(req)
	if err != nil {
		return nil, err
	}
	base, _, err := solver.From(ctx).PFaultyBase(p)
	if err != nil {
		return nil, err
	}
	samples, clamped, seed, err := resolveTrials(req)
	if err != nil {
		return nil, err
	}
	return engine.PFaultyTrials{
		Base:    base,
		P:       p,
		X:       x,
		Samples: samples,
		Seed:    seed,
		Clamped: clamped,
	}, nil
}

// pfaultyHalflineScenario is p-Faulty Search (Bonato, Georgiou,
// MacRury, Prałat — "Probabilistically Faulty Searching on a
// Half-Line"): one robot on the half-line, every pass over the target
// detected independently with probability 1-p. The bound functions
// report the optimal worst-case expected ratio within the cyclic
// geometric strategy family at the default p (tight within the family:
// the optimal base achieves it); request-carrying consumers evaluate
// at the requested p through ClosedForm. The simulator samples only
// the detection coin — visit times come from materialized
// trajectory.Star motion, which is what makes the Monte-Carlo check
// independent of the closed form it verifies.
func pfaultyHalflineScenario() Scenario {
	return Scenario{
		Name: "pfaulty-halfline",
		Description: fmt.Sprintf(
			"p-faulty half-line search: each pass detects the target with probability 1-p (Bonato et al.); bounds quote the geometric-family optimum at p=%g, override with p=",
			DefaultFaultProbability),
		Params:     pfaultyParams,
		Verifiable: true,
		Rays:       true,
		Cost:       CostMonteCarlo,
		Objective:  ObjectiveFind,
		Validate:   validatePFaulty,
		LowerBound: pfaultyDefaultBound,
		UpperBound: pfaultyDefaultBound,
		VerifyJob: func(ctx context.Context, req Request) (engine.Job, error) {
			return pfaultyTrials(ctx, req, pfaultyProbeX)
		},
		SimulateJob: func(ctx context.Context, req Request) (engine.Job, error) {
			return pfaultyTrials(ctx, req, req.Dist)
		},
		ClosedForm: func(req Request) (float64, error) {
			p, err := pfaultyP(req)
			if err != nil {
				return 0, err
			}
			// ClosedForm carries no context, so the base memo comes from
			// the process-wide shared solver (the same instance the
			// engine injects into job contexts).
			base, _, err := solver.Shared().PFaultyBase(p)
			if err != nil {
				return 0, err
			}
			x := req.Dist
			if x <= 0 {
				x = pfaultyProbeX
			}
			return pfaulty.ExpectedRatio(base, p, x)
		},
	}
}

// pfaultyDefaultBound is the scenario's (m, k, f)-only bound: the
// optimal worst-case expected ratio of the geometric family at the
// default fault probability.
func pfaultyDefaultBound(m, k, f int) (float64, error) {
	_, worst, err := solver.Shared().PFaultyBase(DefaultFaultProbability)
	return worst, err
}

// byzantineLinePoints is the distance-grid size of the verification
// job's worst-over-grid scan.
const byzantineLinePoints = 12

// validateByzantineLine scopes the scenario to the infinite line
// (m = 2), the setting of Czyzowicz et al.
func validateByzantineLine(m, k, f int) error {
	if err := classify(m, k, f); err != nil {
		return err
	}
	if m != 2 {
		return fmt.Errorf("registry: byzantine-line is the infinite-line model m=2 (got m=%d)", m)
	}
	return nil
}

// lineTransferBound is the crash bound A(2,k,f) on the line, which
// transfers to every line model whose faulty robots may stay silent
// (Byzantine search) or whose goal includes detection (evacuation).
func lineTransferBound(m, k, f int) (float64, error) {
	return bounds.AMKF(2, k, f)
}

// byzantineLineScenario is Search on a Line by Byzantine Robots
// (Czyzowicz et al.): k robots on the line, f of them Byzantine — they
// may stay silent or lie — and the observer confirms the target by
// consistency (internal/byzantine's inference rule: a location is
// believed only once every alternative is contradicted by more than f
// robots). The lower bound is the paper's transfer B(k,f) >= A(2,k,f);
// no matching upper bound is known. The measured quantity is the
// certainty ratio of the optimal crash strategy with the f Byzantine
// robots playing silent — executable Byzantine semantics rather than a
// bound certificate.
func byzantineLineScenario() Scenario {
	return Scenario{
		Name:        "byzantine-line",
		Description: "Byzantine line search, n robots / f Byzantine (Czyzowicz et al.): transfer lower bound B(k,f) >= A(2,k,f), simulator measures the consistency-observer certainty ratio",
		Params:      baseParams(),
		Verifiable:  true,
		Rays:        true,
		Cost:        CostMonteCarlo,
		Objective:   ObjectiveFind,
		Validate:    validateByzantineLine,
		LowerBound:  lineTransferBound,
		VerifyJob: func(ctx context.Context, req Request) (engine.Job, error) {
			if err := requireSearchRegime(req, "byzantine-line verification"); err != nil {
				return nil, err
			}
			return engine.ByzantineLineWorst{K: req.K, F: req.F, Horizon: req.Horizon, Points: byzantineLinePoints}, nil
		},
		SimulateJob: func(ctx context.Context, req Request) (engine.Job, error) {
			if err := requireSearchRegime(req, "byzantine-line simulation"); err != nil {
				return nil, err
			}
			return engine.ByzantineLineSim{K: req.K, F: req.F, Dist: req.Dist}, nil
		},
	}
}
