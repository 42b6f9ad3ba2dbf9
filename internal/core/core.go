// Package core is the public facade of the faultysearch library: it ties
// the closed-form bounds, strategy constructors, simulators, exact
// adversarial evaluation, and potential-function refutation machinery of
// Kupavskii–Welzl (PODC 2018) into one Problem type.
//
// A Problem is "search m rays with k robots, f of them faulty". For crash
// faults the optimal competitive ratio is known exactly (Theorems 1/6):
// LowerBound and UpperBound coincide at lambda0 = 2*mu(m(f+1), k) + 1. For
// Byzantine faults only the transfer lower bound B(k,f) >= A(k,f) is
// available from the paper; UpperBound reports registry.ErrNoUpperBound.
// Problem.Model names any other registered scenario by its registry key
// ("byzantine", "shoreline", "evacuation-line", ...).
//
// Typical usage:
//
//	p := core.Problem{M: 2, K: 3, F: 1}
//	eng := engine.New(0)
//	lb, _ := p.LowerBound()                  // 5.2333...
//	s, _ := p.OptimalStrategy()              // the cyclic exponential strategy
//	ev, _ := p.VerifyUpperOn(ctx, eng, 1e6)  // measured sup ratio == lb
//	cert, _ := p.RefuteBelow(ctx, 0.97, 300) // machine-checked impossibility
//
// The compute methods that can run long take a context.Context and
// cancel cooperatively (VerifyOn, VerifyUpperOn, RefuteBelow). The
// verification methods run through a caller-supplied engine, so the
// caller owns the pool size and the lifetime of the result cache.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/potential"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// Errors returned by the facade.
var (
	// ErrNotSearchRegime is returned when an operation needs the
	// nontrivial regime f < k < m(f+1).
	ErrNotSearchRegime = errors.New("core: operation requires the search regime f < k < m(f+1)")
	// ErrNoEvaluation is returned by VerifyUpperOn when the scenario's
	// verification produces only a scalar (no adversarial evaluation) —
	// use VerifyOn for those scenarios.
	ErrNoEvaluation = errors.New("core: scenario verification produces a scalar, not an adversarial evaluation; use VerifyOn")
	// ErrNotRayModel is returned by the helpers that read M as a ray
	// count (Regime, Rho, HighPrecision, OptimalStrategy and those built
	// on them) for a model whose M means something else, such as
	// shoreline's ambient dimension.
	ErrNotRayModel = errors.New("core: operation requires a ray-search model (M counts rays)")
)

// Problem is a faulty-robot search instance.
type Problem struct {
	// M is the number of rays (2 = the line).
	M int
	// K is the number of robots.
	K int
	// F is the number of faulty robots.
	F int
	// Model names the scenario by its registry key (see
	// registry.Default().All()); "" means "crash".
	Model string
}

// Scenario resolves the problem's model to its registry entry — the
// single source of truth for bound functions and verify jobs.
func (p Problem) Scenario() (registry.Scenario, error) {
	name := p.Model
	if name == "" {
		name = "crash"
	}
	sc, err := registry.Get(name)
	if err != nil {
		return registry.Scenario{}, fmt.Errorf("core: %w", err)
	}
	return sc, nil
}

// scenario resolves the model and checks the parameters against it,
// once per call of the method that needs both.
func (p Problem) scenario() (registry.Scenario, error) {
	sc, err := p.Scenario()
	if err != nil {
		return sc, err
	}
	if err := sc.Validate(p.M, p.K, p.F); err != nil {
		return sc, fmt.Errorf("core: %w", err)
	}
	return sc, nil
}

// rays validates the parameters and checks that the model's M counts
// rays, which the paper's classification assumes.
func (p Problem) rays() error {
	sc, err := p.scenario()
	if err != nil {
		return err
	}
	if !sc.Rays {
		return fmt.Errorf("%w: %s", ErrNotRayModel, sc.Name)
	}
	return nil
}

// Regime classifies the instance (unsolvable / trivial / search); a
// model whose M is not a ray count has no regime (ErrNotRayModel).
func (p Problem) Regime() (bounds.Regime, error) {
	if err := p.rays(); err != nil {
		return 0, err
	}
	return bounds.Classify(p.M, p.K, p.F)
}

// Q returns q = m(f+1), the covering multiplicity of Theorem 6; a
// model whose M is not a ray count has none (ErrNotRayModel).
func (p Problem) Q() (int, error) {
	if err := p.rays(); err != nil {
		return 0, err
	}
	return p.q(), nil
}

// q is m(f+1) for callers that have already checked the model counts
// rays.
func (p Problem) q() int { return p.M * (p.F + 1) }

// Rho returns rho = q/k, the single parameter the bound depends on.
func (p Problem) Rho() (float64, error) {
	if err := p.rays(); err != nil {
		return 0, err
	}
	return bounds.Rho(p.M, p.K, p.F)
}

// LowerBound returns the scenario's lower bound on the competitive
// ratio, resolved through the registry: the exact A(m,k,f) for crash
// faults, the transfer value (same formula) for Byzantine faults, the
// Kao–Reif–Tate constant for the probabilistic stub.
func (p Problem) LowerBound() (float64, error) {
	sc, err := p.scenario()
	if err != nil {
		return 0, err
	}
	return sc.LowerBound(p.M, p.K, p.F)
}

// UpperBound returns the scenario's best known upper bound: equal to
// LowerBound for crash faults (the bound is tight),
// registry.ErrNoUpperBound for Byzantine.
func (p Problem) UpperBound() (float64, error) {
	sc, err := p.scenario()
	if err != nil {
		return 0, err
	}
	return sc.UpperBound(p.M, p.K, p.F)
}

// HighPrecision returns certified enclosures of mu and lambda0 at prec
// bits (search regime only).
func (p Problem) HighPrecision(prec uint) (bounds.HighPrecision, error) {
	regime, err := p.Regime()
	if err != nil {
		return bounds.HighPrecision{}, err
	}
	if regime != bounds.RegimeSearch {
		return bounds.HighPrecision{}, fmt.Errorf("%w: regime is %v", ErrNotSearchRegime, regime)
	}
	return bounds.HighPrecisionBound(p.q(), p.K, prec)
}

// OptimalStrategy returns the ratio-optimal cyclic exponential strategy
// for the crash model (search regime only).
func (p Problem) OptimalStrategy() (*strategy.CyclicExponential, error) {
	regime, err := p.Regime()
	if err != nil {
		return nil, err
	}
	if regime != bounds.RegimeSearch {
		return nil, fmt.Errorf("%w: regime is %v", ErrNotSearchRegime, regime)
	}
	return strategy.NewCyclicExponential(p.M, p.K, p.F)
}

// VerifyUpperOn measures the exact worst-case ratio of the optimal
// strategy over [1, horizon) — the executable form of the Theorem 6
// upper bound — through the engine e, whose result cache serves
// repeated verifications of the same (problem, horizon). The caller
// owns e, and with it the pool size and the cache lifetime. The job
// is resolved through the scenario registry, so it shares cache keys
// with engine.Sweep cells of the same (m, k, f, horizon). Cancelling
// ctx aborts the evaluation at its next cooperative check.
func (p Problem) VerifyUpperOn(ctx context.Context, e *engine.Engine, horizon float64) (adversary.Evaluation, error) {
	res, err := p.VerifyOn(ctx, e, horizon)
	if err != nil {
		return adversary.Evaluation{}, err
	}
	// A real adversarial evaluation always examines breakpoints; a
	// zero Eval means the scenario's job carries only Result.Value
	// (probabilistic) and returning it as an Evaluation would read as
	// "measured sup ratio 0".
	if res.Eval.Breakpoints == 0 {
		return adversary.Evaluation{}, fmt.Errorf("%w (scenario %v, value %g)", ErrNoEvaluation, p.Model, res.Value)
	}
	return res.Eval, nil
}

// VerifyOn runs the scenario's verification job (constructed through
// the registry) on the engine and returns the raw engine result. For
// crash faults Result.Eval carries the located supremum; scalar-only
// scenarios (probabilistic) populate just Result.Value. Non-verifiable
// parameter triples surface as ErrNotSearchRegime when the regime is
// the reason, the scenario's own error otherwise. ctx flows through the
// job construction and into the engine run.
func (p Problem) VerifyOn(ctx context.Context, e *engine.Engine, horizon float64) (engine.Result, error) {
	sc, err := p.scenario()
	if err != nil {
		return engine.Result{}, err
	}
	job, err := sc.VerifyJob(ctx, registry.Request{M: p.M, K: p.K, F: p.F, Horizon: horizon})
	if err != nil {
		if errors.Is(err, registry.ErrNotVerifiable) {
			if regime, rerr := p.Regime(); rerr == nil && regime != bounds.RegimeSearch {
				return engine.Result{}, fmt.Errorf("%w: regime is %v", ErrNotSearchRegime, regime)
			}
		}
		return engine.Result{}, fmt.Errorf("core: %w", err)
	}
	return e.Run(ctx, job)
}

// RefuteBelow runs the Eq. (10) refutation pipeline against the optimal
// strategy itself at lambda = factor * lambda0 (factor < 1): the ORC
// covering either gaps outright or the potential argument applies. This is
// the executable form of the Theorem 6 lower bound — by the theorem, NO
// strategy can do better, and this method demonstrates the machinery on
// the strongest available candidate. The pipeline checks ctx between its
// stages (strategy materialization, per-robot turn extraction, the
// refutation replay), so a cancelled caller stops it at a stage boundary.
func (p Problem) RefuteBelow(ctx context.Context, factor, upTo float64) (potential.Certificate, error) {
	if !(factor > 0 && factor < 1) {
		return potential.Certificate{}, fmt.Errorf("core: factor %g must be in (0,1)", factor)
	}
	s, err := p.OptimalStrategy()
	if err != nil {
		return potential.Certificate{}, err
	}
	lambda0, err := p.LowerBound()
	if err != nil {
		return potential.Certificate{}, err
	}
	turns := make([][]float64, s.K())
	for r := range turns {
		if err := ctx.Err(); err != nil {
			return potential.Certificate{}, err
		}
		if turns[r], err = strategy.Turns(s, r, upTo*8); err != nil {
			return potential.Certificate{}, fmt.Errorf("core: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return potential.Certificate{}, err
	}
	return potential.RefuteORCStrategy(turns, s.Q(), lambda0*factor, upTo, 1e9)
}

// RefuteStrategy runs the refutation pipeline against an arbitrary
// collective ORC strategy (per-robot excursion distances) at ratio lambda.
func (p Problem) RefuteStrategy(turnsPerRobot [][]float64, lambda, upTo float64) (potential.Certificate, error) {
	q, err := p.Q()
	if err != nil {
		return potential.Certificate{}, err
	}
	return potential.RefuteORCStrategy(turnsPerRobot, q, lambda, upTo, 1e9)
}

// Solve simulates the optimal strategy against a target under the
// adversarial crash-fault assignment.
func (p Problem) Solve(target trajectory.Point) (sim.Result, error) {
	s, err := p.OptimalStrategy()
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(sim.Config{Strategy: s, Faults: p.F, Target: target})
}
