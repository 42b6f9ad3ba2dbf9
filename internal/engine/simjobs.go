// simjobs.go is the simulation-verification job family: engine Jobs
// that run the internal/sim, internal/byzantine and internal/pfaulty
// simulators (via internal/strategy / internal/trajectory) as
// cacheable, cancellable units of work. They are what
// registry.Scenario.SimulateJob constructors return, so every
// registered fault model can be checked against its simulator through
// the same cache/singleflight/streaming machinery as the closed-form
// verification jobs.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/bounds"
	"repro/internal/pfaulty"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/strategy"
	"repro/internal/trajectory"
)

// simSetup returns the context solver's optimal strategy for (m, k, f)
// and the trajectory-horizon multiple 2*lambda0(m,k,f) + 8 that the
// simulation jobs materialize it to, generous enough that detection
// always lands inside the materialized prefix.
func simSetup(ctx context.Context, m, k, f int) (*strategy.CyclicExponential, float64, error) {
	s, err := solver.From(ctx).Strategy(m, k, f)
	if err != nil {
		return nil, 0, err
	}
	lambda0, err := bounds.AMKF(m, k, f)
	if err != nil {
		return nil, 0, err
	}
	return s, 2*lambda0 + 8, nil
}

// SimulationRun simulates the optimal cyclic exponential strategy for
// (M, K, F) against a target at distance Dist under the adversarial
// crash-fault assignment, on every ray, and reports the worst observed
// competitive ratio — the simulator-backed counterpart of a single
// VerifyUpper point.
type SimulationRun struct {
	M, K, F int
	Dist    float64
}

// Key implements Job. The simulated strategy is the optimal cyclic
// exponential, so the key embeds the cyclic program's content hash like
// VerifyUpper's does.
func (j SimulationRun) Key() string {
	return fmt.Sprintf("simrun|sp=%s|m=%d|k=%d|f=%d|d=%g", cyclicHash[:16], j.M, j.K, j.F, j.Dist)
}

// Run implements Job.
func (j SimulationRun) Run(ctx context.Context) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s, hf, err := simSetup(ctx, j.M, j.K, j.F)
	if err != nil {
		return Result{}, err
	}
	worst := 0.0
	for ray := 1; ray <= j.M; ray++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		res, err := sim.Run(sim.Config{
			Strategy:      s,
			Faults:        j.F,
			Target:        trajectory.Point{Ray: ray, Dist: j.Dist},
			HorizonFactor: hf,
		})
		if err != nil {
			return Result{}, err
		}
		if res.Ratio > worst {
			worst = res.Ratio
		}
	}
	return Result{Value: worst}, nil
}

// PFaultyTrials estimates the expected competitive ratio of the
// geometric half-line strategy under probability-p silent faults
// (pfaulty.MonteCarloRatio) with an explicit seed, so the job is
// deterministic and cacheable like RandomizedTrials.
type PFaultyTrials struct {
	Base    float64
	P       float64
	X       float64
	Samples int
	Seed    int64
	// Clamped records that the sample count was clamped from a larger
	// horizon-derived request; it is part of the key because Result
	// carries it (equal keys must produce equal Results).
	Clamped bool
}

// Key implements Job.
func (j PFaultyTrials) Key() string {
	key := fmt.Sprintf("pfaulty|b=%g|p=%g|x=%g|n=%d|seed=%d", j.Base, j.P, j.X, j.Samples, j.Seed)
	if j.Clamped {
		key += "|clamped"
	}
	return key
}

// Run implements Job.
func (j PFaultyTrials) Run(ctx context.Context) (Result, error) {
	rng := rand.New(rand.NewSource(j.Seed))
	v, err := pfaulty.MonteCarloRatio(ctx, j.Base, j.P, j.X, j.Samples, rng)
	return j.result(v), err
}

// result wraps the sampled value with the job's sampling metadata.
func (j PFaultyTrials) result(v float64) Result {
	return Result{Value: v, Samples: j.Samples, Seed: j.Seed, Clamped: j.Clamped}
}

// curveKey is what the PFaultyTrials of one simulate answer share:
// every field but the distance, floats by their bits (the key prints
// -0 and 0 apart).
type curveKey struct {
	base, p uint64
	samples int
	seed    int64
	clamped bool
}

func (j PFaultyTrials) curveKey() curveKey {
	return curveKey{math.Float64bits(j.Base), math.Float64bits(j.P), j.Samples, j.Seed, j.Clamped}
}

// pfaultyCurve is one stream's shared evaluation of linked PFaultyTrials
// distances: the first linked job to run samples every distance with
// pfaulty.MonteCarloCurve, from the seeded draw sequence each lone job
// draws, and the others return their value. A pass cut short
// by its job's cancellation keeps nothing, so the next linked job
// recomputes under its own ctx.
type pfaultyCurve struct {
	job  PFaultyTrials // the shared fields; X is unused
	xs   []float64
	mu   sync.Mutex
	vals []float64
	errs []error // nil until a pass completes
}

// ratio returns the value of distance xs[i], sampling the curve first
// if no pass has completed.
func (c *pfaultyCurve) ratio(ctx context.Context, i int) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.errs == nil {
		if err := ctx.Err(); err != nil {
			return 0, err // a cancelled job starts no pass
		}
		j := c.job
		vals, errs := pfaulty.MonteCarloCurve(ctx, j.Base, j.P, c.xs, j.Samples, j.Seed)
		if ctx.Err() != nil {
			return vals[i], errs[i] // cut short: keep nothing
		}
		c.vals, c.errs = vals, errs
	}
	return c.vals[i], c.errs[i]
}

// linkedPFaulty is a PFaultyTrials whose Run reads its distance from a
// stream's shared curve. It keeps the PFaultyTrials key, so it caches
// and deduplicates exactly as the lone job does.
type linkedPFaulty struct {
	PFaultyTrials
	curve *pfaultyCurve
	i     int
}

// Run implements Job.
func (j linkedPFaulty) Run(ctx context.Context) (Result, error) {
	v, err := j.curve.ratio(ctx, j.i)
	return j.result(v), err
}

// linkPFaulty returns jobs with every PFaultyTrials that is neither
// cached nor in flight, and shares its curveKey with another such job,
// linked to one pfaultyCurve over their distances. Without two such
// jobs it returns jobs itself.
func (e *Engine) linkPFaulty(jobs []Job) []Job {
	var groups map[curveKey][]int
	for i, j := range jobs {
		pj, ok := j.(PFaultyTrials)
		if !ok || e.resident(pj.Key()) {
			continue
		}
		if groups == nil {
			groups = make(map[curveKey][]int)
		}
		k := pj.curveKey()
		groups[k] = append(groups[k], i)
	}
	var linked []Job
	for _, idx := range groups {
		if len(idx) < 2 {
			continue
		}
		if linked == nil {
			linked = slices.Clone(jobs)
		}
		c := &pfaultyCurve{job: jobs[idx[0]].(PFaultyTrials), xs: make([]float64, len(idx))}
		for n, i := range idx {
			pj := jobs[i].(PFaultyTrials)
			c.xs[n] = pj.X
			linked[i] = linkedPFaulty{PFaultyTrials: pj, curve: c, i: n}
		}
	}
	if linked == nil {
		return jobs
	}
	return linked
}

// LogGrid returns n log-spaced distances spanning [1, horizon] — the
// deterministic target grid shared by the simulate endpoints and the
// worst-over-grid jobs (d_0 = 1, d_{n-1} = horizon). The endpoints are
// pinned exactly: exp(log(horizon)) is one ulp off horizon for many
// inputs, which would make the grid's last row a simulation of almost
// — but not quite — the requested horizon.
func LogGrid(horizon float64, n int) []float64 {
	out := make([]float64, n)
	logH := math.Log(horizon)
	for i := range out {
		out[i] = math.Exp(logH * float64(i) / float64(n-1))
	}
	out[0] = 1
	out[n-1] = horizon
	return out
}

var (
	_ Job = SimulationRun{}
	_ Job = PFaultyTrials{}
	_ Job = linkedPFaulty{}
)
