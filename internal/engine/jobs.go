package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/adversary"
	"repro/internal/randomized"
	"repro/internal/solver"
	"repro/internal/strategy"
)

// Result is the outcome of one Job: a headline scalar, plus the full
// adversarial evaluation for ratio-style jobs and the effective
// Monte-Carlo configuration for sampled jobs.
type Result struct {
	// Value is the job's headline quantity (a worst-case ratio for the
	// adversarial jobs, a mean ratio for randomized trials).
	Value float64
	// Eval carries the located supremum for jobs that run the exact
	// adversary; zero otherwise.
	Eval adversary.Evaluation
	// Samples is the Monte-Carlo sample count the job actually used
	// (0 for deterministic jobs). Callers that derived the count from a
	// horizon read the effective value back from here.
	Samples int
	// Seed is the effective Monte-Carlo seed (0 for deterministic
	// jobs).
	Seed int64
	// Clamped reports that the requested sample count was clamped into
	// the supported range — the caller asked for more (or fewer)
	// samples than the job ran.
	Clamped bool
	// Evals carries the full fault-range evaluation of FRangeRatio-style
	// jobs (Evals[f] is the evaluation at f faults); nil otherwise.
	// Results are shared through the cache: callers must not mutate it.
	Evals []adversary.Evaluation
}

// Job is one unit of batch work. Implementations must be deterministic:
// two jobs with equal keys must produce equal results, because the
// engine memoizes by key. A job whose Key is "" opts out of caching.
type Job interface {
	// Key fingerprints the job for the result cache. Strategy-based
	// jobs derive the fingerprint from the strategy's content-addressed
	// identity (Strategy.Fingerprint) — for compiled programs the
	// script content hash plus exact instantiation bits — never from
	// the human-facing Name.
	Key() string
	// Run performs the evaluation. Long-running implementations should
	// check ctx cooperatively (the built-in jobs check inside their
	// breakpoint/sample loops); the engine cancels ctx when no caller
	// wants the result anymore. A ctx-induced error is never memoized.
	Run(ctx context.Context) (Result, error)
}

// ExactRatio evaluates the exact worst-case competitive ratio of a
// strategy under the crash-fault adversary (adversary.ExactRatio).
type ExactRatio struct {
	Strategy strategy.Strategy
	Faults   int
	Horizon  float64
}

// Key implements Job, keyed on (strategy fingerprint, faults, horizon).
// Like VerifyUpper's, the key is appended without fmt; its bytes are
// fmt.Sprintf's "exact|%s|f=%d|h=%g", which snapshot entries are keyed by.
func (j ExactRatio) Key() string {
	if j.Strategy == nil {
		return ""
	}
	var buf [96]byte
	b := append(buf[:0], "exact|"...)
	b = append(b, j.Strategy.Fingerprint()...)
	b = append(b, "|f="...)
	b = strconv.AppendInt(b, int64(j.Faults), 10)
	return string(appendHorizon(b, j.Horizon))
}

// appendHorizon appends a key's "|h=" field, the bytes fmt's %g gives.
func appendHorizon(b []byte, h float64) []byte {
	b = append(b, "|h="...)
	return strconv.AppendFloat(b, h, 'g', -1, 64)
}

// Run implements Job.
func (j ExactRatio) Run(ctx context.Context) (Result, error) {
	ev, err := adversary.ExactRatio(ctx, j.Strategy, j.Faults, j.Horizon)
	return Result{Value: ev.WorstRatio, Eval: ev}, err
}

// FRangeRatio evaluates the exact worst-case competitive ratio of one
// strategy at EVERY fault count f in 0..MaxF from a single visit-table
// build (adversary.Evaluator.FRange) — the cross-f reuse that a batch
// of per-f ExactRatio jobs cannot express, since each of those rebuilds
// the tables. Value and Eval report the full-budget (f = MaxF) point;
// Evals carries the whole resilience curve.
type FRangeRatio struct {
	Strategy strategy.Strategy
	// MaxF is the inclusive top of the fault range; it must satisfy
	// 0 <= MaxF < K, and the strategy must cover every in-horizon
	// target MaxF+1 times (always true for the optimal cyclic
	// exponential strategy of fault budget f when MaxF <= f).
	MaxF    int
	Horizon float64
}

// Key implements Job.
func (j FRangeRatio) Key() string {
	if j.Strategy == nil {
		return ""
	}
	return fmt.Sprintf("frange|%s|fmax=%d|h=%g", j.Strategy.Fingerprint(), j.MaxF, j.Horizon)
}

// Run implements Job.
func (j FRangeRatio) Run(ctx context.Context) (Result, error) {
	ev, err := adversary.NewEvaluator(j.Strategy, j.Horizon)
	if err != nil {
		return Result{}, err
	}
	defer ev.Release()
	evals, err := ev.FRange(ctx, j.MaxF)
	if err != nil {
		return Result{}, err
	}
	last := evals[len(evals)-1]
	return Result{Value: last.WorstRatio, Eval: last, Evals: evals}, nil
}

// VerifyUpper measures the exact worst-case ratio of the optimal cyclic
// exponential strategy for (M, K, F) — the executable Theorem 6 upper
// bound, as a cacheable job. It is the unit of work Sweep fans out.
type VerifyUpper struct {
	M, K, F int
	Horizon float64
}

// cyclicHash is the content hash of the compiled cyclic exponential
// program. VerifyUpper keys embed it so the cached result is tied to
// the program that produced it: if the script (and hence the rounds)
// ever changed, the keys would roll over instead of serving stale
// results from a snapshot.
var cyclicHash = strategy.CyclicProgram().Hash()

// Key implements Job. The strategy is the optimal cyclic exponential at
// alpha*(m(f+1), k), fully determined by (M, K, F), so the key derives
// from the cyclic program's content hash plus those parameters. A sweep
// builds one key per cell, so it appends into a stack buffer instead of
// going through fmt; the bytes are fmt.Sprintf's
// "verify|sp=%s|m=%d|k=%d|f=%d|h=%g", which snapshot entries are keyed by.
func (j VerifyUpper) Key() string {
	var buf [80]byte
	b := append(buf[:0], "verify|sp="...)
	b = append(b, cyclicHash[:16]...)
	b = append(b, "|m="...)
	b = strconv.AppendInt(b, int64(j.M), 10)
	b = append(b, "|k="...)
	b = strconv.AppendInt(b, int64(j.K), 10)
	b = append(b, "|f="...)
	b = strconv.AppendInt(b, int64(j.F), 10)
	return string(appendHorizon(b, j.Horizon))
}

// Run implements Job.
func (j VerifyUpper) Run(ctx context.Context) (Result, error) {
	// The strategy comes from the memoizing solver: a sweep's cells for
	// one (m, k, f) share a single resident instance instead of
	// re-running the constructor (and its alpha* derivation) per cell.
	s, err := solver.From(ctx).Strategy(j.M, j.K, j.F)
	if err != nil {
		return Result{}, err
	}
	ev, err := adversary.ExactRatio(ctx, s, j.F, j.Horizon)
	return Result{Value: ev.WorstRatio, Eval: ev}, err
}

// RandomizedTrials runs a Monte-Carlo estimate of the randomized
// zigzag's expected ratio (randomized.MonteCarloRatio) with an explicit
// seed, so the job is deterministic and cacheable like the others.
type RandomizedTrials struct {
	Base    float64
	X       float64
	Samples int
	Seed    int64
	// Clamped records that Samples was clamped from a larger
	// horizon-derived request; part of the key because Result carries
	// it (equal keys must produce equal Results).
	Clamped bool
}

// Key implements Job.
func (j RandomizedTrials) Key() string {
	key := fmt.Sprintf("mc|b=%g|x=%g|n=%d|seed=%d", j.Base, j.X, j.Samples, j.Seed)
	if j.Clamped {
		key += "|clamped"
	}
	return key
}

// Run implements Job.
func (j RandomizedTrials) Run(ctx context.Context) (Result, error) {
	rng := rand.New(rand.NewSource(j.Seed))
	v, err := randomized.MonteCarloRatio(ctx, j.Base, j.X, j.Samples, rng)
	return Result{Value: v, Samples: j.Samples, Seed: j.Seed, Clamped: j.Clamped}, err
}

var (
	_ Job = ExactRatio{}
	_ Job = FRangeRatio{}
	_ Job = VerifyUpper{}
	_ Job = RandomizedTrials{}
)
