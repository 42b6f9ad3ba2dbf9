// Package pfaulty implements p-Faulty Search on the half-line (Bonato,
// Georgiou, MacRury, Prałat — "Probabilistically Faulty Searching on a
// Half-Line", LATIN 2020), the probabilistic-fault counterpoint to the
// adversarial crash model of Kupavskii–Welzl: a single unit-speed robot
// searches the half-line [0, inf) for a target at unknown distance
// x >= 1, and every pass over the target is detected independently with
// probability 1-p (the fault probability p is in (0, 1); p = 0 is the
// trivial walk-out, p = 1 is unsolvable).
//
// The strategy family implemented here is the cyclic geometric family
// the rest of this repository is built on: round i goes from the origin
// out to b^i and back (an S_1 instance of trajectory.Star). In the
// idealized infinite-past model (rounds for all integers i, prefix sums
// telescoping to b^i/(b-1)) a target at x with j = ceil(log_b x) is
// passed outbound at A_i = 2 b^i/(b-1) + x and inbound at
// B_i = 2 b^i/(b-1) + 2 b^i - x for every round i >= j, and detection
// happens at the n-th pass with probability (1-p) p^(n-1). Summing the
// geometric series gives the expected detection time
//
//	E[T] = (1-p) * 2 b^j [ (1+p)/(b-1) + p ] / (1 - p^2 b) + x (1-p)/(1+p),
//
// finite exactly when p^2 b < 1 (revisits must outpace the fault decay;
// for b >= 1/p^2 the expectation diverges — Bonato et al.'s
// "termination" constraint). The expected competitive ratio E[T]/x
// depends on x only through gamma = b^j / x in [1, b), so the worst
// case is the limit x -> (b^(j-1))+ where gamma -> b:
//
//	W(b, p) = 2 b (1-p) [ (1+p)/(b-1) + p ] / (1 - p^2 b) + (1-p)/(1+p).
//
// W diverges at both ends of (1, 1/p^2) and has a unique interior
// minimum, located numerically by OptimalBase. The Monte-Carlo
// simulator cross-checks the closed form over concrete materialized
// trajectories: visit times come from trajectory.Star (not from the
// formulas above), and only the detection coin is sampled.
package pfaulty

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/numeric"
	"repro/internal/trajectory"
)

// Errors returned by the p-faulty evaluators.
var (
	// ErrBadParams is returned for invalid parameters.
	ErrBadParams = errors.New("pfaulty: invalid parameters")
	// ErrDiverges is returned when the expected detection time is
	// infinite (p^2 * b >= 1: the fault decay outpaces the revisits).
	ErrDiverges = errors.New("pfaulty: expected detection time diverges (need b < 1/p^2)")
)

// validate checks the common (b, p) domain.
func validate(b, p float64) error {
	if !(b > 1) || math.IsInf(b, 0) || math.IsNaN(b) {
		return fmt.Errorf("%w: base %g (want > 1)", ErrBadParams, b)
	}
	if !(p > 0 && p < 1) {
		return fmt.Errorf("%w: fault probability %g (want 0 < p < 1)", ErrBadParams, p)
	}
	if p*p*b >= 1 {
		return fmt.Errorf("%w: b=%g p=%g", ErrDiverges, b, p)
	}
	return nil
}

// ExpectedRatio returns the closed-form expected competitive ratio of
// the geometric strategy with base b for a target at distance x > 0,
// per-pass fault probability p. Unlike the randomized zigzag of
// internal/randomized, the ratio is NOT flat in x: it is periodic in
// log_b x through gamma = b^ceil(log_b x)/x.
func ExpectedRatio(b, p, x float64) (float64, error) {
	if err := validate(b, p); err != nil {
		return 0, err
	}
	if !(x > 0) || math.IsInf(x, 0) || math.IsNaN(x) {
		return 0, fmt.Errorf("%w: distance %g (want positive finite)", ErrBadParams, x)
	}
	j := math.Ceil(math.Log(x) / math.Log(b))
	gamma := math.Pow(b, j) / x
	// Float noise can put gamma a hair outside [1, b); snap it back so
	// exact powers of b get gamma = 1, not gamma ~ b.
	if gamma >= b {
		gamma /= b
	}
	if gamma < 1 {
		gamma *= b
	}
	return ratioAtGamma(b, p, gamma), nil
}

// ratioAtGamma evaluates the ratio at gamma = b^j/x (see package doc).
func ratioAtGamma(b, p, gamma float64) float64 {
	return 2*gamma*(1-p)*((1+p)/(b-1)+p)/(1-p*p*b) + (1-p)/(1+p)
}

// WorstRatio returns the supremum over target distances of the expected
// competitive ratio: the gamma -> b limit of ExpectedRatio.
func WorstRatio(b, p float64) (float64, error) {
	if err := validate(b, p); err != nil {
		return 0, err
	}
	return ratioAtGamma(b, p, b), nil
}

// OptimalBase returns the base minimizing WorstRatio over the feasible
// interval (1, 1/p^2), and the minimal worst-case expected ratio. The
// objective diverges at both endpoints and is unimodal in between.
func OptimalBase(p float64) (base, ratio float64, err error) {
	if !(p > 0 && p < 1) {
		return 0, 0, fmt.Errorf("%w: fault probability %g (want 0 < p < 1)", ErrBadParams, p)
	}
	hi := 1 / (p * p)
	// Stay strictly inside the feasible interval: the objective is +Inf
	// outside and golden-section needs finite values at the probes.
	lo := 1 + 1e-9*(hi-1)
	hi -= 1e-9 * (hi - 1)
	f := func(b float64) float64 {
		v, ferr := WorstRatio(b, p)
		if ferr != nil {
			return math.Inf(1)
		}
		return v
	}
	base, err = numeric.GoldenSection(f, lo, hi, 1e-12, 400)
	if err != nil {
		return 0, 0, fmt.Errorf("pfaulty: %w", err)
	}
	ratio, err = WorstRatio(base, p)
	if err != nil {
		return 0, 0, err
	}
	return base, ratio, nil
}

// maxRounds caps the materialized trajectory length, guarding against
// pathological (b, p) combinations.
const maxRounds = 1 << 16

// Trajectory materializes the geometric half-line strategy as an S_1
// star trajectory with enough rounds that a target at distance <= x is
// passed at least `visits` times. The earliest rounds start at
// b^iMin ~ 1e-16 so the finite-past prefix sums agree with the
// idealized closed form to float64 precision.
func Trajectory(b, x float64, visits int) (*trajectory.Star, error) {
	if !(b > 1) || math.IsInf(b, 0) || math.IsNaN(b) {
		return nil, fmt.Errorf("%w: base %g", ErrBadParams, b)
	}
	if !(x >= 1) || math.IsInf(x, 0) {
		return nil, fmt.Errorf("%w: distance %g (want >= 1)", ErrBadParams, x)
	}
	if visits < 1 {
		return nil, fmt.Errorf("%w: %d visits", ErrBadParams, visits)
	}
	logB := math.Log(b)
	iMin := int(math.Floor(-16 * math.Ln10 / logB))
	// Round j = ceil(log_b x) is the first to reach x; each later round
	// adds two passes (out and back).
	j := int(math.Ceil(math.Log(x) / logB))
	iMax := j + visits/2 + 1
	if iMax-iMin+1 > maxRounds {
		return nil, fmt.Errorf("%w: %d rounds for b=%g x=%g visits=%d", ErrBadParams, iMax-iMin+1, b, x, visits)
	}
	rounds := make([]trajectory.Round, 0, iMax-iMin+1)
	for i := iMin; i <= iMax; i++ {
		rounds = append(rounds, trajectory.Round{Ray: 1, Turn: math.Pow(b, float64(i))})
	}
	return trajectory.NewStar(1, rounds)
}

// tailProb bounds the probability mass allowed beyond the materialized
// passes: enough visits are generated that missing all of them has
// probability below this, so truncation cannot bias the estimate at
// float64-visible scales.
const tailProb = 1e-12

// visitsFor returns how many passes must be materialized so that
// p^visits < tailProb.
func visitsFor(p float64) int {
	v := int(math.Ceil(math.Log(tailProb) / math.Log(p)))
	if v < 4 {
		v = 4
	}
	return v
}

// passTimes returns the detection opportunities for a target at
// distance x, in time order: an outbound and an inbound pass for every
// round reaching past x. A round turning exactly at x touches the
// target once in time but still counts as two opportunities (at the
// same instant) — the limit convention of the closed form, which is
// continuous in x; without it, targets on the turning lattice (d = 1
// = b^0 in particular) would sit on a measure-zero discontinuity the
// Monte-Carlo check could never match.
func passTimes(star *trajectory.Star, x float64) []float64 {
	var times []float64
	for i := 0; i < star.NumRounds(); i++ {
		r := star.RoundAt(i)
		if r.Turn < x {
			continue
		}
		start := 2 * star.PrefixSum(i)
		times = append(times, start+x, start+2*r.Turn-x)
	}
	return times
}

// The sampler draws the detecting pass by inverse transform,
// n = 1+int(math.Log(1-u)/logP) with u = rng.Float64(), but reads n from
// a table instead of taking a logarithm per sample. rand.Float64 builds
// u = float64(v)/2^63 from one v = rng.Int63(), so the top passBits bits
// of v name a bucket of u-width 2^-passBits (both ends included: the
// float64 conversion can round up to the next bucket's first value).
// Exact arithmetic steps n from j to j+1 at the threshold
// u_j = 1-p^j = -math.Expm1(j*logP). A bucket that lies more than
// passDelta from every threshold holds the n of its whole range; any
// other bucket holds 0 and the sample computes the expression itself.
//
// Why a table entry equals the computed expression in every bit: with
// l = logP and g(u) = ln(1-u)/l, the rounding of 1-u, math.Log and the
// division move g by at most (2^-53 + 1.5*2^-52*|ln(1-u)|)/|l|, below
// 2^-48/|l| because every non-zero bucket has 1-u >= 2^-passBits. The
// rounded product j*l, math.Expm1 and the widening move each threshold
// by under 2^-51. Since g' >= 1/|l|, a u more than passDelta = 2^-40
// from every threshold has g more than (2^-40 - 2^-51)/|l| from every
// integer, about 250 times the rounding error, so int() of the
// computed quotient equals int(g), the table's n.
const (
	passBits  = 12
	passDelta = 0x1p-40
	// maxTablePass is the largest pass a uint8 table entry holds; later
	// passes, and passes beyond the materialized ones, take the log.
	maxTablePass = 254
	// minTableSamples is the sample count from which filling the table
	// pays: a fill costs about 3 µs for p <= 0.5, as much as some 150
	// logarithms, and more as p nears 1. Below it the table stays 0 and
	// every draw takes the log.
	minTableSamples = 256
)

// fillPassTable sets table[k] to the pass n <= maxPass that
// 1+int(math.Log(1-u)/logP) gives for every u of bucket k, and leaves
// 0 in every bucket that touches a widened threshold or holds a later
// pass. The last bucket always stays 0: its u can round to 1, which
// rand.Float64 redraws. table must be zero on entry.
func fillPassTable(table *[1 << passBits]uint8, logP float64, maxPass int) {
	const scale = 1 << passBits // bucket k spans [k, k+1]/scale
	last := len(table) - 1
	from := 0 // first bucket above threshold n-1, widened
	for n := 1; n <= maxPass && from < last; n++ {
		t := -math.Expm1(float64(n) * logP)
		// Bucket k lies below threshold n, widened, when
		// k+1 < (t-passDelta)*scale, and above it when
		// k > (t+passDelta)*scale. Scaling by a power of two is exact.
		to := min(int(math.Ceil((t-passDelta)*scale))-1, last)
		for k := from; k < to; k++ {
			table[k] = uint8(n)
		}
		from = int(math.Floor((t+passDelta)*scale)) + 1
	}
}

// logPass is the inverse-transform expression the table stands in
// for, on the draw v: u = float64(v)/2^63, redrawn as rand.Float64
// redraws when it rounds to 1.
func logPass(rng *rand.Rand, v int64, logP float64) int {
	u := float64(v) / (1 << 63)
	for u == 1 {
		u = float64(rng.Int63()) / (1 << 63)
	}
	return 1 + int(math.Log(1-u)/logP)
}

// MonteCarloRatio estimates the expected competitive ratio for a target
// at distance x by simulating the per-pass detection coin over the
// materialized trajectory (see passTimes for the tangency convention).
// The caller supplies the rng for reproducibility (the engine job
// seeds it deterministically). Each sample consumes the rng exactly as
// one rng.Float64 does. The sample loop checks ctx every 64 samples.
// Cancellation does not disturb determinism — a run that completes
// consumes exactly the same rng stream regardless of ctx. It is the
// one-distance case of the sampler MonteCarloCurve runs.
func MonteCarloRatio(ctx context.Context, b, p, x float64, samples int, rng *rand.Rand) (float64, error) {
	r, err := passRatios(b, p, x, samples, rng)
	if err != nil {
		return 0, err
	}
	errs := make([]error, 1)
	v := sampleRatios(ctx, p, [][]float64{r}, errs, samples, rng)
	return v[0], errs[0]
}

// curveFloats bounds the pass ratios one MonteCarloCurve run holds
// (2 MiB, and as much again in their pass-major copy). Distances near
// p = 1 need thousands of passes each.
const curveFloats = 1 << 18

// MonteCarloCurve returns, for every distance of xs, the value and the
// error of MonteCarloRatio with a fresh rand.NewSource(seed), in every
// bit. It draws the samples once for all distances: each sample's pass
// n is read once and tₙ(x)/x is added to one compensated sum per
// distance, in sample order, so each distance gets the lone call's
// draws and adds. A distance whose samples need more passes than it
// materialized fails alone; the others keep sampling. A cancelled ctx
// fails every distance still sampling with ctx's error. Distances whose
// ratios outgrow curveFloats are sampled in further runs, each from its
// own fresh source.
func MonteCarloCurve(ctx context.Context, b, p float64, xs []float64, samples int, seed int64) ([]float64, []error) {
	vals := make([]float64, 0, len(xs))
	errs := make([]error, len(xs))
	for lo := 0; lo < len(xs); {
		rng := rand.New(rand.NewSource(seed))
		var ratios [][]float64
		for held := 0; lo+len(ratios) < len(xs) && held < curveFloats; {
			i := lo + len(ratios)
			r, err := passRatios(b, p, xs[i], samples, rng)
			ratios, errs[i] = append(ratios, r), err
			held += len(r)
		}
		vals = append(vals, sampleRatios(ctx, p, ratios, errs[lo:lo+len(ratios)], samples, rng)...)
		lo += len(ratios)
	}
	return vals, errs
}

// passRatios checks one distance's inputs and returns the ratio tₙ/x
// of each materialized pass, divided once instead of once per sample.
func passRatios(b, p, x float64, samples int, rng *rand.Rand) ([]float64, error) {
	if err := validate(b, p); err != nil {
		return nil, err
	}
	if !(x >= 1) || samples < 1 || rng == nil {
		return nil, fmt.Errorf("%w: x %g, samples %d", ErrBadParams, x, samples)
	}
	star, err := Trajectory(b, x, visitsFor(p))
	if err != nil {
		return nil, err
	}
	visits := passTimes(star, x)
	if len(visits) == 0 {
		return nil, fmt.Errorf("pfaulty: trajectory never reaches %g", x)
	}
	for i := range visits {
		visits[i] /= x
	}
	return visits, nil
}

// sampleRatios is the sampler of MonteCarloRatio and MonteCarloCurve:
// ratios[k][n-1] is distance k's ratio at pass n, and every distance
// whose errs[k] is nil on entry gets its mean over the same samples
// draws of rng. Distance k fails on the first sample whose pass exceeds
// len(ratios[k]), as a lone run would stop there. It returns the means
// and sets the errors in errs.
func sampleRatios(ctx context.Context, p float64, ratios [][]float64, errs []error, samples int, rng *rand.Rand) []float64 {
	d := len(ratios)
	sums := make([]float64, d)
	minLen := shortestLive(ratios, errs)
	if minLen == 0 {
		return sums
	}
	maxLen := 0
	for _, r := range ratios {
		maxLen = max(maxLen, len(r))
	}
	// Pass-major rows: row n-1 holds every distance's ratio at pass n,
	// so one sample's adds read one contiguous row and the d
	// independent sums overlap instead of each waiting on its last add.
	// A distance shorter than the row is padded with 0; its sum is
	// dropped once a sample reaches the padding, and so is the sum of a
	// distance that failed before sampling.
	rows := make([]float64, maxLen*d)
	for k, r := range ratios {
		for n, v := range r {
			rows[n*d+k] = v
		}
	}
	logP := math.Log(p)
	var table [1 << passBits]uint8
	if samples >= minTableSamples {
		fillPassTable(&table, logP, min(maxTablePass, maxLen))
	}
	accs := make([]numeric.Kahan, d)
	var acc numeric.Kahan // accs[0] when d == 1: through the slice, that loop runs a third slower
	for s := 0; s < samples; s++ {
		if s%64 == 0 && failAll(ctx, errs) {
			return sums
		}
		// The detecting pass is geometric on {1, 2, ...} with success
		// probability 1-p.
		v := rng.Int63()
		n := int(table[v>>(63-passBits)])
		if n == 0 {
			n = logPass(rng, v, logP)
		}
		if n > minLen && failPass(ratios, errs, n, &minLen) {
			return sums
		}
		if d > 1 {
			addRow(accs, rows, n)
			continue
		}
		acc.Add(rows[n-1])
	}
	if d == 1 {
		accs[0] = acc
	}
	for k := range accs {
		if errs[k] == nil {
			sums[k] = accs[k].Value() / float64(samples)
		}
	}
	return sums
}

// addRow adds row n-1 of the pass-major rows to accs, entry k to
// accs[k]. It stays out of line: inlined, its loop state is carried
// around the one-distance loop too, which then runs some 4% slower.
//
//go:noinline
func addRow(accs []numeric.Kahan, rows []float64, n int) {
	d := len(accs)
	row := rows[(n-1)*d : n*d]
	accs = accs[:len(row)]
	for k, r := range row {
		accs[k].Add(r)
	}
}

// failAll fails every live distance with ctx's error once ctx is done,
// and reports whether it was.
func failAll(ctx context.Context, errs []error) bool {
	err := ctx.Err()
	if err == nil {
		return false
	}
	for k := range errs {
		if errs[k] == nil {
			errs[k] = err
		}
	}
	return true
}

// failPass fails every live distance with fewer than n passes, sets
// *minLen to shortestLive, and reports whether none is left. minLen is
// passed by address so that the sample loop reads it from memory
// instead of carrying it in a register around every draw.
func failPass(ratios [][]float64, errs []error, n int, minLen *int) bool {
	for k, r := range ratios {
		if errs[k] == nil && n > len(r) {
			// p^len(r) < tailProb: astronomically unlikely, but
			// truncating to the last pass would bias the mean down.
			errs[k] = fmt.Errorf("pfaulty: sample needed pass %d of %d materialized (p too close to 1 for the horizon)", n, len(r))
		}
	}
	*minLen = shortestLive(ratios, errs)
	return *minLen == 0
}

// shortestLive returns the fewest passes among the distances that have
// not failed, or 0 when all have.
func shortestLive(ratios [][]float64, errs []error) int {
	shortest := 0
	for k, r := range ratios {
		if errs[k] == nil && (shortest == 0 || len(r) < shortest) {
			shortest = len(r)
		}
	}
	return shortest
}
