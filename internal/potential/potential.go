// Package potential implements the potential-function machinery of the
// lower-bound proofs in Kupavskii–Welzl (PODC 2018) as an executable,
// certificate-producing engine.
//
// The proofs of Theorem 3 (line, s-fold ±-covering) and Eq. (10) (ORC,
// q-fold covering) share one skeleton. Accumulate all robots' assigned
// intervals sorted by left endpoint; walk prefixes P, maintaining each
// robot's load L_r (sum of its processed turning points) and the frontier
// multiset A(P); and track a product potential f(P):
//
//	symmetric (Eq. 7):  f(P) = prod_r [ L_r^s / prod_{y in A} y ]
//	ORC       (Eq. 15): f(P) = prod_r [ L_r^(q-k) * b_r^k / prod_{y in A} y ]
//
// where b_r is the left endpoint of robot r's next unprocessed interval.
// Adding one interval multiplies f by mu*^s / (x^s (mu*-x)^k) (with
// s = q-k in the ORC form), which by Lemmas 4 and 5 is at least
//
//	delta = (k+s)^(k+s) / (s^s k^k mu^k)
//
// for every step — and delta > 1 exactly when mu = (lambda-1)/2 is below
// the critical mu(k+s, k). Since f(P) is also bounded (Eq. 8 / Case 1),
// a strategy claiming a competitive ratio below the bound runs into a
// contradiction after finitely many intervals. One engine replays this
// argument for both settings on concrete assignments and reports the step
// where the contradiction materializes, yielding a machine-checkable
// refutation.
package potential

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bounds"
	"repro/internal/cover"
)

// Errors returned by the engine.
var (
	// ErrBadParams is returned for invalid engine parameters.
	ErrBadParams = errors.New("potential: invalid parameters")
	// ErrInvalidStep is returned when an assigned interval violates the
	// covering inequalities (Eq. 5) or the frontier invariant — evidence
	// that the claimed covering is not actually valid.
	ErrInvalidStep = errors.New("potential: assigned interval violates covering constraints")
	// ErrPrefixTooShort is returned when the engine cannot start because
	// some robot contributes no intervals.
	ErrPrefixTooShort = errors.New("potential: some robot has no assigned intervals in the prefix")
)

// Verdict classifies the outcome of running the engine over an assignment.
type Verdict int

const (
	// VerdictContradiction: f(P) exceeded its a-priori bound, refuting the
	// claimed competitive ratio (the paper's lower-bound conclusion).
	VerdictContradiction Verdict = iota + 1
	// VerdictExhausted: lambda is below the bound (delta > 1) and f(P)
	// grew monotonically, but the finite prefix ended before crossing the
	// bound; the certificate reports how many more steps are needed.
	VerdictExhausted
	// VerdictBounded: lambda is at or above the bound (delta <= 1); f(P)
	// stayed below its cap, as the theory predicts for valid ratios.
	VerdictBounded
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictContradiction:
		return "contradiction"
	case VerdictExhausted:
		return "exhausted"
	case VerdictBounded:
		return "bounded"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Certificate summarizes an engine run: the paper's lower-bound argument
// instantiated on one concrete covering attempt.
type Certificate struct {
	// Setting is "symmetric" or "orc".
	Setting string
	// K is the robot count; Fold is s (symmetric) or q (ORC).
	K, Fold int
	// Lambda is the claimed competitive ratio; Mu = (Lambda-1)/2.
	Lambda, Mu float64
	// MuCrit is the critical mu(k+s,k) (symmetric) or mu(q,k) (ORC).
	MuCrit float64
	// Delta is Lemma 5's guaranteed per-step growth factor.
	Delta float64
	// LogFBound is the a-priori cap on ln f(P).
	LogFBound float64
	// Steps is the number of intervals processed after warmup.
	Steps int
	// WarmupSteps is the number of intervals consumed before every robot
	// had positive load.
	WarmupSteps int
	// LogFStart and LogFEnd bracket the observed potential growth.
	LogFStart, LogFEnd float64
	// MinStepRatio is the minimum observed per-step growth factor after
	// warmup (>= Delta up to float tolerance, by Lemma 5).
	MinStepRatio float64
	// ContradictionStep is the post-warmup step index at which ln f(P)
	// first exceeded LogFBound, or -1.
	ContradictionStep int
	// Verdict classifies the run.
	Verdict Verdict
	// StepsNeeded estimates, for VerdictExhausted, how many further steps
	// would reach the contradiction at the guaranteed growth rate.
	StepsNeeded int
	// MaxSteps is the theorem's quantitative content when Delta > 1: no
	// valid covering can extend past this many post-warmup assigned
	// intervals, because f(P) grows by at least Delta per step while
	// capped at LogFBound. 0 when Delta <= 1 or the run never warmed up.
	MaxSteps int
	// GapDetail is non-empty when the refutation came from an outright
	// coverage gap (a point not covered in time), the most direct form of
	// contradiction.
	GapDetail string
	// Sub holds the certificate of the recursive (k-1, q-1) argument when
	// the ORC run hit Case 2 of the proof.
	Sub *Certificate
}

// frontier is the multiset A(P), kept sorted, with an incrementally
// maintained sum of logarithms.
type frontier struct {
	vals   []float64
	logSum float64
}

// newFrontier returns n frontier values at 1 (log sum 0).
func newFrontier(n int) *frontier {
	f := &frontier{vals: make([]float64, n)}
	for i := range f.vals {
		f.vals[i] = 1
	}
	return f
}

func (f *frontier) min() float64 { return f.vals[0] }

// replaceMin replaces the minimum by v, updating the log sum.
func (f *frontier) replaceMin(v float64) {
	f.logSum -= math.Log(f.vals[0])
	f.logSum += math.Log(v)
	i := sort.SearchFloat64s(f.vals[1:], v)
	copy(f.vals, f.vals[1:i+1])
	f.vals[i] = v
}

// setting is one of the proof's two covering problems: k robots that
// cover every point fold times, and s, the exponent of each load L_r in
// f(P). Theorem 3 has fold = s; Eq. (15) has fold = q and s = q-k.
type setting struct {
	name       string
	k, fold, s int
}

func symmetric(k, s int) setting { return setting{"symmetric", k, s, s} }
func orc(k, q int) setting       { return setting{"orc", k, q, q - k} }

// certificate opens the certificate of st at ratio lambda: mu, the
// critical mu(k+s, k) and Lemma 5's delta. Outside their domain (s < 1,
// an ORC gap with q <= k) MuCrit is 0 and Delta NaN.
func (st setting) certificate(lambda float64) Certificate {
	mu := (lambda - 1) / 2
	muCrit, _ := bounds.MuQK(float64(st.k+st.s), float64(st.k))
	delta, err := bounds.Lemma5Delta(mu, float64(st.s), float64(st.k))
	if err != nil {
		delta = math.NaN()
	}
	return Certificate{Setting: st.name, K: st.k, Fold: st.fold, Lambda: lambda, Mu: mu, MuCrit: muCrit, Delta: delta}
}

// checkRun validates what both settings require: lambda > 1 and every
// assigned interval's robot one of k.
func checkRun(assigned []cover.Assigned, k int, lambda float64) error {
	if !(lambda > 1) {
		return fmt.Errorf("%w: lambda=%g", ErrBadParams, lambda)
	}
	for _, a := range assigned {
		if a.Robot < 0 || a.Robot >= k {
			return fmt.Errorf("%w: robot %d of %d", ErrBadParams, a.Robot, k)
		}
	}
	return nil
}

// engine replays the potential argument of both settings on an
// assignment ordered by TPrime. Beyond the setting's fold and s, the two
// proofs differ in two places:
//
//   - the reference point ref a step is measured at: the interval start
//     t' (Eq. 5) or the robot's next start b' (Eq. 14). Both checks are
//     L + t <= mu*ref;
//   - the b_r term of Eq. (15), which only the ORC setting has: nextBeg
//     holds b_r there and is nil in the symmetric setting.
type engine struct {
	cert       Certificate
	s          float64
	loads      []float64
	logLoad    []float64
	zeroCnt    int
	front      *frontier
	nextBeg    []float64
	logNextSum float64
}

// newEngine starts a replay of st at ratio lambda. firstBeg holds each
// robot's first b_r in the ORC setting and is nil in the symmetric one.
func newEngine(st setting, lambda float64, firstBeg []float64) *engine {
	e := &engine{
		cert:    st.certificate(lambda),
		s:       float64(st.s),
		loads:   make([]float64, st.k),
		logLoad: make([]float64, st.k),
		zeroCnt: st.k,
		front:   newFrontier(st.fold),
		nextBeg: firstBeg,
	}
	e.cert.ContradictionStep, e.cert.MinStepRatio = -1, math.Inf(1)
	for _, b := range firstBeg {
		e.logNextSum += math.Log(b)
	}
	return e
}

// logF returns ln f(P) (Eq. 7, or Eq. 15 with its b_r term), defined once
// every load is positive.
func (e *engine) logF() (float64, bool) {
	if e.zeroCnt > 0 {
		return math.NaN(), false
	}
	sumLoads := 0.0
	for _, l := range e.logLoad {
		sumLoads += l
	}
	k := float64(e.cert.K)
	logF := e.s * sumLoads
	if e.nextBeg != nil {
		logF += k * e.logNextSum
	}
	return logF - k*e.front.logSum, true
}

// step replays one assigned interval measured at ref. It checks the
// frontier invariant (the interval must begin at the current a(P)) and
// L + t <= mu*ref, updates the loads, b_r and the frontier, and accounts
// the step in the certificate.
func (e *engine) step(a cover.Assigned, ref float64) error {
	const tol = 1e-9
	front := e.front.min()
	if math.Abs(a.TPrime-front) > tol*math.Max(1, front) {
		return fmt.Errorf("%w: interval starts at %.12g but the frontier is %.12g",
			ErrInvalidStep, a.TPrime, front)
	}
	load := e.loads[a.Robot]
	newLoad := load + a.Turn
	// Violation means the robot cannot actually lambda-cover up to the
	// interval's turn in time.
	if bound := e.cert.Mu * ref; newLoad > bound+tol*math.Max(1, bound) {
		return fmt.Errorf("%w: robot %d load %.12g exceeds mu*%.12g = %.12g",
			ErrInvalidStep, a.Robot, newLoad, ref, bound)
	}

	muStar, x, logRatio := newLoad/ref, load/ref, math.Inf(1)
	if load > 0 {
		logRatio = e.s*math.Log(muStar) - e.s*math.Log(x) - float64(e.cert.K)*math.Log(muStar-x)
	} else if load == 0 {
		e.zeroCnt--
	}
	e.loads[a.Robot] = newLoad
	e.logLoad[a.Robot] = math.Log(newLoad)
	if e.nextBeg != nil {
		e.logNextSum += math.Log(ref) - math.Log(e.nextBeg[a.Robot])
		e.nextBeg[a.Robot] = ref
	}
	e.front.replaceMin(a.Turn)

	c := &e.cert
	logF, defined := e.logF()
	if !defined {
		c.WarmupSteps++
		return nil
	}
	if c.Steps == 0 {
		c.LogFStart = logF
	}
	c.Steps++
	c.LogFEnd = logF
	if !math.IsInf(logRatio, 1) {
		if ratio := math.Exp(logRatio); ratio < c.MinStepRatio {
			c.MinStepRatio = ratio
		}
	}
	if c.ContradictionStep < 0 && logF > c.LogFBound {
		c.ContradictionStep = c.Steps - 1
	}
	return nil
}

// checkSymmetric validates Theorem 3's parameters, 1 <= s <= k, and
// checkRun's.
func checkSymmetric(assigned []cover.Assigned, k, s int, lambda float64) error {
	if k < 1 || s < 1 || s > k {
		return fmt.Errorf("%w: k=%d s=%d (need 1 <= s <= k)", ErrBadParams, k, s)
	}
	return checkRun(assigned, k, lambda)
}

// RunSymmetric replays the whole assignment through the Theorem 3
// potential (k robots, s-fold ±-covering at ratio lambda) and assembles
// the certificate. Requires 1 <= s <= k and lambda > 1. The assignment
// must be ordered by TPrime (as produced by cover.ExactAssignment with
// q = s).
func RunSymmetric(assigned []cover.Assigned, k, s int, lambda float64) (Certificate, error) {
	if err := checkSymmetric(assigned, k, s, lambda); err != nil {
		return Certificate{}, err
	}
	e := newEngine(symmetric(k, s), lambda, nil)
	// Eq. (8): ln f(P) <= k*s*ln(mu).
	e.cert.LogFBound = float64(k*s) * math.Log(e.cert.Mu)
	for _, a := range assigned {
		if err := e.step(a, a.TPrime); err != nil {
			return e.cert, err
		}
	}
	if e.zeroCnt > 0 {
		return e.cert, fmt.Errorf("%w: %d of %d robots appeared", ErrPrefixTooShort, k-e.zeroCnt, k)
	}
	finalizeCertificate(&e.cert)
	return e.cert, nil
}

// finalizeCertificate derives the verdict and the step-budget estimates.
func finalizeCertificate(cert *Certificate) {
	if cert.Delta > 1 && cert.Steps > 0 {
		budget := cert.LogFBound - cert.LogFStart
		cert.MaxSteps = int(math.Ceil(budget / math.Log(cert.Delta)))
		if cert.MaxSteps < 0 {
			cert.MaxSteps = 0
		}
	}
	switch {
	case cert.ContradictionStep >= 0:
		cert.Verdict = VerdictContradiction
	case cert.Delta > 1:
		cert.Verdict = VerdictExhausted
		if cert.Steps > 0 {
			gap := cert.LogFBound - cert.LogFEnd
			cert.StepsNeeded = int(math.Ceil(gap/math.Log(cert.Delta))) + 1
			if cert.StepsNeeded < 0 {
				cert.StepsNeeded = 0
			}
		}
	default:
		cert.Verdict = VerdictBounded
	}
}

// RefuteSymmetricStrategy runs the whole Theorem 3 pipeline against a
// concrete collective line strategy: extract the lambda-covering intervals
// of each robot's turning sequence, build the exact-s assignment over
// (1, upTo], and replay the potential argument. A VerdictContradiction
// certificate is a machine-checked proof that THIS strategy does not s-fold
// ±-cover at ratio lambda; an ErrCoverageGap from the assignment phase is
// an even more direct refutation (a point is simply not covered in time),
// which is reported as a contradiction certificate with Steps = 0.
// Requires 1 <= s <= len(turnsPerRobot) and lambda > 1.
func RefuteSymmetricStrategy(turnsPerRobot [][]float64, s int, lambda, upTo float64) (Certificate, error) {
	k := len(turnsPerRobot)
	if err := checkSymmetric(nil, k, s, lambda); err != nil {
		return Certificate{}, err
	}
	return refute(turnsPerRobot, symmetric(k, s), lambda, upTo, cover.SymmetricCovIntervals,
		func(assigned []cover.Assigned) (Certificate, error) { return RunSymmetric(assigned, k, s, lambda) })
}

// refute is the pipeline both refuters share: extract every robot's
// covering intervals at ratio lambda, build the exact fold-fold
// assignment over (1, upTo], and replay it with run. A coverage gap needs
// no potential argument: a point is simply not covered often enough in
// time, so it becomes a contradiction certificate with Steps = 0.
func refute(turnsPerRobot [][]float64, st setting, lambda, upTo float64,
	intervals func(robot int, turns []float64, lambda float64) ([]cover.Interval, error),
	run func([]cover.Assigned) (Certificate, error)) (Certificate, error) {
	var all []cover.Interval
	for r, turns := range turnsPerRobot {
		ivs, err := intervals(r, turns, lambda)
		if err != nil {
			return Certificate{}, fmt.Errorf("potential: robot %d: %w", r, err)
		}
		all = append(all, ivs...)
	}
	assigned, err := cover.ExactAssignment(all, st.fold, upTo)
	if errors.Is(err, cover.ErrCoverageGap) {
		cert := st.certificate(lambda)
		cert.Verdict, cert.GapDetail = VerdictContradiction, err.Error()
		return cert, nil
	}
	if err != nil {
		return Certificate{}, err
	}
	return run(assigned)
}
