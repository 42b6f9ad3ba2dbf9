// Package bounds implements every closed-form quantity in Kupavskii–Welzl,
// "Lower Bounds for Searching Robots, some Faulty" (PODC 2018):
//
//   - Theorem 1: A(k,f), the optimal competitive ratio for k robots on the
//     line with f crash-faulty robots;
//   - Theorem 3: the s-fold ±-covering bound (same kernel as Theorem 1);
//   - Theorem 6 / Eq. (9): A(m,k,f) for m rays, with q = m(f+1);
//   - Eq. (10): the ORC covering bound C(k,q);
//   - Eq. (11): the fractional bound C(eta);
//   - Lemmas 4 and 5 (the polynomial maximization underlying everything);
//   - the appendix's optimal exponential base alpha* = (q/(q-k))^(1/k);
//   - the Byzantine transfer B(k,f) >= A(k,f), including the paper's
//     improved B(3,1) >= (8/3)*4^(1/3) + 1 ~ 5.23;
//   - beside the paper, the shoreline model's spread-ray ratio
//     sec((f+1)*pi/k), served by the shoreline scenario.
//
// All evaluations go through log space (internal/numeric.PowRatio), so they
// are finite whenever the mathematical value is, even when q^q would
// overflow float64. High-precision certified versions are available through
// HighPrecision (backed by exact big.Rat kernels and certified k-th roots).
package bounds

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Regime classifies a parameter triple (m, k, f) into the paper's cases.
type Regime int

const (
	// RegimeUnsolvable: f >= k; all robots may be faulty, the target can
	// never be confirmed (competitive ratio +Inf).
	RegimeUnsolvable Regime = iota + 1
	// RegimeTrivial: k >= m(f+1); sending f+1 robots down each ray gives
	// competitive ratio exactly 1.
	RegimeTrivial
	// RegimeSearch: f < k < m(f+1); the interesting regime where Theorem 6
	// applies and the ratio is lambda0.
	RegimeSearch
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case RegimeUnsolvable:
		return "unsolvable"
	case RegimeTrivial:
		return "trivial"
	case RegimeSearch:
		return "search"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// Errors returned by the bound evaluators.
var (
	// ErrUnsolvable is returned when f >= k (all robots may be faulty).
	ErrUnsolvable = errors.New("bounds: all robots may be faulty (f >= k); target cannot be confirmed")
	// ErrInvalidParams is returned for nonsensical parameters (m < 1,
	// k < 1, f < 0, eta <= 1 where a strict inequality is required, ...).
	ErrInvalidParams = errors.New("bounds: invalid parameters")
)

// Classify returns the regime of searching m rays with k robots, f faulty.
func Classify(m, k, f int) (Regime, error) {
	if m < 1 || k < 1 || f < 0 {
		return 0, fmt.Errorf("%w: m=%d k=%d f=%d", ErrInvalidParams, m, k, f)
	}
	switch {
	case f >= k:
		return RegimeUnsolvable, nil
	case k >= m*(f+1):
		return RegimeTrivial, nil
	default:
		return RegimeSearch, nil
	}
}

// MuQK returns mu(q,k) = (q^q / ((q-k)^(q-k) * k^k))^(1/k) for real
// arguments 0 < k < q. lambda0 = 2*mu + 1. The function is scale-invariant:
// mu(cq, ck) = mu(q, k) for all c > 0.
func MuQK(q, k float64) (float64, error) {
	if !(k > 0 && q > k) {
		return 0, fmt.Errorf("%w: MuQK requires 0 < k < q, got q=%g k=%g", ErrInvalidParams, q, k)
	}
	return numeric.PowRatio(q, q-k, k)
}

// Lambda0 returns the competitive-ratio bound 2*mu(q,k) + 1 of Theorem 6
// for real 0 < k < q.
func Lambda0(q, k float64) (float64, error) {
	mu, err := MuQK(q, k)
	if err != nil {
		return 0, err
	}
	return 2*mu + 1, nil
}

// RhoForm returns 2*rho^rho/(rho-1)^(rho-1) + 1 for rho > 1, the form in
// which Theorem 1 states the bound (rho = q/k). It equals Lambda0(q,k)
// whenever rho = q/k, by the scale invariance of mu.
func RhoForm(rho float64) (float64, error) {
	if rho <= 1 {
		return 0, fmt.Errorf("%w: RhoForm requires rho > 1, got %g", ErrInvalidParams, rho)
	}
	// rho^rho/(rho-1)^(rho-1) = exp(rho*ln rho - (rho-1)*ln(rho-1)).
	return 2*math.Exp(numeric.XLogX(rho)-numeric.XLogX(rho-1)) + 1, nil
}

// AKF returns A(k, f), the optimal competitive ratio for searching the line
// (Theorem 1): k robots, f of them crash-faulty.
//
//   - f >= k: ErrUnsolvable;
//   - k >= 2(f+1) (s <= 0): ratio 1 (send f+1 robots each way);
//   - otherwise: 2*((k+s)^(k+s)/(s^s k^k))^(1/k) + 1 with s = 2(f+1)-k.
func AKF(k, f int) (float64, error) {
	return AMKF(2, k, f)
}

// AMKF returns A(m, k, f), the optimal competitive ratio for searching m
// rays (Theorem 6): k robots, f crash-faulty, q = m(f+1).
func AMKF(m, k, f int) (float64, error) {
	regime, err := Classify(m, k, f)
	if err != nil {
		return 0, err
	}
	switch regime {
	case RegimeUnsolvable:
		return math.Inf(1), ErrUnsolvable
	case RegimeTrivial:
		return 1, nil
	default:
		return Lambda0(float64(m*(f+1)), float64(k))
	}
}

// CKQ returns the bound of Eq. (10): the infimum competitive ratio for
// q-fold lambda-covering of R>=1 with k robots in the one-ray-cover-with-
// returns (ORC) setting, which the paper proves equals lambda0(q,k).
func CKQ(k, q int) (float64, error) {
	if k < 1 || q <= k {
		return 0, fmt.Errorf("%w: CKQ requires 1 <= k < q, got k=%d q=%d", ErrInvalidParams, k, q)
	}
	return Lambda0(float64(q), float64(k))
}

// CEta returns C(eta) = 2*eta^eta/(eta-1)^(eta-1) + 1 of Eq. (11), the
// competitive ratio of fractional one-ray retrieval with returns, for
// eta > 1. (At eta = 1 the formula's limit is 3 while a single sweep
// achieves 1; the formula is stated for the genuinely fractional regime.)
func CEta(eta float64) (float64, error) {
	if eta <= 1 {
		return 0, fmt.Errorf("%w: CEta requires eta > 1, got %g", ErrInvalidParams, eta)
	}
	return RhoForm(eta)
}

// Rho returns rho = m(f+1)/k, the single parameter the bound depends on.
func Rho(m, k, f int) (float64, error) {
	if m < 1 || k < 1 || f < 0 {
		return 0, fmt.Errorf("%w: m=%d k=%d f=%d", ErrInvalidParams, m, k, f)
	}
	return float64(m*(f+1)) / float64(k), nil
}

// SlackS returns s = 2(f+1) - k, the line-case excess of Theorem 1.
func SlackS(k, f int) int { return 2*(f+1) - k }

// OptimalAlpha returns the base alpha* = (q/(q-k))^(1/k) of the appendix's
// cyclic exponential strategy, the unique minimizer of alpha^q/(alpha^k-1)
// over alpha > 1. Requires 0 < k < q.
func OptimalAlpha(q, k int) (float64, error) {
	if k < 1 || q <= k {
		return 0, fmt.Errorf("%w: OptimalAlpha requires 1 <= k < q, got q=%d k=%d", ErrInvalidParams, q, k)
	}
	return math.Pow(float64(q)/float64(q-k), 1/float64(k)), nil
}

// ExpStrategyRatio returns the competitive ratio 2*alpha^q/(alpha^k-1) + 1
// achieved by the appendix's cyclic exponential strategy with base alpha on
// the q = m(f+1) covering problem with k robots. Minimized at OptimalAlpha,
// where it equals lambda0(q,k).
func ExpStrategyRatio(alpha float64, q, k int) (float64, error) {
	if alpha <= 1 {
		return 0, fmt.Errorf("%w: ExpStrategyRatio requires alpha > 1, got %g", ErrInvalidParams, alpha)
	}
	if k < 1 || q <= k {
		return 0, fmt.Errorf("%w: ExpStrategyRatio requires 1 <= k < q, got q=%d k=%d", ErrInvalidParams, q, k)
	}
	lg := float64(q)*math.Log(alpha) - math.Log(math.Pow(alpha, float64(k))-1)
	return 2*math.Exp(lg) + 1, nil
}

// Lemma4ArgMax returns x* = s*mu/(k+s), the maximizer of x^s (mu-x)^k over
// (0, mu) established by Lemma 4.
func Lemma4ArgMax(mu, s, k float64) (float64, error) {
	if mu <= 0 || s <= 0 || k <= 0 {
		return 0, fmt.Errorf("%w: Lemma4ArgMax(mu=%g, s=%g, k=%g)", ErrInvalidParams, mu, s, k)
	}
	return s * mu / (k + s), nil
}

// Lemma4Value returns x^s * (mu-x)^k evaluated in log space (finite for all
// 0 < x < mu even when the direct product would under/overflow).
func Lemma4Value(x, mu, s, k float64) (float64, error) {
	if !(x > 0 && x < mu) {
		return 0, fmt.Errorf("%w: Lemma4Value requires 0 < x < mu", ErrInvalidParams)
	}
	return math.Exp(s*math.Log(x) + k*math.Log(mu-x)), nil
}

// Lemma5Delta returns delta = (k+s)^(k+s) / (s^s * k^k * mu^k), the uniform
// per-step growth factor of the potential function from Lemma 5. The lemma
// guarantees delta > 1 exactly when mu < mu(k+s, k), i.e. when the claimed
// competitive ratio is below the Theorem 3 bound.
func Lemma5Delta(mu, s, k float64) (float64, error) {
	if mu <= 0 || s <= 0 || k <= 0 {
		return 0, fmt.Errorf("%w: Lemma5Delta(mu=%g, s=%g, k=%g)", ErrInvalidParams, mu, s, k)
	}
	lg := numeric.XLogX(k+s) - numeric.XLogX(s) - numeric.XLogX(k) - k*math.Log(mu)
	return math.Exp(lg), nil
}

// B31Improved returns the paper's improved bound B(3,1) >= (8/3)*4^(1/3)+1
// (~5.2333), quoted in the introduction against the prior bound 3.93.
func B31Improved() float64 {
	return 8.0/3.0*math.Cbrt(4) + 1
}

// B31Prior is the previously best known lower bound for B(3,1), from
// Czyzowitz et al., ISAAC 2016 (reference [13] of the paper).
const B31Prior = 3.93

// SingleRobotMRays returns 1 + 2*m^m/(m-1)^(m-1), the classical optimal
// ratio for one robot searching m rays (Baeza-Yates–Culberson–Rawlins);
// m = 2 gives the cow-path constant 9. It coincides with AMKF(m, 1, 0).
func SingleRobotMRays(m int) (float64, error) {
	if m < 2 {
		return 0, fmt.Errorf("%w: SingleRobotMRays requires m >= 2, got %d", ErrInvalidParams, m)
	}
	return RhoForm(float64(m))
}

// Shoreline returns sec((f+1)*pi/k), the worst-case ratio of k robots
// on equally spread planar rays searching for a line (a shoreline) of
// unknown distance and orientation while f of them crash silently
// (Acharjee–Georgiou–Kundu–Srinivasan): the adversary's shoreline
// normal lands in the widest angular gap of f+1 consecutive headings,
// and equal spacing minimizes that gap. It is finite exactly when
// k > 2(f+1); with fewer rays some shoreline direction sits at least
// pi/2 from every heading of some f+1 of them.
func Shoreline(k, f int) (float64, error) {
	if k < 1 || f < 0 {
		return 0, fmt.Errorf("%w: shoreline k=%d f=%d", ErrInvalidParams, k, f)
	}
	if k <= 2*(f+1) {
		return 0, fmt.Errorf("%w: shoreline needs k > 2(f+1) spread rays, got k=%d f=%d", ErrInvalidParams, k, f)
	}
	return 1 / math.Cos(float64(f+1)*math.Pi/float64(k)), nil
}

// HighPrecision holds certified enclosures for the bound values of a search
// problem, computed via exact rational kernels and certified k-th roots.
type HighPrecision struct {
	// Mu encloses mu(q, k).
	Mu numeric.RootEnclosure
	// Lambda0 encloses 2*mu + 1.
	Lambda0 numeric.RootEnclosure
}

// HighPrecisionBound returns certified enclosures of mu(q,k) and
// lambda0(q,k) at prec bits, for integers 0 < k < q.
func HighPrecisionBound(q, k int, prec uint) (HighPrecision, error) {
	mu, err := numeric.BigMu(q, k, prec)
	if err != nil {
		return HighPrecision{}, fmt.Errorf("bounds: high-precision mu: %w", err)
	}
	l0, err := numeric.BigLambda0(q, k, prec)
	if err != nil {
		return HighPrecision{}, fmt.Errorf("bounds: high-precision lambda0: %w", err)
	}
	return HighPrecision{Mu: mu, Lambda0: l0}, nil
}
