// Package numeric provides the numerical substrate for the faultysearch
// library: compensated summation, golden-section minimization, log-space
// evaluation of the power ratios that appear in the bounds of
// Kupavskii–Welzl (PODC 2018), exact rational evaluation of the bound
// kernels with certified arbitrary-precision roots, and a small
// directed-rounding interval arithmetic.
//
// The paper's bounds are algebraic expressions such as
//
//	mu(q,k) = (q^q / ((q-k)^(q-k) * k^k))^(1/k)
//
// whose naive float64 evaluation overflows for moderate q (q^q exceeds
// MaxFloat64 already at q = 144). Everything in this package exists so that
// those expressions can be evaluated stably (log space), to arbitrary
// precision (big.Float), or with certified enclosures (big.Rat kernels plus
// certified k-th roots, and outward-rounded float64 intervals).
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// Common errors returned by the solvers.
var (
	// ErrNoConverge is returned when an iterative method exhausts its
	// iteration budget without meeting the requested tolerance.
	ErrNoConverge = errors.New("numeric: iteration did not converge")
	// ErrInvalidDomain is returned when an argument lies outside the
	// mathematical domain of the function.
	ErrInvalidDomain = errors.New("numeric: argument outside domain")
)

// Kahan is a compensated (Kahan–Babuška) accumulator. The zero value is an
// empty sum ready to use. It keeps the running error of long, geometrically
// growing sums of turning points below one ulp of the total, which matters
// when prefix sums of thousands of turning points feed competitive-ratio
// denominators.
type Kahan struct {
	sum float64
	c   float64
}

// Add accumulates x into the sum.
func (k *Kahan) Add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Value returns the current compensated sum.
func (k *Kahan) Value() float64 { return k.sum }

// EqualWithin reports whether a and b agree to within an absolute tolerance
// tol OR a relative tolerance tol (whichever is looser), the usual mixed
// criterion for comparing quantities of unknown magnitude.
func EqualWithin(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// XLogX returns x*log(x) with the continuous extension 0 at x = 0. It is the
// building block of every entropy-like exponent in the paper's bounds.
func XLogX(x float64) float64 {
	switch {
	case x < 0:
		return math.NaN()
	case x == 0:
		return 0
	default:
		return x * math.Log(x)
	}
}

// LogPowRatio returns log of (a^a / (b^b * c^c))^(1/c) evaluated entirely in
// log space:
//
//	(a*log a - b*log b - c*log c) / c.
//
// Callers pass a = q, b = q-k, c = k to obtain log mu(q,k). The b = 0 edge
// (k = q) uses the continuous extension b^b -> 1.
func LogPowRatio(a, b, c float64) (float64, error) {
	if a < 0 || b < 0 || c <= 0 {
		return 0, fmt.Errorf("%w: LogPowRatio(%v, %v, %v)", ErrInvalidDomain, a, b, c)
	}
	return (XLogX(a) - XLogX(b) - XLogX(c)) / c, nil
}

// PowRatio returns (a^a / (b^b * c^c))^(1/c) via LogPowRatio. It is finite
// for all inputs where the log-space exponent is finite, even when a^a alone
// would overflow float64.
func PowRatio(a, b, c float64) (float64, error) {
	lg, err := LogPowRatio(a, b, c)
	if err != nil {
		return 0, err
	}
	return math.Exp(lg), nil
}

// NextUp returns the least float64 greater than x (math.Nextafter toward
// +Inf). NextUp(+Inf) = +Inf.
func NextUp(x float64) float64 {
	if math.IsInf(x, 1) {
		return x
	}
	return math.Nextafter(x, math.Inf(1))
}

// NextDown returns the greatest float64 less than x. NextDown(-Inf) = -Inf.
func NextDown(x float64) float64 {
	if math.IsInf(x, -1) {
		return x
	}
	return math.Nextafter(x, math.Inf(-1))
}
