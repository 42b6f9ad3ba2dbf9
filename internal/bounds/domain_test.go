package bounds

import (
	"math"
	"slices"
	"testing"
)

// cappedUlps is the widening, in float64 ulps of the served value,
// that TestClosedFormOverCappedDomain allows around the certified
// enclosure of lambda0.
//
// AMKF evaluates mu = exp((q ln q - (q-k) ln(q-k) - k ln k) / k)
// (numeric.PowRatio). The x ln x terms reach 1088 ln 1088 ~ 7,600 at
// q = 64*17 and cancel to a sum of only k ln mu, so the sum carries an
// absolute error of a few ulps of q ln q. Divided by k that is the
// exponent's absolute error, and exp turns it into the same relative
// error of mu: hundreds of ulps where q ln q is large and k is small
// against it. The worst cell of the capped domain
// is (m, k, f) = (62, 15, 10): 245.45910805102631 against a certified
// 245.45910805100885, 614 ulps (7.1e-14 relative) outside the
// enclosure. The line (m = 2) stays within 7 ulps. 1024 ulps (at most
// 2.3e-13 relative) bounds today's error with margin and is still
// several times tighter than the 1e-12 relative tolerance of the
// other float-versus-certified checks.
const cappedUlps = 1024

// ulpsOutside returns how many float64 steps v lies outside [lo, hi]
// (0 inside). All three are positive, so their bit patterns are
// ordered as the values are.
func ulpsOutside(v, lo, hi float64) uint64 {
	switch b := math.Float64bits(v); {
	case v < lo:
		return math.Float64bits(lo) - b
	case v > hi:
		return b - math.Float64bits(hi)
	}
	return 0
}

// ulpsApart returns how many float64 steps separate two positive
// values.
func ulpsApart(a, b float64) uint64 {
	return max(math.Float64bits(a), math.Float64bits(b)) - min(math.Float64bits(a), math.Float64bits(b))
}

// rhoClass is the range of AMKF over the search cells of one exact
// ρ = num/den, the fraction m(f+1)/k in lowest terms.
type rhoClass struct {
	num, den int
	lo, hi   float64
}

// TestClosedFormOverCappedDomain checks the served closed form on every
// cell the service can be asked about: 1 <= m <= 64, 1 <= k <= 16,
// 0 <= f <= 16, the caps boundsd's parameter parsing enforces.
// Classify is total there, and on each search cell:
//   - AMKF lies within cappedUlps of the 128-bit certified enclosure of
//     lambda0(q, k);
//   - RhoForm(q/k), the form Theorem 1 states, lies within cappedUlps of
//     Lambda0(q, k);
//   - AMKF strictly increases with ρ = m(f+1)/k, compared exactly as a
//     fraction: every cell of a larger ρ answers more than every cell of
//     a smaller one. Cells of one ρ may differ by a few ulps, so the
//     relation is between classes, not cells.
func TestClosedFormOverCappedDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates 17,408 cells with a 128-bit enclosure each")
	}
	var cells, search int
	var worst, worstRho uint64
	var worstCell, worstRhoCell [3]int
	classes := make(map[[2]int]*rhoClass)
	for m := 1; m <= 64; m++ {
		for k := 1; k <= 16; k++ {
			for f := 0; f <= 16; f++ {
				cells++
				regime, err := Classify(m, k, f)
				if err != nil {
					t.Fatalf("Classify(%d, %d, %d): %v", m, k, f, err)
				}
				if regime != RegimeSearch {
					continue
				}
				search++
				got, err := AMKF(m, k, f)
				if err != nil {
					t.Fatalf("AMKF(%d, %d, %d): %v", m, k, f, err)
				}
				hp, err := HighPrecisionBound(m*(f+1), k, 128)
				if err != nil {
					t.Fatalf("HighPrecisionBound(%d, %d): %v", m*(f+1), k, err)
				}
				lo, _ := hp.Lambda0.Lo.Float64()
				hi, _ := hp.Lambda0.Hi.Float64()
				d := ulpsOutside(got, lo, hi)
				if d > cappedUlps {
					t.Errorf("AMKF(%d, %d, %d) = %.17g is %d ulps outside the enclosure [%.17g, %.17g]",
						m, k, f, got, d, lo, hi)
				}
				if d > worst {
					worst, worstCell = d, [3]int{m, k, f}
				}

				q := m * (f + 1)
				lambda0, err := Lambda0(float64(q), float64(k))
				if err != nil {
					t.Fatalf("Lambda0(%d, %d): %v", q, k, err)
				}
				rho, err := RhoForm(float64(q) / float64(k))
				if err != nil {
					t.Fatalf("RhoForm(%d/%d): %v", q, k, err)
				}
				d = ulpsApart(rho, lambda0)
				if d > cappedUlps {
					t.Errorf("RhoForm(%d/%d) = %.17g is %d ulps from Lambda0 = %.17g", q, k, rho, d, lambda0)
				}
				if d > worstRho {
					worstRho, worstRhoCell = d, [3]int{m, k, f}
				}

				g := gcd(q, k)
				if c := classes[[2]int{q / g, k / g}]; c == nil {
					classes[[2]int{q / g, k / g}] = &rhoClass{num: q / g, den: k / g, lo: got, hi: got}
				} else {
					c.lo, c.hi = min(c.lo, got), max(c.hi, got)
				}
			}
		}
	}
	ordered := make([]*rhoClass, 0, len(classes))
	for _, c := range classes {
		ordered = append(ordered, c)
	}
	slices.SortFunc(ordered, func(a, b *rhoClass) int { return a.num*b.den - b.num*a.den })
	for i := 1; i < len(ordered); i++ {
		if a, b := ordered[i-1], ordered[i]; !(a.hi < b.lo) {
			t.Errorf("AMKF does not increase from ρ = %d/%d (up to %.17g) to ρ = %d/%d (down to %.17g)",
				a.num, a.den, a.hi, b.num, b.den, b.lo)
		}
	}
	if cells != 17408 || search != 8340 {
		t.Errorf("enumerated %d cells, %d in the search regime; want 17408 and 8340", cells, search)
	}
	t.Logf("%d cells, %d search, %d distinct ρ; AMKF worst %d ulps at (m, k, f) = %v; RhoForm worst %d ulps from Lambda0 at %v",
		cells, search, len(ordered), worst, worstCell, worstRho, worstRhoCell)
}

// gcd returns the greatest common divisor of two positive integers.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
