package numeric

import (
	"fmt"
	"math"
	"math/big"
)

// The math/big package ships arbitrary-precision arithmetic but no
// elementary functions, which is exactly the "weak numeric tooling" gate for
// verifying the paper's bounds to many digits. This file supplies exact
// big.Rat evaluation of the integer bound kernels q^q/((q-k)^(q-k) k^k) and
// certified k-th roots of rationals (Newton iteration followed by an exact
// one-ulp enclosure check).

const guardBits = 48

// RatPowInt returns r^n for a rational r and integer n >= 0, exactly.
func RatPowInt(r *big.Rat, n int) (*big.Rat, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: RatPowInt negative exponent %d", ErrInvalidDomain, n)
	}
	res := big.NewRat(1, 1)
	base := new(big.Rat).Set(r)
	for n > 0 {
		if n&1 == 1 {
			res.Mul(res, base)
		}
		base.Mul(base, base)
		n >>= 1
	}
	return res, nil
}

// MuKernel returns q^q / ((q-k)^(q-k) * k^k) exactly as a rational, for
// integers 0 < k < q. This is mu(q,k)^k from Theorem 6: taking its k-th root
// (see RootK) yields mu(q,k) = (lambda0 - 1)/2 with a certified enclosure.
func MuKernel(q, k int) (*big.Rat, error) {
	if k <= 0 || q <= k {
		return nil, fmt.Errorf("%w: MuKernel requires 0 < k < q, got q=%d k=%d", ErrInvalidDomain, q, k)
	}
	var (
		qq = new(big.Int).Exp(big.NewInt(int64(q)), big.NewInt(int64(q)), nil)
		ss = new(big.Int).Exp(big.NewInt(int64(q-k)), big.NewInt(int64(q-k)), nil)
		kk = new(big.Int).Exp(big.NewInt(int64(k)), big.NewInt(int64(k)), nil)
	)
	den := new(big.Int).Mul(ss, kk)
	return new(big.Rat).SetFrac(qq, den), nil
}

// RootEnclosure is a certified enclosure [Lo, Hi] of a real number, with
// Lo <= x <= Hi guaranteed by exact rational comparisons.
type RootEnclosure struct {
	Lo, Hi *big.Float
}

// Width returns Hi - Lo.
func (e RootEnclosure) Width() *big.Float {
	return new(big.Float).SetPrec(e.Lo.Prec()).Sub(e.Hi, e.Lo)
}

// Float64 returns the midpoint of the enclosure as a float64.
func (e RootEnclosure) Float64() float64 {
	mid := new(big.Float).SetPrec(e.Lo.Prec()).Add(e.Lo, e.Hi)
	mid.Quo(mid, big.NewFloat(2))
	f, _ := mid.Float64()
	return f
}

// RootK returns a certified enclosure of r^(1/k) for a positive rational r
// and k >= 1. It runs Newton's iteration on y^k - r at precision prec, then
// verifies the enclosure exactly: the returned Lo and Hi are adjacent
// dyadic rationals at prec bits with Lo^k <= r <= Hi^k, checked in exact
// big.Rat arithmetic. This replaces "trust the floating point" with a
// machine-checked certificate, which is the point of the numeric substrate.
func RootK(r *big.Rat, k int, prec uint) (RootEnclosure, error) {
	if k < 1 {
		return RootEnclosure{}, fmt.Errorf("%w: RootK order %d", ErrInvalidDomain, k)
	}
	if r.Sign() <= 0 {
		return RootEnclosure{}, fmt.Errorf("%w: RootK of non-positive rational", ErrInvalidDomain)
	}
	work := prec + guardBits
	x := new(big.Float).SetPrec(work).SetRat(r)
	if k == 1 {
		lo := new(big.Float).SetPrec(prec).SetMode(big.ToNegativeInf).SetRat(r)
		hi := new(big.Float).SetPrec(prec).SetMode(big.ToPositiveInf).SetRat(r)
		return RootEnclosure{Lo: lo, Hi: hi}, nil
	}
	// Initial guess from float64 logs (works even when r overflows float64,
	// via the exponent of the big.Float form).
	mant := new(big.Float).SetPrec(64)
	exp := x.MantExp(mant)
	mf, _ := mant.Float64()
	guessLog := (math.Log(mf) + float64(exp)*math.Ln2) / float64(k)
	y := new(big.Float).SetPrec(work)
	n := int(math.Floor(guessLog / math.Ln2))
	y.SetFloat64(math.Exp(guessLog - float64(n)*math.Ln2))
	// Scale the in-range seed by 2^n (SetMantExp multiplies by 2^exp).
	y.SetMantExp(y, n)

	// Newton: y <- ((k-1)y + x / y^(k-1)) / k, doubling correct digits per
	// step; 64 iterations is far beyond what any supported precision needs,
	// serving as a divergence guard.
	var (
		kF   = big.NewFloat(float64(k)).SetPrec(work)
		km1F = big.NewFloat(float64(k - 1)).SetPrec(work)
		tmp  = new(big.Float).SetPrec(work)
		next = new(big.Float).SetPrec(work)
	)
	for i := 0; i < 64; i++ {
		tmp.Set(bigPowInt(y, k-1, work))
		tmp.Quo(x, tmp)
		next.Mul(km1F, y)
		next.Add(next, tmp)
		next.Quo(next, kF)
		if next.Cmp(y) == 0 {
			break
		}
		y.Set(next)
	}

	// Certify: walk y down until y^k <= r, then expand one ulp at a time
	// until (y + ulp)^k >= r. Comparisons are exact via big.Rat. A correct
	// Newton seed leaves the walk within a few dozen ulps; the step cap is
	// a guard against seed regressions (a mis-scaled seed once turned this
	// loop into an effectively infinite walk).
	const maxWalk = 1 << 16
	y.SetPrec(prec)
	lo := new(big.Float).SetPrec(prec).Set(y)
	for i := 0; cmpPowRat(lo, k, r) > 0; i++ {
		if i >= maxWalk {
			return RootEnclosure{}, fmt.Errorf("%w: RootK certification walk diverged (Newton seed off?)", ErrNoConverge)
		}
		bigNextDown(lo)
	}
	hi := new(big.Float).SetPrec(prec).Set(lo)
	for i := 0; cmpPowRat(hi, k, r) < 0; i++ {
		if i >= maxWalk {
			return RootEnclosure{}, fmt.Errorf("%w: RootK certification walk diverged (Newton seed off?)", ErrNoConverge)
		}
		bigNextUp(hi)
	}
	return RootEnclosure{Lo: lo, Hi: hi}, nil
}

// bigPowInt returns y^n for n >= 0 at working precision.
func bigPowInt(y *big.Float, n int, work uint) *big.Float {
	res := big.NewFloat(1).SetPrec(work)
	base := new(big.Float).SetPrec(work).Set(y)
	for n > 0 {
		if n&1 == 1 {
			res.Mul(res, base)
		}
		base.Mul(base, base)
		n >>= 1
	}
	return res
}

// cmpPowRat compares y^k with r exactly. y is a dyadic rational (big.Float),
// so y^k is computed exactly in big.Rat.
func cmpPowRat(y *big.Float, k int, r *big.Rat) int {
	yr, _ := y.Rat(nil)
	p, _ := RatPowInt(yr, k)
	return p.Cmp(r)
}

// bigNextUp advances x by one unit in the last place of its precision.
func bigNextUp(x *big.Float) {
	ulp := ulpOf(x)
	x.Add(x, ulp)
}

// bigNextDown retreats x by one unit in the last place of its precision.
func bigNextDown(x *big.Float) {
	ulp := ulpOf(x)
	x.Sub(x, ulp)
}

// ulpOf returns one unit in the last place of x at x's precision.
func ulpOf(x *big.Float) *big.Float {
	exp := x.MantExp(nil)
	u := new(big.Float).SetPrec(x.Prec()).SetInt64(1)
	u.SetMantExp(u, exp-int(x.Prec()))
	return u
}

// BigMu returns a certified enclosure of mu(q,k) = (q^q/((q-k)^(q-k) k^k))^(1/k)
// for integers 0 < k < q, to prec bits.
func BigMu(q, k int, prec uint) (RootEnclosure, error) {
	kern, err := MuKernel(q, k)
	if err != nil {
		return RootEnclosure{}, err
	}
	return RootK(kern, k, prec)
}

// BigLambda0 returns a certified enclosure of the competitive-ratio bound
// lambda0(q,k) = 2*mu(q,k) + 1 of Theorem 6, to prec bits.
func BigLambda0(q, k int, prec uint) (RootEnclosure, error) {
	mu, err := BigMu(q, k, prec+2)
	if err != nil {
		return RootEnclosure{}, err
	}
	two := big.NewFloat(2).SetPrec(prec + 2)
	one := big.NewFloat(1).SetPrec(prec + 2)
	lo := new(big.Float).SetPrec(prec+2).Mul(mu.Lo, two)
	lo.Add(lo, one)
	hi := new(big.Float).SetPrec(prec+2).Mul(mu.Hi, two)
	hi.Add(hi, one)
	return RootEnclosure{Lo: lo.SetPrec(prec), Hi: hi.SetPrec(prec)}, nil
}
