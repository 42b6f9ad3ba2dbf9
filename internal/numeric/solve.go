package numeric

// Func is a scalar function of one real variable.
type Func func(float64) float64

// GoldenSection minimizes a unimodal function f on [a, b] by golden-section
// search, returning the abscissa of the minimum. It needs no derivatives and
// is used for the alpha-sweep ablation (locating the measured optimum of the
// exponential strategy's base).
func GoldenSection(f Func, a, b, tol float64, maxIter int) (float64, error) {
	if b < a {
		a, b = b, a
	}
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < maxIter; i++ {
		if b-a <= tol {
			return a + (b-a)/2, nil
		}
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return a + (b-a)/2, nil
}
