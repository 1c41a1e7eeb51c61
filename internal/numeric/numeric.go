// Package numeric provides the small numerical kernel shared by the
// scheduling algorithms: compensated summation, bracketing
// one-dimensional minimization and root finding.
//
// Everything here is dependency-free and deterministic; the schedulers,
// the convex optimizer, and the power-model curve fitter are all built on
// top of these primitives.
package numeric

import (
	"errors"
	"math"
)

// KahanSum accumulates floating-point values with compensated
// (Kahan-Babuska) summation, which keeps the error independent of the
// number of addends. The zero value is ready to use.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated total.
func (k *KahanSum) Value() float64 { return k.sum + k.c }

// Sum returns the compensated sum of xs.
func Sum(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Value()
}

// ErrNoBracket is returned by Bisect when f(a) and f(b) have the same sign.
var ErrNoBracket = errors.New("numeric: root not bracketed")

// Bisect finds a root of f on [a, b] with f(a) and f(b) of opposite sign,
// to within x-tolerance tol.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	if a > b {
		a, b = b, a
	}
	if tol <= 0 {
		tol = 1e-12
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, ErrNoBracket
	}
	for b-a > tol {
		mid := a + (b-a)/2
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (fa > 0) {
			a, fa = mid, fm
		} else {
			b = mid
		}
	}
	return a + (b-a)/2, nil
}

// MinimizeConvex1D minimizes a convex differentiable function given its
// derivative df on [a, b]. It first checks the endpoints' derivative signs
// (a convex function with df(a) >= 0 is minimized at a, and with
// df(b) <= 0 at b) and otherwise bisects the derivative to the stationary
// point. tol is the x-tolerance.
func MinimizeConvex1D(df func(float64) float64, a, b, tol float64) float64 {
	if a > b {
		a, b = b, a
	}
	if df(a) >= 0 {
		return a
	}
	if df(b) <= 0 {
		return b
	}
	x, err := Bisect(df, a, b, tol)
	if err != nil {
		// Sign change was verified above, so this is unreachable unless f
		// is non-deterministic; fall back to the midpoint.
		return a + (b-a)/2
	}
	return x
}
