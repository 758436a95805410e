// Package numeric provides the numerical building blocks of the U-tree
// reproduction: a fixed Gauss–Legendre quadrature rule, robust bisection
// root finding and the standard normal distribution. The Monte-Carlo
// estimator of the paper's Equation 3 is updf.MonteCarloProb.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned by Bisect when f(lo) and f(hi) do not bracket a
// root.
var ErrNoBracket = errors.New("numeric: root not bracketed")

// glNodes and glWeights are the non-negative half of the 24-point
// Gauss–Legendre rule on [−1, 1] (the rule is symmetric), found at start-up
// by Newton's method on the Legendre polynomial P₂₄.
var glNodes, glWeights = legendreRule()

func legendreRule() (x, w [12]float64) {
	const n = 24
	for i := range x {
		z := math.Cos(math.Pi * (float64(i) + 0.75) / (n + 0.5))
		var dp float64
		for range 100 {
			p, prev := 1.0, 0.0 // P_j(z), P_{j−1}(z)
			for j := 1.0; j <= n; j++ {
				p, prev = ((2*j-1)*z*p-(j-1)*prev)/j, p
			}
			dp = n * (z*p - prev) / (z*z - 1)
			dz := p / dp
			if z -= dz; math.Abs(dz) <= 1e-16 {
				break
			}
		}
		x[i], w[i] = z, 2/((1-z*z)*dp*dp)
	}
	return x, w
}

// GaussLegendre integrates f over [a, b] with the 24-point Gauss–Legendre
// rule on each of n equal panels (n < 1 counts as 1). The rule is exact for
// polynomials of degree 47 and converges geometrically on a panel where f is
// analytic, so callers split [a, b] where f has a kink or a square-root end
// and pick n so that no panel is wide against f's narrowest feature. It
// makes n·24 calls of f and allocates nothing.
func GaussLegendre(f func(float64) float64, a, b float64, n int) float64 {
	n = max(n, 1)
	h := (b - a) / float64(n) / 2
	var v float64
	for k := 0; k < n; k++ {
		m := a + (2*float64(k)+1)*h
		for i, x := range glNodes {
			v += glWeights[i] * (f(m-h*x) + f(m+h*x))
		}
	}
	return v * h
}

// Bisect finds x in [lo, hi] with f(x) = 0 to absolute tolerance xtol, given
// that f is monotone enough that f(lo) and f(hi) have opposite signs (or one
// of them is zero). It refines with bisection, which is unconditionally
// convergent — important because marginal CDFs of regions can have flat
// stretches where Newton steps stall. It stops when lo and hi are adjacent
// floats, which an xtol below their spacing would otherwise leave halving
// nothing until its 200 steps run out.
func Bisect(f func(float64) float64, lo, hi, xtol float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, lo, flo, hi, fhi)
	}
	for i := 0; i < 200 && hi-lo > xtol; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break // adjacent floats, closer than xtol can say: mid is the answer
		}
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (fhi > 0) {
			hi, fhi = mid, fm
		} else {
			lo, flo = mid, fm
		}
	}
	return lo + (hi-lo)/2, nil
}

// NormalCDF returns Φ(x), the standard normal cumulative distribution.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalPDF returns φ(x), the standard normal density.
func NormalPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// NormalIntervalMass returns Φ((b−μ)/σ) − Φ((a−μ)/σ), the mass a N(μ,σ²)
// variate places on [a, b].
func NormalIntervalMass(mu, sigma, a, b float64) float64 {
	if b < a {
		return 0
	}
	return NormalCDF((b-mu)/sigma) - NormalCDF((a-mu)/sigma)
}
