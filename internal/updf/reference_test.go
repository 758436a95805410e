package updf

import (
	"math"

	"repro/internal/geom"
	"repro/internal/numeric"
)

// The ball families' integrals as the product computed them until the
// closed forms and the fixed Gauss–Legendre rule replaced them: adaptive
// Simpson with Richardson correction, at a tolerance the caller picks (the
// product ran them at 1e-10 and looser). They are the reference the new
// code is held to.

func adaptiveSimpson(f func(float64) float64, a, b, tol float64) float64 {
	if a >= b {
		return 0
	}
	m := (a + b) / 2
	fa, fm, fb := f(a), f(m), f(b)
	return simpsonAux(f, a, b, fa, fm, fb, (b-a)/6*(fa+4*fm+fb), tol, 60)
}

// simpsonMinDepth is how many times every interval is halved before the
// error estimate may stop it: Simpson's first five samples can all miss a
// narrow sliver of the support and report 0 for it at any tolerance.
const simpsonMinDepth = 8

func simpsonAux(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := (a + b) / 2
	flm, frm := f((a+m)/2), f((m+b)/2)
	left := (m - a) / 6 * (fa + 4*flm + fm)
	right := (b - m) / 6 * (fm + 4*frm + fb)
	if delta := left + right - whole; depth <= 0 || depth <= 60-simpsonMinDepth && math.Abs(delta) <= 15*tol {
		return left + right + delta/15
	}
	return simpsonAux(f, a, m, fa, flm, fm, left, tol/2, depth-1) + simpsonAux(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}

// simpsonUniformMarginalCDF integrates the slice volumes of a uniform ball,
// V_{d−1}·(r²−s²)^{(d−1)/2}, from −r to x − Ctr[dim] (d ≥ 2).
func simpsonUniformMarginalCDF(u *UniformBall, dim int, x, tol float64) float64 {
	r, t, d := u.R, x-u.Ctr[dim], u.Dim()
	if t <= -r {
		return 0
	}
	if t >= r {
		return 1
	}
	vSlice := unitBallVolume(d - 1)
	f := func(s float64) float64 {
		h := r*r - s*s
		if h <= 0 {
			return 0
		}
		return vSlice * math.Pow(math.Sqrt(h), float64(d-1))
	}
	return clamp01(adaptiveSimpson(f, -r, t, u.vol*tol) / u.vol)
}

// simpsonCircleRectArea integrates the vertical chord overlap of
// circle((cx, cy), r) with [lx, hx] × [ly, hy] along x.
func simpsonCircleRectArea(cx, cy, r, lx, ly, hx, hy, tol float64) float64 {
	f := func(x float64) float64 {
		h := r*r - (x-cx)*(x-cx)
		if h <= 0 {
			return 0
		}
		half := math.Sqrt(h)
		return math.Max(0, math.Min(hy, cy+half)-math.Max(ly, cy-half))
	}
	return adaptiveSimpson(f, math.Max(lx, cx-r), math.Min(hx, cx+r), tol)
}

// simpsonUniformExactProb is Vol(ball ∩ rq)/Vol(ball) by chord integration
// in 2-D and, in 3-D, that nested under a second integral over z — or, with
// nested false, the product's closed-form slice area under it: the nested
// integral costs a second a rectangle at the tolerances the tests ask for.
func simpsonUniformExactProb(u *UniformBall, rq geom.Rect, tol float64, nested bool) float64 {
	c, r := u.Ctr, u.R
	if u.Dim() == 2 {
		return clamp01(simpsonCircleRectArea(c[0], c[1], r, rq.Lo[0], rq.Lo[1], rq.Hi[0], rq.Hi[1], tol*r*r) / u.vol)
	}
	f := func(z float64) float64 {
		h := r*r - (z-c[2])*(z-c[2])
		if h <= 0 {
			return 0
		}
		rad := math.Sqrt(h)
		if !nested {
			return circleRectArea(rad, rq.Lo[0]-c[0], rq.Lo[1]-c[1], rq.Hi[0]-c[0], rq.Hi[1]-c[1])
		}
		return simpsonCircleRectArea(c[0], c[1], rad, rq.Lo[0], rq.Lo[1], rq.Hi[0], rq.Hi[1], tol*rad*rad)
	}
	return clamp01(adaptiveSimpson(f, math.Max(rq.Lo[2], c[2]-r), math.Min(rq.Hi[2], c[2]+r), tol*r*r*r) / u.vol)
}

// simpsonConGauMarginalCDF integrates the Con-Gau marginal density: the 1-D
// Gaussian density at offset t times the mass a 1-D (2-D) Gaussian places
// on the chord (disk) of the ball at t, for d = 2 (3).
func simpsonConGauMarginalCDF(g *ConGauBall, dim int, x, tol float64) float64 {
	r, s := g.R, g.Sigma
	t := x - g.Ctr[dim]
	if t <= -r {
		return 0
	}
	if t >= r {
		return 1
	}
	density := func(t float64) float64 {
		if t <= -r || t >= r {
			return 0
		}
		mass := 1 - math.Exp(-(r*r-t*t)/(2*s*s))
		if g.Dim() == 2 {
			mass = 2*numeric.NormalCDF(math.Sqrt(r*r-t*t)/s) - 1
		}
		return numeric.NormalPDF(t/s) / s * mass / g.lambda
	}
	return clamp01(adaptiveSimpson(density, -r, t, tol))
}

// simpsonGaussDiskRectMass integrates, along x, the Gaussian density at x
// times the Gaussian mass of the part of the disk's chord at x inside
// [ly, hy]: the mass N((cx, cy), σ²I) places on disk(r) ∩ rect.
func simpsonGaussDiskRectMass(g *ConGauBall, cx, cy, r, lx, ly, hx, hy, tol float64) float64 {
	s := g.Sigma
	f := func(x float64) float64 {
		rest := r*r - (x-cx)*(x-cx)
		if rest <= 0 {
			return 0
		}
		half := math.Sqrt(rest)
		lo, hi := math.Max(ly, cy-half), math.Min(hy, cy+half)
		if lo >= hi {
			return 0
		}
		return numeric.NormalPDF((x-cx)/s) / s * numeric.NormalIntervalMass(cy, s, lo, hi)
	}
	return adaptiveSimpson(f, math.Max(lx, cx-r), math.Min(hx, cx+r), tol)
}

// simpsonConGauExactProb is Equation 2 by one integral of chord masses in
// 2-D and, in 3-D, that nested under an integral over z — or, with nested
// false, the product's slice mass under it.
func simpsonConGauExactProb(g *ConGauBall, rq geom.Rect, tol float64, nested bool) float64 {
	c, r, s := g.Ctr, g.R, g.Sigma
	if g.Dim() == 2 {
		return clamp01(simpsonGaussDiskRectMass(g, c[0], c[1], r, rq.Lo[0], rq.Lo[1], rq.Hi[0], rq.Hi[1], tol) / g.lambda)
	}
	f := func(z float64) float64 {
		rest := r*r - (z-c[2])*(z-c[2])
		if rest <= 0 {
			return 0
		}
		var inner float64
		if nested {
			inner = simpsonGaussDiskRectMass(g, c[0], c[1], math.Sqrt(rest), rq.Lo[0], rq.Lo[1], rq.Hi[0], rq.Hi[1], tol)
		} else {
			inner = g.diskRectMass(math.Sqrt(rest), rq.Lo[0]-c[0], rq.Lo[1]-c[1], rq.Hi[0]-c[0], rq.Hi[1]-c[1])
		}
		return numeric.NormalPDF((z-c[2])/s) / s * inner
	}
	return clamp01(adaptiveSimpson(f, math.Max(rq.Lo[2], c[2]-r), math.Min(rq.Hi[2], c[2]+r), tol) / g.lambda)
}

// simpsonExactProb dispatches to the reference of p's family.
func simpsonExactProb(p PDF, rq geom.Rect, tol float64, nested bool) float64 {
	if u, ok := p.(*UniformBall); ok {
		return simpsonUniformExactProb(u, rq, tol, nested)
	}
	return simpsonConGauExactProb(p.(*ConGauBall), rq, tol, nested)
}

// simpsonMarginalCDF dispatches to the reference of p's family.
func simpsonMarginalCDF(p PDF, dim int, x, tol float64) float64 {
	if u, ok := p.(*UniformBall); ok {
		return simpsonUniformMarginalCDF(u, dim, x, tol)
	}
	return simpsonConGauMarginalCDF(p.(*ConGauBall), dim, x, tol)
}
