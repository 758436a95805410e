package updf

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/numeric"
)

// ConGauBall is the paper's Constrained Gaussian (Equation 16): an isotropic
// Gaussian with mean at the ball center and standard deviation Sigma,
// renormalized over the ball of radius R:
//
//	pdf_CG(x) = pdf_G(x)/λ  if x ∈ ball,  0 otherwise,
//	λ = ∫_ball pdf_G(x) dx.
//
// λ has a closed form for d ≤ 3 because |X| follows a χ distribution.
type ConGauBall struct {
	Ctr    geom.Point
	R      float64
	Sigma  float64
	lambda float64
}

// NewConGauBall constructs a constrained-Gaussian pdf; the CA dataset of the
// paper uses R=250, Sigma=125 (σ = half the region radius). Supported for
// d ∈ {1,2,3}.
func NewConGauBall(ctr geom.Point, r, sigma float64) *ConGauBall {
	if r <= 0 || sigma <= 0 {
		panic(fmt.Sprintf("updf: invalid ConGau parameters r=%g sigma=%g", r, sigma))
	}
	d := len(ctr)
	if d < 1 || d > 3 {
		panic(fmt.Sprintf("updf: ConGauBall supports d ∈ {1,2,3}, got %d", d))
	}
	g := &ConGauBall{Ctr: ctr.Clone(), R: r, Sigma: sigma}
	g.lambda = chiBallMass(d, r/sigma)
	return g
}

// chiBallMass returns P(|Z| ≤ z) for a d-dimensional standard isotropic
// Gaussian, i.e. the mass a Gaussian N(0, σ²I) places on a ball of radius
// z·σ.
func chiBallMass(d int, z float64) float64 {
	switch d {
	case 1:
		return 2*numeric.NormalCDF(z) - 1
	case 2:
		return 1 - math.Exp(-z*z/2)
	case 3:
		return math.Erf(z/math.Sqrt2) - math.Sqrt(2/math.Pi)*z*math.Exp(-z*z/2)
	default:
		panic("updf: chiBallMass unsupported dimension")
	}
}

func (g *ConGauBall) Dim() int       { return len(g.Ctr) }
func (g *ConGauBall) MBR() geom.Rect { return ballMBR(g.Ctr, g.R) }

// Lambda exposes the normalization constant (for tests and documentation;
// the paper notes it is computed once per shape).
func (g *ConGauBall) Lambda() float64 { return g.lambda }

func (g *ConGauBall) Density(x geom.Point) float64 {
	if !inBall(g.Ctr, g.R, x) {
		return 0
	}
	p := 1.0
	for i := range g.Ctr {
		p *= numeric.NormalPDF((x[i]-g.Ctr[i])/g.Sigma) / g.Sigma
	}
	return p / g.lambda
}

func (g *ConGauBall) SampleUniform(rng *rand.Rand, dst geom.Point) {
	sampleBall(rng, g.Ctr, g.R, dst)
}

// chordMassDensity returns the 2-D marginal density of the offset t from
// the center along either axis (isotropy makes them identical): the 1-D
// Gaussian density at t times the mass a 1-D Gaussian places on the chord
// [−h, h] of the disk at t.
func (g *ConGauBall) chordMassDensity(t float64) float64 {
	r, s := g.R, g.Sigma
	if t <= -r || t >= r {
		return 0
	}
	h := math.Sqrt(r*r - t*t)
	return numeric.NormalPDF(t/s) / s * (2*numeric.NormalCDF(h/s) - 1) / g.lambda
}

// MarginalCDF is closed form for d = 1 and d = 3 and a quadrature of the
// chord masses for d = 2 (MarginalTable says which, for callers that cannot
// afford the quadrature). For d = 3 the slice of the ball at offset t is a
// disk of radius √(r²−t²), on which a 2-D isotropic Gaussian places mass
// 1 − exp(−(r²−t²)/2σ²); times the 1-D density at t that is
// (e^{−t²/2σ²} − e^{−r²/2σ²}) / (σ√2π), whose antiderivative is a normal
// CDF minus a straight line. The faces of MBR() are compared as ballMBR
// computes them, as in UniformBall.MarginalCDF.
func (g *ConGauBall) MarginalCDF(dim int, x float64) float64 {
	c, r, s := g.Ctr[dim], g.R, g.Sigma
	t := x - c
	switch {
	case x <= c-r, t <= -r:
		return 0
	case x >= c+r, t >= r:
		return 1
	}
	switch g.Dim() {
	case 1:
		return clamp01((numeric.NormalCDF(t/s) - numeric.NormalCDF(-r/s)) / g.lambda)
	case 2:
		v, _ := numeric.AdaptiveSimpson(g.chordMassDensity, -r, t, 1e-10)
		return clamp01(v)
	default:
		kappa := numeric.NormalPDF(r/s) / s
		return clamp01((numeric.NormalCDF(t/s) - numeric.NormalCDF(-r/s) - kappa*(t+r)) / g.lambda)
	}
}

func (g *ConGauBall) ShapeKey() string {
	return fmt.Sprintf("congau:d=%d:r=%g:s=%g", g.Dim(), g.R, g.Sigma)
}

func (g *ConGauBall) Center() geom.Point { return g.Ctr }

// ExactProb evaluates Equation 2 by quadrature: for d=2 a single integral of
// Gaussian chord masses, for d=3 a nested integral. Used as ground truth.
func (g *ConGauBall) ExactProb(rq geom.Rect) float64 {
	r, s := g.R, g.Sigma
	switch g.Dim() {
	case 1:
		lo := math.Max(rq.Lo[0], g.Ctr[0]-r)
		hi := math.Min(rq.Hi[0], g.Ctr[0]+r)
		if lo >= hi {
			return 0
		}
		return clamp01(numeric.NormalIntervalMass(g.Ctr[0], s, lo, hi) / g.lambda)
	case 2:
		v := g.gaussDiskRectMass(g.Ctr[0], g.Ctr[1], r, rq.Lo[0], rq.Lo[1], rq.Hi[0], rq.Hi[1])
		return clamp01(v / g.lambda)
	case 3:
		zlo := math.Max(rq.Lo[2], g.Ctr[2]-r)
		zhi := math.Min(rq.Hi[2], g.Ctr[2]+r)
		if zlo >= zhi {
			return 0
		}
		f := func(z float64) float64 {
			rest := r*r - (z-g.Ctr[2])*(z-g.Ctr[2])
			if rest <= 0 {
				return 0
			}
			rad := math.Sqrt(rest)
			inner := g.gaussDiskRectMass(g.Ctr[0], g.Ctr[1], rad, rq.Lo[0], rq.Lo[1], rq.Hi[0], rq.Hi[1])
			return numeric.NormalPDF((z-g.Ctr[2])/s) / s * inner
		}
		v, _ := numeric.AdaptiveSimpson(f, zlo, zhi, 1e-8)
		return clamp01(v / g.lambda)
	default:
		panic("updf: unsupported dimension")
	}
}

// gaussDiskRectMass returns the (unnormalized) mass the 2D isotropic
// Gaussian at (cx, cy) with deviation g.Sigma places on disk(r) ∩ rect.
func (g *ConGauBall) gaussDiskRectMass(cx, cy, r, lx, ly, hx, hy float64) float64 {
	s := g.Sigma
	xlo := math.Max(lx, cx-r)
	xhi := math.Min(hx, cx+r)
	if xlo >= xhi {
		return 0
	}
	f := func(x float64) float64 {
		rest := r*r - (x-cx)*(x-cx)
		if rest <= 0 {
			return 0
		}
		half := math.Sqrt(rest)
		lo := math.Max(ly, cy-half)
		hi := math.Min(hy, cy+half)
		if lo >= hi {
			return 0
		}
		return numeric.NormalPDF((x-cx)/s) / s * numeric.NormalIntervalMass(cy, s, lo, hi)
	}
	v, _ := numeric.AdaptiveSimpson(f, xlo, xhi, 1e-9)
	return v
}

// GaussRect is a product of independent Gaussians truncated to a rectangle.
// Every quantity (marginals, quantiles, appearance probabilities) is closed
// form, which makes it the exact-oracle Gaussian for correctness tests, and
// a realistic sensor-noise model for rectangular uncertainty regions.
type GaussRect struct {
	Rect  geom.Rect
	Mu    geom.Point
	Sigma []float64
	mass  []float64 // per-dimension truncation mass
}

// NewGaussRect constructs a truncated-Gaussian-product pdf on rect.
func NewGaussRect(rect geom.Rect, mu geom.Point, sigma []float64) *GaussRect {
	d := rect.Dim()
	if len(mu) != d || len(sigma) != d {
		panic("updf: GaussRect parameter dimensionality mismatch")
	}
	g := &GaussRect{Rect: rect.Clone(), Mu: mu.Clone(), Sigma: append([]float64(nil), sigma...)}
	g.mass = make([]float64, d)
	for i := 0; i < d; i++ {
		if sigma[i] <= 0 {
			panic(fmt.Sprintf("updf: non-positive sigma on dim %d", i))
		}
		g.mass[i] = numeric.NormalIntervalMass(mu[i], sigma[i], rect.Lo[i], rect.Hi[i])
		if g.mass[i] <= 0 {
			panic(fmt.Sprintf("updf: Gaussian places no mass on dim %d extent", i))
		}
	}
	return g
}

func (g *GaussRect) Dim() int       { return g.Rect.Dim() }
func (g *GaussRect) MBR() geom.Rect { return g.Rect.Clone() }

func (g *GaussRect) Density(x geom.Point) float64 {
	if !g.Rect.ContainsPoint(x) {
		return 0
	}
	p := 1.0
	for i := range x {
		p *= numeric.NormalPDF((x[i]-g.Mu[i])/g.Sigma[i]) / g.Sigma[i] / g.mass[i]
	}
	return p
}

func (g *GaussRect) SampleUniform(rng *rand.Rand, dst geom.Point) {
	for i := range dst {
		dst[i] = g.Rect.Lo[i] + rng.Float64()*(g.Rect.Hi[i]-g.Rect.Lo[i])
	}
}

func (g *GaussRect) MarginalCDF(dim int, x float64) float64 {
	lo, hi := g.Rect.Lo[dim], g.Rect.Hi[dim]
	if x <= lo {
		return 0
	}
	if x >= hi {
		return 1
	}
	return clamp01(numeric.NormalIntervalMass(g.Mu[dim], g.Sigma[dim], lo, x) / g.mass[dim])
}

func (g *GaussRect) ShapeKey() string {
	key := fmt.Sprintf("grect:d=%d", g.Dim())
	c := g.Rect.Center()
	for i := range g.Sigma {
		key += fmt.Sprintf(":%g,%g,%g", g.Rect.Side(i), g.Sigma[i], g.Mu[i]-c[i])
	}
	return key
}

func (g *GaussRect) Center() geom.Point { return g.Rect.Center() }

func (g *GaussRect) ExactProb(rq geom.Rect) float64 {
	p := 1.0
	for i := 0; i < g.Dim(); i++ {
		lo := math.Max(rq.Lo[i], g.Rect.Lo[i])
		hi := math.Min(rq.Hi[i], g.Rect.Hi[i])
		if lo >= hi {
			return 0
		}
		p *= numeric.NormalIntervalMass(g.Mu[i], g.Sigma[i], lo, hi) / g.mass[i]
	}
	return clamp01(p)
}
