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
	if !(r > 0 && sigma > 0) {
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

// MarginalCDF is closed form for d = 1 and d = 3 and a fixed Gauss–Legendre
// rule over the chord masses for d = 2 (diskRectMass on the half-plane left
// of x; MarginalTable says to tabulate it on the query path). For d = 3 the
// slice of the ball at offset t is a disk of radius √(r²−t²), on which a
// 2-D isotropic Gaussian places mass 1 − exp(−(r²−t²)/2σ²); times the 1-D
// density at t that is (e^{−t²/2σ²} − e^{−r²/2σ²}) / (σ√2π), whose
// antiderivative is a normal CDF minus a straight line. The faces of MBR()
// are compared as ballMBR computes them, as in UniformBall.MarginalCDF.
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
		inf := math.Inf(1)
		return clamp01(g.diskRectMass(r, -inf, -inf, t, inf) / g.lambda)
	default:
		kappa := numeric.NormalPDF(r/s) / s
		return clamp01((numeric.NormalCDF(t/s) - numeric.NormalCDF(-r/s) - kappa*(t+r)) / g.lambda)
	}
}

func (g *ConGauBall) ShapeKey() string {
	key := appendG(append(shapeKey("congau", g.Dim()), ":r="...), g.R)
	return string(appendG(append(key, ":s="...), g.Sigma))
}

func (g *ConGauBall) Center() geom.Point { return g.Ctr }

// Recentred is the constrained Gaussian of the same r and σ centred at
// ctr; its λ is g's, as NewConGauBall would compute it.
func (g *ConGauBall) Recentred(ctr geom.Point) PDF {
	return &ConGauBall{Ctr: ctr.Clone(), R: g.R, Sigma: g.Sigma, lambda: g.lambda}
}

// MBRAt is Recentred(ctr).MBR() into dst.
func (g *ConGauBall) MBRAt(ctr geom.Point, dst geom.Rect) { ballMBRInto(ctr, g.R, dst) }

// ExactProb evaluates Equation 2: in 2-D a Gauss–Legendre rule over the
// erf differences that are the Gaussian chord masses (diskRectMass), in 3-D
// that slice mass under a second rule over z (sliceIntegral). Good to
// rounding, not to a tolerance; a rectangle covering MBR() gives exactly 1.
func (g *ConGauBall) ExactProb(rq geom.Rect) float64 {
	if p, ok := ballDecided(g.Ctr, g.R, rq); ok {
		return p
	}
	c, r, s := g.Ctr, g.R, g.Sigma
	switch g.Dim() {
	case 1:
		return clamp01(numeric.NormalIntervalMass(c[0], s, max(rq.Lo[0], c[0]-r), min(rq.Hi[0], c[0]+r)) / g.lambda)
	case 2:
		return clamp01(g.diskRectMass(r, rq.Lo[0]-c[0], rq.Lo[1]-c[1], rq.Hi[0]-c[0], rq.Hi[1]-c[1]) / g.lambda)
	default:
		x0, y0, x1, y1 := rq.Lo[0]-c[0], rq.Lo[1]-c[1], rq.Hi[0]-c[0], rq.Hi[1]-c[1]
		slice := func(z float64) float64 {
			return numeric.NormalPDF(z/s) / s * g.diskRectMass(math.Sqrt(max(0, (r-z)*(r+z))), x0, y0, x1, y1)
		}
		z0, z1 := max(rq.Lo[2]-c[2], -gaussReach*s), min(rq.Hi[2]-c[2], gaussReach*s)
		return clamp01(sliceIntegral(slice, r, z0, z1, x0, y0, x1, y1, gaussPanel*s) / g.lambda)
	}
}

// gaussPanel is the widest panel, in standard deviations, over which the
// Gauss–Legendre rule is asked to integrate a Gaussian factor, and beyond
// gaussReach standard deviations from the mean (a mass of 2e-23) nothing
// is integrated.
const gaussPanel, gaussReach = 5, 10

// diskRectMass is the mass the 2-D Gaussian N(0, σ²I) places on the disk
// of radius rho at the origin inside [x0, x1] × [y0, y1]: over x = rho·sin θ,
// which keeps the chord's half-length rho·cos θ smooth, the density at x
// times the erf difference of the chord's part inside [y0, y1], split where
// the chord starts or stops clipping on y0 or y1.
func (g *ConGauBall) diskRectMass(rho, x0, y0, x1, y1 float64) float64 {
	switch {
	case rho <= 0 || x0 >= rho || x1 <= -rho || y0 >= rho || y1 <= -rho:
		return 0
	case x0 <= -rho && x1 >= rho && y0 <= -rho && y1 >= rho:
		return chiBallMass(2, rho/g.Sigma)
	}
	k := rho / g.Sigma
	var cuts [4]float64
	n := 0
	for _, y := range [2]float64{y0, y1} {
		if c := math.Abs(y) / rho; c < 1 {
			cuts[n], cuts[n+1] = -math.Acos(c), math.Acos(c)
			n += 2
		}
	}
	ya, yb := y0/(g.Sigma*math.Sqrt2), y1/(g.Sigma*math.Sqrt2)
	f := func(th float64) float64 {
		sn, cs := math.Sincos(th)
		h := k * cs / math.Sqrt2
		return numeric.NormalPDF(k*sn) * k * cs * max(0, math.Erf(min(yb, h))-math.Erf(max(ya, -h))) / 2
	}
	x0, x1 = max(x0, -gaussReach*g.Sigma), min(x1, gaussReach*g.Sigma)
	lo, hi := math.Asin(max(-1, min(1, x0/rho))), math.Asin(max(-1, min(1, x1/rho)))
	return piecewise(lo, hi, cuts[:n], func(a, b float64) float64 {
		return numeric.GaussLegendre(f, a, b, int(math.Ceil((b-a)*k/gaussPanel)))
	})
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
	key := shapeKey("grect", g.Dim())
	c := g.Rect.Center()
	for i := range g.Sigma {
		key = appendG(append(key, ':'), g.Rect.Side(i))
		key = appendG(append(key, ','), g.Sigma[i])
		key = appendG(append(key, ','), g.Mu[i]-c[i])
	}
	return string(key)
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
