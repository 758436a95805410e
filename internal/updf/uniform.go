package updf

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// UniformBall is the paper's canonical location-uncertainty model: the
// object lies uniformly in a d-dimensional ball (circle for d=2, sphere for
// d=3) centered at the last reported location.
type UniformBall struct {
	Ctr geom.Point
	R   float64
	vol float64
}

// NewUniformBall constructs a uniform-ball pdf. It panics on a radius that
// is not positive (or is NaN), which would make the density undefined.
func NewUniformBall(ctr geom.Point, r float64) *UniformBall {
	if !(r > 0) {
		panic(fmt.Sprintf("updf: non-positive ball radius %g", r))
	}
	d := len(ctr)
	return &UniformBall{Ctr: ctr.Clone(), R: r, vol: unitBallVolume(d) * math.Pow(r, float64(d))}
}

func (u *UniformBall) Dim() int       { return len(u.Ctr) }
func (u *UniformBall) MBR() geom.Rect { return ballMBR(u.Ctr, u.R) }

func (u *UniformBall) Density(x geom.Point) float64 {
	if !inBall(u.Ctr, u.R, x) {
		return 0
	}
	return 1 / u.vol
}

func (u *UniformBall) SampleUniform(rng *rand.Rand, dst geom.Point) {
	sampleBall(rng, u.Ctr, u.R, dst)
}

// MarginalCDF is closed form in every dimension. For d > 3 the slice of
// the ball at offset t = r·sin φ has volume ∝ cos^{d−1}φ, so the CDF is
// I_d(φ)/I_d(π/2) with I_n(φ) = ∫_{−π/2}^{φ} cosⁿθ dθ (cosPowerIntegral).
// At and beyond a face of MBR() it is exactly 0 or 1: the faces are
// compared as ballMBR computes them, since x − Ctr can round to just inside
// (−r, r) when x is the face itself.
func (u *UniformBall) MarginalCDF(dim int, x float64) float64 {
	c, r := u.Ctr[dim], u.R
	t := x - c
	switch {
	case x <= c-r, t <= -r:
		return 0
	case x >= c+r, t >= r:
		return 1
	}
	switch u.Dim() {
	case 1:
		return clamp01((t + r) / (2 * r))
	case 2:
		return clamp01(0.5 + (t*math.Sqrt(r*r-t*t)+r*r*math.Asin(t/r))/(math.Pi*r*r))
	case 3:
		return clamp01(0.5 + (3/(4*r*r*r))*(r*r*t-t*t*t/3))
	default:
		return clamp01(cosPowerIntegral(u.Dim(), t/r) / cosPowerIntegral(u.Dim(), 1))
	}
}

// cosPowerIntegral is ∫_{−π/2}^{asin s} cosⁿθ dθ, by the reduction
// I_n = cos^{n−1}φ·sin φ/n + (n−1)/n·I_{n−2} down to I_0 = φ + π/2 or
// I_1 = 1 + sin φ.
func cosPowerIntegral(n int, s float64) float64 {
	c := math.Sqrt((1 - s) * (1 + s))
	v, k := 1+s, 1
	if n%2 == 0 {
		v, k = math.Atan2(s, c)+math.Pi/2, 0
	}
	for k += 2; k <= n; k += 2 {
		v = math.Pow(c, float64(k-1))*s/float64(k) + float64(k-1)/float64(k)*v
	}
	return v
}

func (u *UniformBall) ShapeKey() string {
	return string(appendG(append(shapeKey("uball", u.Dim()), ":r="...), u.R))
}

func (u *UniformBall) Center() geom.Point { return u.Ctr }

// Recentred is the ball of the same radius centred at ctr; its volume is
// u's, as NewUniformBall would compute it.
func (u *UniformBall) Recentred(ctr geom.Point) PDF {
	return &UniformBall{Ctr: ctr.Clone(), R: u.R, vol: u.vol}
}

// MBRAt is Recentred(ctr).MBR() into dst.
func (u *UniformBall) MBRAt(ctr geom.Point, dst geom.Rect) { ballMBRInto(ctr, u.R, dst) }

// ExactProb is the ratio Vol(ball ∩ rq) / Vol(ball) of Equation 1: in
// closed form in 1-D and 2-D, in 3-D a Gauss–Legendre rule over z of the
// closed-form slice area. A rectangle covering MBR() gives exactly 1.
func (u *UniformBall) ExactProb(rq geom.Rect) float64 {
	if p, ok := ballDecided(u.Ctr, u.R, rq); ok {
		return p
	}
	c, r := u.Ctr, u.R
	switch u.Dim() {
	case 1:
		return clamp01((min(rq.Hi[0], c[0]+r) - max(rq.Lo[0], c[0]-r)) / u.vol)
	case 2:
		return clamp01(circleRectArea(r, rq.Lo[0]-c[0], rq.Lo[1]-c[1], rq.Hi[0]-c[0], rq.Hi[1]-c[1]) / u.vol)
	case 3:
		x0, y0, x1, y1 := rq.Lo[0]-c[0], rq.Lo[1]-c[1], rq.Hi[0]-c[0], rq.Hi[1]-c[1]
		slice := func(z float64) float64 { return circleRectArea(math.Sqrt(max(0, (r-z)*(r+z))), x0, y0, x1, y1) }
		return clamp01(sliceIntegral(slice, r, rq.Lo[2]-c[2], rq.Hi[2]-c[2], x0, y0, x1, y1, math.Inf(1)) / u.vol)
	default:
		panic(fmt.Sprintf("updf: UniformBall.ExactProb unsupported for d=%d", u.Dim()))
	}
}

// circleRectArea is the area of the disk of radius r at the origin inside
// [x0, x1] × [y0, y1], by inclusion–exclusion over its corners.
func circleRectArea(r, x0, y0, x1, y1 float64) float64 {
	return max(0, cornerArea(r, x1, y1)-cornerArea(r, x0, y1)-cornerArea(r, x1, y0)+cornerArea(r, x0, y0))
}

// cornerArea is the area of the disk of radius r at the origin left of
// x = a and below y = b.
func cornerArea(r, a, b float64) float64 {
	switch {
	case a <= -r || b <= -r:
		return 0
	case a >= r && b >= r:
		return math.Pi * r * r
	case b >= r:
		return 2 * chordArea(r, a)
	case a >= r:
		return 2 * chordArea(r, b)
	}
	// Below y = b the chord at x is [−h, min(b, h)]: b + h where h ≥ b, that
	// is |x| ≤ w, and outside it 2h if b is above the centre, else nothing.
	w := math.Sqrt((r - b) * (r + b))
	mid := max(-w, min(w, a))
	v := b*(mid+w) + chordArea(r, mid) - chordArea(r, -w)
	if b > 0 {
		v += 2 * (chordArea(r, min(a, -w)) + max(0, chordArea(r, a)-chordArea(r, w)))
	}
	return v
}

// chordArea is ∫_{−r}^{t} √(r²−s²) ds for t clamped to [−r, r], the
// antiderivative ½(t√(r²−t²) + r²·asin(t/r)) that the 2-D MarginalCDF uses,
// with the angle taken by atan2: asin loses half the digits of t/r near ±1.
func chordArea(r, t float64) float64 {
	t = max(-r, min(r, t))
	w := math.Sqrt((r - t) * (r + t))
	return 0.5*(t*w+r*r*math.Atan2(t, w)) + math.Pi*r*r/4
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// UniformRect is the product-uniform pdf on a rectangle. Every quantity is
// closed form, making it the workhorse of deterministic correctness tests.
type UniformRect struct {
	Rect geom.Rect
}

// NewUniformRect constructs a uniform pdf on the given rectangle, which must
// have positive volume.
func NewUniformRect(r geom.Rect) *UniformRect {
	if r.Area() <= 0 {
		panic(fmt.Sprintf("updf: uniform rect with non-positive volume %v", r))
	}
	return &UniformRect{Rect: r.Clone()}
}

func (u *UniformRect) Dim() int       { return u.Rect.Dim() }
func (u *UniformRect) MBR() geom.Rect { return u.Rect.Clone() }

func (u *UniformRect) Density(x geom.Point) float64 {
	if !u.Rect.ContainsPoint(x) {
		return 0
	}
	return 1 / u.Rect.Area()
}

func (u *UniformRect) SampleUniform(rng *rand.Rand, dst geom.Point) {
	for i := range dst {
		dst[i] = u.Rect.Lo[i] + rng.Float64()*(u.Rect.Hi[i]-u.Rect.Lo[i])
	}
}

func (u *UniformRect) MarginalCDF(dim int, x float64) float64 {
	lo, hi := u.Rect.Lo[dim], u.Rect.Hi[dim]
	return clamp01((x - lo) / (hi - lo))
}

func (u *UniformRect) ShapeKey() string {
	key := shapeKey("urect", u.Dim())
	for i := range u.Rect.Lo {
		key = appendG(append(key, ':'), u.Rect.Hi[i]-u.Rect.Lo[i])
	}
	return string(key)
}

func (u *UniformRect) Center() geom.Point { return u.Rect.Center() }

func (u *UniformRect) ExactProb(rq geom.Rect) float64 {
	return clamp01(u.Rect.Overlap(rq) / u.Rect.Area())
}
