package updf

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/numeric"
)

// UniformBall is the paper's canonical location-uncertainty model: the
// object lies uniformly in a d-dimensional ball (circle for d=2, sphere for
// d=3) centered at the last reported location.
type UniformBall struct {
	Ctr geom.Point
	R   float64
	vol float64
}

// NewUniformBall constructs a uniform-ball pdf. It panics on non-positive
// radius, which would make the density undefined.
func NewUniformBall(ctr geom.Point, r float64) *UniformBall {
	if r <= 0 {
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

// MarginalCDF uses the closed-form ball marginals for d ≤ 3 and quadrature
// for higher dimensions. At and beyond a face of MBR() it is exactly 0 or 1:
// the faces are compared as ballMBR computes them, since x − Ctr can round
// to just inside (−r, r) when x is the face itself.
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
		d := u.Dim()
		vSlice := unitBallVolume(d - 1)
		f := func(s float64) float64 {
			h := r*r - s*s
			if h <= 0 {
				return 0
			}
			return vSlice * math.Pow(math.Sqrt(h), float64(d-1))
		}
		v, _ := numeric.AdaptiveSimpson(f, -r, t, u.vol*1e-10)
		return clamp01(v / u.vol)
	}
}

func (u *UniformBall) ShapeKey() string {
	return fmt.Sprintf("uball:d=%d:r=%g", u.Dim(), u.R)
}

func (u *UniformBall) Center() geom.Point { return u.Ctr }

// ExactProb integrates the uniform density over rq ∩ ball exactly (to
// quadrature tolerance): the ratio Vol(ball ∩ rq) / Vol(ball), Equation 1.
func (u *UniformBall) ExactProb(rq geom.Rect) float64 {
	v := ballRectVolume(u.Ctr, u.R, rq, u.Dim())
	return clamp01(v / u.vol)
}

// ballRectVolume computes Vol(ball(ctr,r) ∩ rect) for d ∈ {1,2,3} by nested
// chord integration.
func ballRectVolume(ctr geom.Point, r float64, rect geom.Rect, d int) float64 {
	switch d {
	case 1:
		lo := math.Max(rect.Lo[0], ctr[0]-r)
		hi := math.Min(rect.Hi[0], ctr[0]+r)
		return math.Max(0, hi-lo)
	case 2:
		return circleRectArea(ctr[0], ctr[1], r, rect.Lo[0], rect.Lo[1], rect.Hi[0], rect.Hi[1], 1e-10*r*r)
	case 3:
		zlo := math.Max(rect.Lo[2], ctr[2]-r)
		zhi := math.Min(rect.Hi[2], ctr[2]+r)
		if zlo >= zhi {
			return 0
		}
		f := func(z float64) float64 {
			h := r*r - (z-ctr[2])*(z-ctr[2])
			if h <= 0 {
				return 0
			}
			rad := math.Sqrt(h)
			return circleRectArea(ctr[0], ctr[1], rad, rect.Lo[0], rect.Lo[1], rect.Hi[0], rect.Hi[1], 1e-8*rad*rad)
		}
		v, _ := numeric.AdaptiveSimpson(f, zlo, zhi, 1e-7*r*r*r)
		return v
	default:
		panic(fmt.Sprintf("updf: ballRectVolume unsupported for d=%d", d))
	}
}

// circleRectArea returns the area of circle((cx,cy), r) ∩ [lx,ly,hx,hy] by
// integrating the vertical chord overlap along x.
func circleRectArea(cx, cy, r, lx, ly, hx, hy, tol float64) float64 {
	xlo := math.Max(lx, cx-r)
	xhi := math.Min(hx, cx+r)
	if xlo >= xhi {
		return 0
	}
	f := func(x float64) float64 {
		h := r*r - (x-cx)*(x-cx)
		if h <= 0 {
			return 0
		}
		half := math.Sqrt(h)
		lo := math.Max(ly, cy-half)
		hi := math.Min(hy, cy+half)
		return math.Max(0, hi-lo)
	}
	v, _ := numeric.AdaptiveSimpson(f, xlo, xhi, tol)
	return v
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
	key := fmt.Sprintf("urect:d=%d", u.Dim())
	for i := range u.Rect.Lo {
		key += fmt.Sprintf(":%g", u.Rect.Hi[i]-u.Rect.Lo[i])
	}
	return key
}

func (u *UniformRect) Center() geom.Point { return u.Rect.Center() }

func (u *UniformRect) ExactProb(rq geom.Rect) float64 {
	return clamp01(u.Rect.Overlap(rq) / u.Rect.Area())
}
