// Package updf models uncertain objects' probability distributions: an
// uncertainty region plus a probability density function over it (Section 3
// of the U-tree paper). The package provides
//
//   - concrete pdfs: Uniform over balls and rectangles, the paper's
//     Constrained Gaussian (Con-Gau, Equation 16), truncated Gaussian and
//     exponential products on rectangles, and piecewise-constant histogram
//     pdfs standing in for fully arbitrary densities;
//   - per-dimension marginal CDFs and quantiles (closed form, but for the
//     2-D Con-Gau, a fixed Gauss–Legendre rule over its chord masses) — the
//     primitive from which PCRs are computed (Section 4.1);
//   - uniform region sampling for the Monte-Carlo estimator (Equation 3);
//   - exact appearance probabilities for every family, closed form or a
//     fixed Gauss–Legendre rule good to rounding, for exact refinement, as
//     ground truth in tests and in the Fig. 7 error study;
//   - compact binary serialization for the data file leaf entries point at.
package updf

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/geom"
	"repro/internal/numeric"
)

// PDF describes an uncertain object's distribution. The set is closed: the
// eight families below, each with a codec tag (Encode), an exact appearance
// probability and the tests that hold both — a new family is those three,
// added here. Implementations must be immutable after construction: they
// are shared across index entries and cached quantile tables.
type PDF interface {
	// Dim returns the dimensionality d.
	Dim() int
	// MBR returns the minimum bounding rectangle of the uncertainty region.
	MBR() geom.Rect
	// Density returns the normalized density at x (0 outside the region).
	Density(x geom.Point) float64
	// SampleUniform draws a point uniformly from the uncertainty region
	// (not from the pdf); this is the sampling scheme of Equation 3.
	SampleUniform(rng *rand.Rand, dst geom.Point)
	// MarginalCDF returns P(X_dim ≤ x).
	MarginalCDF(dim int, x float64) float64
	// ShapeKey identifies the pdf's shape up to translation by Center();
	// two pdfs with equal non-empty ShapeKeys have identical marginal
	// quantile offsets from their centers, enabling the paper's "compute λ
	// once for all of CA" style of caching. An empty key disables caching.
	ShapeKey() string
	// Center returns the translation anchor used with ShapeKey.
	Center() geom.Point
	// ExactProb returns the appearance probability in rq (Equation 2)
	// exactly — in closed form or by a fixed Gauss–Legendre rule, with no
	// tolerance parameter (the tests hold the balls to an adaptive-Simpson
	// reference within 1e-10 and every family to additivity over a split
	// within 1e-12); used by exact refinement, as the ground-truth oracle in
	// tests and in the Fig. 7 experiment.
	ExactProb(rq geom.Rect) float64
	// builtin seals the set: only this package's families implement it. A
	// type embedding one of them still satisfies PDF, and Encode refuses it.
	builtin()
}

func (*UniformBall) builtin()    {}
func (*UniformRect) builtin()    {}
func (*ConGauBall) builtin()     {}
func (*GaussRect) builtin()      {}
func (*ExpoRect) builtin()       {}
func (*HistogramRect) builtin()  {}
func (*UniformPolygon) builtin() {}
func (*Mixture) builtin()        {}

// ExactProber is PDF's ExactProb alone, kept for the end-to-end benchmark
// (cmd/e2ebench), which asserts it.
type ExactProber interface{ ExactProb(rq geom.Rect) float64 }

// Recentrer is implemented by a pdf whose shape, moved to any centre, is a
// pdf of the same family: Recentred(ctr) is that pdf, centred at ctr (which
// must have the pdf's dimensionality). For every q with q.ShapeKey() ==
// p.ShapeKey(), Encode(p.Recentred(q.Center())) is byte-equal to
// Encode(q), so an index that keeps one prototype per shape can store an
// object as its centre alone and rebuild it bit for bit. MBRAt writes
// Recentred(ctr).MBR() into dst's coordinate slices, bit for bit and
// without allocating, so such an index can keep the centre in place of the
// box as well.
type Recentrer interface {
	Recentred(ctr geom.Point) PDF
	MBRAt(ctr geom.Point, dst geom.Rect)
}

// MarginalQuantile inverts p.MarginalCDF on dimension dim by bisection over
// the MBR extent. prob must be in [0, 1]; values at the boundaries return
// the region's extremes.
func MarginalQuantile(p PDF, dim int, prob float64) float64 {
	mbr := p.MBR()
	lo, hi := mbr.Lo[dim], mbr.Hi[dim]
	if prob <= 0 {
		return lo
	}
	if prob >= 1 {
		return hi
	}
	x, err := numeric.Bisect(func(x float64) float64 {
		return p.MarginalCDF(dim, x) - prob
	}, lo, hi, quantileTol(hi-lo))
	if err != nil {
		// CDF numerically flat at an endpoint; clamp to the nearer side.
		if p.MarginalCDF(dim, lo) >= prob {
			return lo
		}
		return hi
	}
	return x
}

func quantileTol(extent float64) float64 {
	t := extent * 1e-9
	if t < 1e-12 {
		t = 1e-12
	}
	return t
}

// MonteCarloProb estimates the appearance probability of p in rq with n1
// uniform samples (Equation 3). Range refinement computes Equation 2 with
// ExactProb instead; Fig. 7's accuracy sweep and the benchmark's replay
// sample.
func MonteCarloProb(p PDF, rq geom.Rect, n1 int, rng *rand.Rand) float64 {
	x := make(geom.Point, p.Dim())
	var num, den float64
	for i := 0; i < n1; i++ {
		p.SampleUniform(rng, x)
		w := p.Density(x)
		den += w
		if rq.ContainsPoint(x) {
			num += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// unitBallVolume returns the volume of the d-dimensional unit ball.
func unitBallVolume(d int) float64 {
	switch d {
	case 1:
		return 2
	case 2:
		return math.Pi
	case 3:
		return 4 * math.Pi / 3
	}
	// V_d = π^{d/2} / Γ(d/2 + 1)
	return math.Pow(math.Pi, float64(d)/2) / math.Gamma(float64(d)/2+1)
}

// sampleBall fills dst with a point uniform in the ball of radius r at ctr.
// Direction via normalized Gaussians, radius via U^{1/d}: exact and free of
// rejection loops in any dimension.
func sampleBall(rng *rand.Rand, ctr geom.Point, r float64, dst geom.Point) {
	d := len(ctr)
	var norm float64
	for i := 0; i < d; i++ {
		g := rng.NormFloat64()
		dst[i] = g
		norm += g * g
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		copy(dst, ctr)
		return
	}
	rad := r * math.Pow(rng.Float64(), 1/float64(d))
	for i := 0; i < d; i++ {
		dst[i] = ctr[i] + dst[i]/norm*rad
	}
}

// ballMBR returns the bounding box of the ball at ctr with radius r.
func ballMBR(ctr geom.Point, r float64) geom.Rect {
	b := geom.Rect{Lo: make(geom.Point, len(ctr)), Hi: make(geom.Point, len(ctr))}
	ballMBRInto(ctr, r, b)
	return b
}

// ballMBRInto is ballMBR into dst's coordinate slices.
func ballMBRInto(ctr geom.Point, r float64, dst geom.Rect) {
	for i := range ctr {
		dst.Lo[i] = ctr[i] - r
		dst.Hi[i] = ctr[i] + r
	}
}

// ballDecided returns 1 when rq covers the MBR of the ball at ctr with
// radius r and 0 when it misses the ball's interior or has no volume, the
// faces compared as ballMBR computes them; ok is false in between.
func ballDecided(ctr geom.Point, r float64, rq geom.Rect) (p float64, ok bool) {
	covers := true
	for i, c := range ctr {
		if rq.Hi[i] <= c-r || rq.Lo[i] >= c+r || rq.Lo[i] >= rq.Hi[i] {
			return 0, true
		}
		covers = covers && rq.Lo[i] <= c-r && rq.Hi[i] >= c+r
	}
	return 1, covers
}

// sliceIntegral integrates f(z), a quantity of the slice at offset z of the
// ball of radius r whose cross-section is cut by [x0, x1] × [y0, y1] (all
// offsets from the centre), over [z0, z1] ∩ [−r, r]. f is analytic between
// the offsets where the slice radius √(r²−z²) reaches a corner of the cut (a
// kink), an edge's foot (a square-root end) or 0 (the poles), so the range
// is split there and each piece integrated under z = m − h·cos θ, which
// makes square-root ends smooth. The piece's formula continues past its
// ends to the next branch point — the tangency of any edge's line, or a
// pole — and one δ beyond an end sits √(2δ/h) off the real θ axis: no
// θ-panel's half-width exceeds that, which keeps the rule's error at
// rounding (below δ = 1e-6·h the point looks to the rule like the end
// itself), and no panel spans more than width along z.
func sliceIntegral(f func(float64) float64, r, z0, z1, x0, y0, x1, y1, width float64) float64 {
	var cuts [16]float64
	var branch [10]float64
	nc, nb := 0, 0
	add := func(list []float64, n *int, d float64) {
		if d < r {
			list[*n], list[*n+1] = -math.Sqrt((r-d)*(r+d)), math.Sqrt((r-d)*(r+d))
			*n += 2
		}
	}
	add(branch[:], &nb, 0) // the poles end the range, so they are never a cut
	for _, x := range [2]float64{x0, x1} {
		for _, y := range [2]float64{y0, y1} {
			add(cuts[:], &nc, math.Hypot(x, y))
		}
		if add(branch[:], &nb, math.Abs(x)); y0 < 0 && 0 < y1 {
			add(cuts[:], &nc, math.Abs(x))
		}
	}
	for _, y := range [2]float64{y0, y1} {
		if add(branch[:], &nb, math.Abs(y)); x0 < 0 && 0 < x1 {
			add(cuts[:], &nc, math.Abs(y))
		}
	}
	return piecewise(max(z0, -r), min(z1, r), cuts[:nc], func(a, b float64) float64 {
		m, h := (a+b)/2, (b-a)/2
		delta := math.Inf(1)
		for _, c := range branch[:nb] {
			if c < a {
				delta = min(delta, a-c)
			} else if c > b {
				delta = min(delta, c-b)
			}
		}
		panels := max(math.Pi*h/width, math.Pi/2*math.Sqrt(h/(2*max(delta, 1e-6*h))))
		return numeric.GaussLegendre(func(th float64) float64 {
			sn, cs := math.Sincos(th)
			return f(m-h*cs) * h * sn
		}, 0, math.Pi, int(math.Ceil(panels)))
	})
}

// piecewise sums integrate over the pieces the cuts inside (a, b) split
// [a, b] into; it sorts cuts.
func piecewise(a, b float64, cuts []float64, integrate func(lo, hi float64) float64) float64 {
	slices.Sort(cuts)
	var v float64
	for _, c := range cuts {
		if a < c && c < b {
			v += integrate(a, c)
			a = c
		}
	}
	if a >= b {
		return v
	}
	return v + integrate(a, b)
}

// inBall reports whether x is within distance r of ctr.
func inBall(ctr geom.Point, r float64, x geom.Point) bool {
	var s float64
	for i := range ctr {
		d := x[i] - ctr[i]
		s += d * d
	}
	return s <= r*r
}
