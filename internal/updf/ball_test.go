package updf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// The ball families' closed forms and fixed Gauss–Legendre rules, held to
// the adaptive-Simpson reference (reference_test.go) and to the properties
// an appearance probability has whatever computes it.

// refTol is the tolerance the Simpson reference runs at — at 1e-14 its
// recursion runs into the depth limit at every square-root end and a 2-D
// reference costs 0.1 s — and a result must be within refAgree of it.
const refTol, refAgree = 1e-13, 1e-10

// ballRatios are the r/σ of the Con-Gau shapes: nearly uniform, the CA
// dataset's 2, and Gaussians the ball truncates less and less.
var ballRatios = []float64{0.25, 2, 10, 40}

// ballPDF builds a uniform ball (family 0) or a Con-Gau ball (family 1) of
// dimensionality d, with the r/σ of ballRatios[ratio] for the latter.
func ballPDF(family, d, ratio int, ctr geom.Point, r float64) PDF {
	if family == 0 {
		return NewUniformBall(ctr[:d], r)
	}
	return NewConGauBall(ctr[:d], r, r/ballRatios[ratio])
}

func ballName(family, d, ratio int) string {
	if family == 0 {
		return fmt.Sprintf("uniform-ball-%dd", d)
	}
	return fmt.Sprintf("con-gau-%dd-r/σ=%g", d, ballRatios[ratio])
}

// The query rectangles the tests cycle through.
const (
	rectStraddle   = iota // a random box around the support: any relation
	rectTangent           // one face exactly on a face of the MBR
	rectCorner            // overlaps the MBR at one corner only
	rectSingleAxis        // covers the MBR on every dimension but one
	rectContaining        // covers the MBR
	rectDisjoint          // misses the MBR
	rectZeroWidth         // no volume on one axis
	rectKinds
)

// ballRect draws a query rectangle of the given kind around mbr from a
// stream of uniform [0, 1) variates.
func ballRect(kind int, mbr geom.Rect, u func() float64) geom.Rect {
	d := mbr.Dim()
	lo, hi := make(geom.Point, d), make(geom.Point, d)
	for i := range lo {
		lo[i] = mbr.Lo[i] + (u()*3-1)*mbr.Side(i)
		hi[i] = lo[i] + u()*2*mbr.Side(i)
	}
	axis := min(int(u()*float64(d)), d-1)
	switch kind {
	case rectTangent:
		if u() < 0.5 {
			lo[axis], hi[axis] = mbr.Lo[axis], mbr.Lo[axis]+u()*mbr.Side(axis)
		} else {
			lo[axis], hi[axis] = mbr.Hi[axis]-u()*mbr.Side(axis), mbr.Hi[axis]
		}
	case rectCorner:
		for i := range lo {
			if reach := (0.01 + 0.3*u()) * mbr.Side(i); u() < 0.5 {
				lo[i], hi[i] = mbr.Lo[i]-mbr.Side(i), mbr.Lo[i]+reach
			} else {
				lo[i], hi[i] = mbr.Hi[i]-reach, mbr.Hi[i]+mbr.Side(i)
			}
		}
	case rectSingleAxis, rectContaining:
		for i := range lo {
			lo[i], hi[i] = mbr.Lo[i]-u()*mbr.Side(i), mbr.Hi[i]+u()*mbr.Side(i)
		}
		if kind == rectSingleAxis {
			a, b := mbr.Lo[axis]+u()*mbr.Side(axis), mbr.Lo[axis]+u()*mbr.Side(axis)
			lo[axis], hi[axis] = min(a, b), max(a, b)
		}
	case rectDisjoint:
		lo[axis] = mbr.Hi[axis] + u()*mbr.Side(axis)
		hi[axis] = lo[axis] + mbr.Side(axis)
	case rectZeroWidth:
		lo[axis] = mbr.Lo[axis] + u()*mbr.Side(axis)
		hi[axis] = lo[axis]
	}
	return geom.NewRect(lo, hi)
}

// checkExactProb holds p.ExactProb(rq) to the properties of a probability
// — in [0, 1], exactly 1 on a containing and exactly 0 on a disjoint or
// flat rectangle, monotone under containment (to rounding, 1e-15),
// additive over a split along an axis to 1e-12 — and, unless refTol is 0,
// to the Simpson reference run at refTol.
func checkExactProb(t *testing.T, p PDF, rq geom.Rect, kind int, u func() float64, refTol float64) {
	t.Helper()
	exact := p.ExactProb
	got := exact(rq)
	if !(got >= 0 && got <= 1) {
		t.Fatalf("%T %v rq=%v: %v is not a probability", p, p.MBR(), rq, got)
	}
	if want := map[int]float64{rectContaining: 1, rectDisjoint: 0, rectZeroWidth: 0}; want[kind] != got && (kind == rectContaining || kind == rectDisjoint || kind == rectZeroWidth) {
		t.Fatalf("%T %v rq=%v: %v, want exactly %v", p, p.MBR(), rq, got, want[kind])
	}
	d := rq.Dim()
	in := rq.Clone()
	for i := range in.Lo {
		w := in.Hi[i] - in.Lo[i]
		in.Lo[i] += u() * w / 2
		in.Hi[i] -= u() * w / 2
	}
	if pin := exact(in); pin > got+1e-15 {
		t.Fatalf("%T %v: rq=%v gives %.17g, the smaller %v gives %.17g", p, p.MBR(), rq, got, in, pin)
	}
	axis := min(int(u()*float64(d)), d-1)
	left, right := rq.Clone(), rq.Clone()
	left.Hi[axis] = rq.Lo[axis] + u()*(rq.Hi[axis]-rq.Lo[axis])
	right.Lo[axis] = left.Hi[axis]
	if pl, pr := exact(left), exact(right); math.Abs(pl+pr-got) > 1e-12 {
		t.Fatalf("%T %v rq=%v: %.17g, split on axis %d into %.17g + %.17g", p, p.MBR(), rq, got, axis, pl, pr)
	}
	if refTol > 0 {
		if want := simpsonExactProb(p, rq, refTol, false); math.Abs(got-want) > refAgree {
			t.Fatalf("%T %v %v rq=%v: %.15f, Simpson at %g %.15f", p, p.Center(), p.MBR(), rq, got, refTol, want)
		}
	}
}

// TestExactProbMatchesReference: the uniform ball and the Con-Gau at four
// r/σ, in 2-D and 3-D, on 10⁴ rectangles each cycling through the named
// kinds (the 3-D Con-Gau, at ≈ 0.6 ms a call, on 1000). The properties are
// checked on every rectangle and the reference on a stride of them: in 2-D
// it is the Simpson chord integral, in 3-D Simpson over z of the product's
// slices — which the 2-D cases hold to the chord integral — and, outside
// -short, one rectangle a shape against the fully nested Simpson, which
// takes a second and is good to ≈ 1e-10 itself.
func TestExactProbMatchesReference(t *testing.T) {
	for family := 0; family < 2; family++ {
		for _, d := range []int{2, 3} {
			for ratio := range ballRatios {
				if family == 0 && ratio > 0 {
					break
				}
				rects, stride := 10000, 20
				if family == 1 && d == 3 {
					rects, stride = 1000, 100
				}
				if testing.Short() {
					rects /= 10
				}
				t.Run(ballName(family, d, ratio), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*family + 10*d + ratio)))
					for shape := 0; shape < 10; shape++ {
						ctr := geom.Point{(rng.Float64() - 0.5) * 4000, (rng.Float64() - 0.5) * 4000, (rng.Float64() - 0.5) * 4000}
						p := ballPDF(family, d, ratio, ctr, 1+300*rng.Float64())
						for q := 0; q < rects/10; q++ {
							kind := q % rectKinds
							tol := 0.0
							if q%stride == 0 {
								tol = refTol
							}
							checkExactProb(t, p, ballRect(kind, p.MBR(), rng.Float64), kind, rng.Float64, tol)
						}
						if d == 3 && shape == 0 && !testing.Short() {
							rq := ballRect(rectStraddle, p.MBR(), rng.Float64)
							if got, want := p.ExactProb(rq), simpsonExactProb(p, rq, 1e-12, true); math.Abs(got-want) > 1e-9 {
								t.Fatalf("%T %v rq=%v: %.15f, nested Simpson %.15f", p, p.MBR(), rq, got, want)
							}
						}
					}
				})
			}
		}
	}
}

// TestMarginalCDFMatchesReference: the same shapes plus the uniform ball in
// 4, 5 and 7 dimensions, at both faces of 10⁴ rectangles each on every
// axis. MarginalCDF is in [0, 1], exactly 0 and 1 at the MBR's faces,
// monotone to rounding, and within 1e-10 of Simpson on a stride of them.
func TestMarginalCDFMatchesReference(t *testing.T) {
	type shape struct {
		name string
		mk   func(ctr geom.Point, r float64) PDF
	}
	var shapes []shape
	for family := 0; family < 2; family++ {
		for _, d := range []int{2, 3} {
			for ratio := range ballRatios {
				if family == 0 && ratio > 0 {
					break
				}
				shapes = append(shapes, shape{ballName(family, d, ratio), func(ctr geom.Point, r float64) PDF { return ballPDF(family, d, ratio, ctr, r) }})
			}
		}
	}
	for _, d := range []int{4, 5, 7} {
		shapes = append(shapes, shape{fmt.Sprintf("uniform-ball-%dd", d), func(ctr geom.Point, r float64) PDF { return NewUniformBall(ctr[:d], r) }})
	}
	rects, stride := 10000, 10
	if testing.Short() {
		rects, stride = 1000, 100
	}
	for k, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(k)))
			for n := 0; n < 10; n++ {
				ctr := make(geom.Point, 7)
				for i := range ctr {
					ctr[i] = (rng.Float64() - 0.5) * 4000
				}
				p := s.mk(ctr, 1+300*rng.Float64())
				mbr := p.MBR()
				for dim := range mbr.Lo {
					if lo, hi := p.MarginalCDF(dim, mbr.Lo[dim]), p.MarginalCDF(dim, mbr.Hi[dim]); lo != 0 || hi != 1 {
						t.Fatalf("%v dim %d: CDF %v at the low face, %v at the high face", mbr, dim, lo, hi)
					}
				}
				for q := 0; q < rects/10; q++ {
					rq := ballRect(q%rectKinds, mbr, rng.Float64)
					dim := q % p.Dim()
					lo, hi := p.MarginalCDF(dim, rq.Lo[dim]), p.MarginalCDF(dim, rq.Hi[dim])
					if !(0 <= lo && lo <= hi+1e-15 && hi <= 1) {
						t.Fatalf("%v dim %d: CDF %v at %v, %v at %v", mbr, dim, lo, rq.Lo[dim], hi, rq.Hi[dim])
					}
					if q%stride != 0 {
						continue
					}
					for _, x := range []float64{rq.Lo[dim], rq.Hi[dim]} {
						if got, want := p.MarginalCDF(dim, x), simpsonMarginalCDF(p, dim, x, refTol); math.Abs(got-want) > refAgree {
							t.Fatalf("%v dim %d x=%v: %.15f, Simpson at %g %.15f", mbr, dim, x, got, refTol, want)
						}
					}
				}
			}
		})
	}
}

// The families FuzzExactProb draws from its first byte: the two balls,
// which keep their Simpson reference, then the other six.
const (
	famUniformBall = iota
	famConGau
	famUniformRect
	famGaussRect
	famExpoRect
	famHistogram
	famPolygon // 2-D only
	famMixture
	pdfFamilies
)

// fuzzPDF builds a pdf of the family and dimensionality from a stream of
// uniform [0, 1) variates: centres within ±2000, extents up to 400.
func fuzzPDF(family, d int, u func() float64) PDF {
	if family <= famConGau {
		ratio := min(int(u()*float64(len(ballRatios))), len(ballRatios)-1)
		ctr := geom.Point{(u() - 0.5) * 4000, (u() - 0.5) * 4000, (u() - 0.5) * 4000}
		return ballPDF(family, d, ratio, ctr, 1+300*u())
	}
	ctr := make(geom.Point, d)
	for i := range ctr {
		ctr[i] = (u() - 0.5) * 4000
	}
	box := func() geom.Rect {
		lo, hi := make(geom.Point, d), make(geom.Point, d)
		for i := range lo {
			half := 1 + 200*u()
			lo[i], hi[i] = ctr[i]-half, ctr[i]+half
		}
		return geom.NewRect(lo, hi)
	}
	switch family {
	case famUniformRect:
		return NewUniformRect(box())
	case famGaussRect:
		b := box()
		mu, sigma := make(geom.Point, d), make([]float64, d)
		for i := range mu {
			mu[i], sigma[i] = b.Lo[i]+u()*b.Side(i), (0.1+2*u())*b.Side(i)
		}
		return NewGaussRect(b, mu, sigma)
	case famExpoRect:
		b := box()
		rate := make([]float64, d)
		for i := range rate {
			rate[i] = 6 * u() / b.Side(i)
		}
		return NewExpoRect(b, rate)
	case famHistogram:
		bins, cells := make([]int, d), 1
		for i := range bins {
			bins[i] = 1 + int(4*u())
			cells *= bins[i]
		}
		w := make([]float64, cells)
		for i := range w {
			if w[i] = u(); w[i] < 0.2 {
				w[i] = 0 // empty cells
			}
		}
		w[min(int(u()*float64(cells)), cells-1)] = 1
		return NewHistogramRect(box(), bins, w)
	case famPolygon:
		// Points on an ellipse are in convex position and never collinear.
		n := 3 + int(6*u())
		a, b := 1+200*u(), 1+200*u()
		pts := make([]geom.Point, n)
		for k := range pts {
			th := 2 * math.Pi * (float64(k) + 0.8*u()) / float64(n)
			pts[k] = geom.Point{ctr[0] + a*math.Cos(th), ctr[1] + b*math.Sin(th)}
		}
		return NewUniformPolygon(pts)
	}
	// Two components of the families before the polygon, centred within
	// ±200 of the origin so that their supports overlap in part.
	comps := make([]PDF, 2)
	for k := range comps {
		comps[k] = fuzzPDF(min(int(u()*famPolygon), famPolygon-1), d, func() float64 { return 0.45 + 0.1*u() })
	}
	return NewMixture(comps, []float64{0.1 + u(), 0.1 + u()})
}

// FuzzExactProb drives checkExactProb from the fuzzer's bytes: family,
// dimensionality and rectangle kind from the first three, the family's
// parameters and every coordinate from the rest. Every family gets the
// properties; the balls also get the reference, at 1e-12, ten times faster
// than refTol and still well inside refAgree.
func FuzzExactProb(f *testing.F) {
	for family := 0; family < pdfFamilies; family++ {
		for kind := 0; kind < rectKinds; kind++ {
			f.Add([]byte{byte(family), 2, byte(kind)})
			f.Add([]byte{byte(family), 3, byte(kind), 0xff, 0xff, 0, 0, 0xff, 0xff, 0, 1, 0x80, 0, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		family, d, kind := int(data[0])%pdfFamilies, 2+int(data[1])%2, int(data[2])%rectKinds
		if family == famPolygon {
			d = 2
		}
		src := data[3:]
		u := func() float64 {
			if len(src) < 2 {
				return 0.5
			}
			v := float64(uint16(src[0])<<8|uint16(src[1])) / 65536
			src = src[2:]
			return v
		}
		p, ref := fuzzPDF(family, d, u), 0.0
		if family <= famConGau {
			ref = 1e-12
		}
		checkExactProb(t, p, ballRect(kind, p.MBR(), u), kind, u, ref)
	})
}

// benchBalls is one pdf of each ball family and dimensionality at the
// paper's sizes (r = 250, σ = 125 for CA).
func benchBalls() []namedBall {
	ctr := geom.Point{350, 350, 250, 100, 100}
	return []namedBall{
		{"uniform-ball-2d", NewUniformBall(ctr[:2], 250)},
		{"uniform-ball-3d", NewUniformBall(ctr[:3], 250)},
		{"uniform-ball-5d", NewUniformBall(ctr[:5], 250)},
		{"con-gau-2d", NewConGauBall(ctr[:2], 250, 125)},
		{"con-gau-3d", NewConGauBall(ctr[:3], 250, 125)},
	}
}

type namedBall struct {
	name string
	pdf  PDF
}

// benchQuery clips a ball of benchBalls on every axis, with a corner inside
// it, as a refinement candidate's rectangle does.
func benchQuery(d int) geom.Rect {
	return geom.NewRect(geom.Point{280, 300, 120, -1000, -1000}[:d], geom.Point{900, 460, 900, 1000, 1000}[:d])
}

// TestExactProbAllocatesNothing: the fixed rule and the closed forms run on
// the stack.
func TestExactProbAllocatesNothing(t *testing.T) {
	for _, b := range benchBalls() {
		if b.pdf.Dim() > 3 {
			continue
		}
		rq := benchQuery(b.pdf.Dim())
		if n := testing.AllocsPerRun(20, func() { b.pdf.ExactProb(rq) }); n != 0 {
			t.Errorf("%s: ExactProb allocates %v times a call", b.name, n)
		}
		if n := testing.AllocsPerRun(20, func() { b.pdf.MarginalCDF(0, 400) }); n != 0 {
			t.Errorf("%s: MarginalCDF allocates %v times a call", b.name, n)
		}
	}
}

var ballSink float64

// BenchmarkExactProb is what one exact refinement costs per family and
// dimensionality.
func BenchmarkExactProb(b *testing.B) {
	for _, nb := range benchBalls() {
		if nb.pdf.Dim() > 3 {
			continue
		}
		p, rq := nb.pdf, benchQuery(nb.pdf.Dim())
		b.Run(nb.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ballSink += p.ExactProb(rq)
			}
		})
	}
}

// BenchmarkMarginalCDF is what one marginal costs per family and
// dimensionality: what a quantile bisection pays per step, and what a CDF
// table pays per knot.
func BenchmarkMarginalCDF(b *testing.B) {
	for _, nb := range benchBalls() {
		p, x := nb.pdf, nb.pdf.Center()[0]+100
		b.Run(nb.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ballSink += p.MarginalCDF(0, x)
			}
		})
	}
}

// TestQuadrantMassIsExactProbAtOrigin: a uniform disk's quadrant mass at
// offsets (a, b) is bit for bit ExactProb of the quadrant beyond them on
// the disk moved to the origin — what a quadrant table is built from — for
// radii from 10⁻³ to 10⁴, offsets across [0, 1.1 r]² and on the circle.
func TestQuadrantMassIsExactProbAtOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 0; n < 10000; n++ {
		r := math.Pow(10, -3+7*rng.Float64())
		u := NewUniformBall(geom.Point{rng.Float64() * 1e6, -rng.Float64() * 1e6}, r)
		origin := NewUniformBall(geom.Point{0, 0}, r)
		a, b := 1.1*r*rng.Float64(), 1.1*r*rng.Float64()
		if n%4 == 0 {
			th := rng.Float64() * math.Pi / 2
			a, b = r*math.Cos(th), r*math.Sin(th)
		}
		want := origin.ExactProb(geom.NewRect(geom.Point{a, b}, geom.Point{2 * r, 2 * r}))
		if got := u.QuadrantMass(a, b); got != want {
			t.Fatalf("r=%v (%v, %v): QuadrantMass %v, ExactProb at the origin %v", r, a, b, got, want)
		}
	}
}
