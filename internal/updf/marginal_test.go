package updf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestConGau3DMarginalClosedForm holds the closed-form 3-D marginal to the
// quadrature it replaced, from a nearly uniform ball (r/σ = 0.25) to a
// nearly untruncated Gaussian (r/σ = 16): to 1e-12 against the quadrature
// run at a tolerance of 1e-13, and to 1e-9 against it as the product ran it
// — Simpson's error estimate at 1e-10 undershoots its true error by up to
// 2× (1.7e-10 at r/σ = 4), which is the quadrature's error, not the
// closed form's.
func TestConGau3DMarginalClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, ratio := range []float64{0.25, 0.5, 1, 2, 4, 8, 16} {
		const r = 250.0
		g := NewConGauBall(geom.Point{1000, -400, 70}, r, r/ratio)
		for dim := 0; dim < 3; dim++ {
			offsets := []float64{-r, -r + 1e-9, -r / 2, 0, r / 3, r - 1e-9, r}
			for len(offsets) < 200 {
				offsets = append(offsets, (2*rng.Float64()-1)*r)
			}
			for _, off := range offsets {
				x := g.Ctr[dim] + off
				got := g.MarginalCDF(dim, x)
				if want := simpsonConGauMarginalCDF(g, dim, x, 1e-13); math.Abs(got-want) > 1e-12 {
					t.Fatalf("r/σ=%g dim %d offset %g: closed form %.15f, Simpson at 1e-13 %.15f", ratio, dim, off, got, want)
				}
				if was := simpsonConGauMarginalCDF(g, dim, x, 1e-10); math.Abs(got-was) > 1e-9 {
					t.Fatalf("r/σ=%g dim %d offset %g: closed form %.15f, the product's Simpson %.15f", ratio, dim, off, got, was)
				}
			}
		}
		if got := g.MarginalCDF(0, g.Ctr[0]); math.Abs(got-0.5) > 1e-12 {
			t.Fatalf("r/σ=%g: CDF at the centre %.15f, want 0.5", ratio, got)
		}
	}
}

// TestPolygonMarginalStreamsTheClip: MarginalCDF never builds the clipped
// polygon, and must still return what clipping and measuring it does, bit
// for bit — PCR quantiles are bisected on it.
func TestPolygonMarginalStreamsTheClip(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 50; trial++ {
		pts := make([]geom.Point, 3+rng.Intn(8))
		for i := range pts {
			pts[i] = geom.Point{rng.Float64() * 100, rng.Float64() * 60}
		}
		p := NewUniformPolygon(pts)
		for dim := 0; dim < 2; dim++ {
			xs := []float64{p.mbr.Lo[dim], p.mbr.Hi[dim]}
			for _, v := range p.verts {
				xs = append(xs, v[dim]) // the plane through a vertex
			}
			for len(xs) < 60 {
				xs = append(xs, p.mbr.Lo[dim]+(rng.Float64()*1.2-0.1)*p.mbr.Side(dim))
			}
			for _, x := range xs {
				want := 0.0
				switch clipped := clipHalfplane(p.verts, dim, x, true); {
				case x >= p.mbr.Hi[dim]:
					want = 1
				case x > p.mbr.Lo[dim] && len(clipped) >= 3:
					want = clamp01(polygonArea(clipped) / p.area)
				}
				if got := p.MarginalCDF(dim, x); got != want {
					t.Fatalf("trial %d dim %d x=%g: streamed %v, clipped %v", trial, dim, x, got, want)
				}
			}
		}
	}
	sq := NewUniformPolygon([]geom.Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}})
	if n := testing.AllocsPerRun(100, func() { sq.MarginalCDF(0, 3) }); n != 0 {
		t.Fatalf("MarginalCDF allocates %v times a call", n)
	}
}

func TestMarginalTable(t *testing.T) {
	rect2 := geom.NewRect(geom.Point{0, 0}, geom.Point{4, 2})
	ball2 := NewUniformBall(geom.Point{0, 0}, 5)
	for name, tc := range map[string]struct {
		p        PDF
		tabulate bool
	}{
		"uniform ball 2-D": {ball2, false},
		"uniform ball 3-D": {NewUniformBall(geom.Point{0, 0, 0}, 5), false},
		"uniform ball 4-D": {NewUniformBall(geom.Point{0, 0, 0, 0}, 5), false},
		"con-gau 1-D":      {NewConGauBall(geom.Point{0}, 5, 2), false},
		"con-gau 2-D":      {NewConGauBall(geom.Point{0, 0}, 5, 2), true},
		"con-gau 3-D":      {NewConGauBall(geom.Point{0, 0, 0}, 5, 2), false},
		"uniform rect":     {NewUniformRect(rect2), false},
		"gauss rect":       {NewGaussRect(rect2, geom.Point{1, 1}, []float64{1, 1}), false},
		"expo rect":        {NewExpoRect(rect2, []float64{1, 0}), false},
		"histogram":        {NewHistogramRect(rect2, []int{2, 1}, []float64{1, 3}), false},
		"polygon":          {NewUniformPolygon([]geom.Point{{0, 0}, {4, 0}, {0, 4}}), false},
		"mixture":          {NewMixture([]PDF{ball2, NewConGauBall(geom.Point{1, 1}, 5, 2)}, []float64{1, 1}), false},
	} {
		if got := MarginalTable(tc.p); got != tc.tabulate {
			t.Errorf("%s: tabulate = %v, want %v", name, got, tc.tabulate)
		}
	}

	if n := testing.AllocsPerRun(100, func() { MarginalTable(ball2) }); n != 0 {
		t.Errorf("MarginalTable allocates %v times a call for a built-in family", n)
	}
}
