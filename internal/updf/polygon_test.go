package updf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func pentagon() *UniformPolygon {
	// Convex pentagon roughly centered at (100, 100).
	return NewUniformPolygon([]geom.Point{
		{60, 80}, {100, 50}, {145, 75}, {135, 130}, {75, 140},
	})
}

func TestPolygonAreaAndMBR(t *testing.T) {
	sq := NewUniformPolygon([]geom.Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}})
	if math.Abs(sq.Area()-100) > 1e-12 {
		t.Fatalf("square area = %g", sq.Area())
	}
	mbr := sq.MBR()
	if !mbr.Equal(geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10})) {
		t.Fatalf("square MBR = %v", mbr)
	}
	tri := NewUniformPolygon([]geom.Point{{0, 0}, {4, 0}, {0, 3}})
	if math.Abs(tri.Area()-6) > 1e-12 {
		t.Fatalf("triangle area = %g", tri.Area())
	}
}

func TestPolygonHullFromUnorderedInput(t *testing.T) {
	// Same square with shuffled vertices and an interior point: the hull
	// must discard the interior point.
	sq := NewUniformPolygon([]geom.Point{{10, 10}, {0, 0}, {5, 5}, {10, 0}, {0, 10}})
	if math.Abs(sq.Area()-100) > 1e-12 {
		t.Fatalf("hull area = %g, want 100", sq.Area())
	}
	if len(sq.verts) != 4 {
		t.Fatalf("hull has %d vertices, want 4", len(sq.verts))
	}
}

func TestPolygonDensityAndContainment(t *testing.T) {
	p := pentagon()
	in := geom.Point{100, 100}
	out := geom.Point{200, 200}
	if p.Density(in) <= 0 {
		t.Fatal("interior point has zero density")
	}
	if math.Abs(p.Density(in)-1/p.Area()) > 1e-15 {
		t.Fatal("density is not 1/area")
	}
	if p.Density(out) != 0 {
		t.Fatal("exterior point has positive density")
	}
}

func TestPolygonMarginalCDF(t *testing.T) {
	// Square: marginals are linear.
	sq := NewUniformPolygon([]geom.Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}})
	if got := sq.MarginalCDF(0, 5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("square CDF(5) = %g", got)
	}
	// Right triangle (0,0)-(4,0)-(0,4): P(x ≤ 2) = 1 − (2/4)² = 0.75.
	tri := NewUniformPolygon([]geom.Point{{0, 0}, {4, 0}, {0, 4}})
	if got := tri.MarginalCDF(0, 2); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("triangle CDF(2) = %g, want 0.75", got)
	}
	// Generic polygon: monotone, 0/1 at extremes, consistent with sampling.
	p := pentagon()
	prev := -1.0
	for x := 55.0; x <= 150; x += 5 {
		c := p.MarginalCDF(0, x)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %g", x)
		}
		prev = c
	}
}

func TestPolygonExactProbAgainstMonteCarlo(t *testing.T) {
	p := pentagon()
	rng := rand.New(rand.NewSource(8))
	queries := []geom.Rect{
		geom.NewRect(geom.Point{80, 80}, geom.Point{120, 120}),
		geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100}),
		geom.NewRect(geom.Point{50, 40}, geom.Point{150, 150}), // superset
		geom.NewRect(geom.Point{300, 300}, geom.Point{400, 400}),
	}
	for qi, rq := range queries {
		want := p.ExactProb(rq)
		got := MonteCarloProb(p, rq, 300000, rng)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("query %d: exact %g vs MC %g", qi, want, got)
		}
	}
	// Full containment must be exactly 1.
	if got := p.ExactProb(geom.NewRect(geom.Point{0, 0}, geom.Point{500, 500})); math.Abs(got-1) > 1e-9 {
		t.Fatalf("superset prob = %g", got)
	}
}

func TestPolygonSamplesInside(t *testing.T) {
	p := pentagon()
	rng := rand.New(rand.NewSource(4))
	pt := make(geom.Point, 2)
	for i := 0; i < 5000; i++ {
		p.SampleUniform(rng, pt)
		if p.Density(pt) == 0 {
			t.Fatalf("sample %v outside polygon", pt)
		}
	}
}

func TestPolygonQuantileRoundTrip(t *testing.T) {
	p := pentagon()
	for dim := 0; dim < 2; dim++ {
		for _, prob := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			x := MarginalQuantile(p, dim, prob)
			if got := p.MarginalCDF(dim, x); math.Abs(got-prob) > 1e-6 {
				t.Fatalf("dim %d: CDF(Q(%g)) = %g", dim, prob, got)
			}
		}
	}
}

func TestPolygonShapeKeyTranslation(t *testing.T) {
	a := NewUniformPolygon([]geom.Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}})
	b := NewUniformPolygon([]geom.Point{{500, 700}, {510, 700}, {510, 710}, {500, 710}})
	c := NewUniformPolygon([]geom.Point{{0, 0}, {20, 0}, {20, 10}, {0, 10}})
	if a.ShapeKey() != b.ShapeKey() {
		t.Error("translated polygons should share a key")
	}
	if a.ShapeKey() == c.ShapeKey() {
		t.Error("different polygons must not share a key")
	}
}

func TestPolygonCentroid(t *testing.T) {
	sq := NewUniformPolygon([]geom.Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}})
	c := sq.Center()
	if math.Abs(c[0]-5) > 1e-12 || math.Abs(c[1]-5) > 1e-12 {
		t.Fatalf("centroid = %v", c)
	}
}

func TestPolygonPanics(t *testing.T) {
	cases := []func(){
		func() { NewUniformPolygon([]geom.Point{{0, 0}, {1, 1}}) },                  // too few
		func() { NewUniformPolygon([]geom.Point{{0, 0}, {1, 1}, {2, 2}}) },          // collinear
		func() { NewUniformPolygon([]geom.Point{{0, 0, 0}, {1, 1, 0}, {2, 0, 0}}) }, // 3D points
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestPolygonCodecRoundTrip(t *testing.T) {
	p := pentagon()
	buf, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	qq, ok := q.(*UniformPolygon)
	if !ok {
		t.Fatalf("decoded type %T", q)
	}
	if math.Abs(qq.Area()-p.Area()) > 1e-9 {
		t.Fatalf("area changed: %g vs %g", qq.Area(), p.Area())
	}
	rq := geom.NewRect(geom.Point{80, 80}, geom.Point{120, 120})
	if math.Abs(qq.ExactProb(rq)-p.ExactProb(rq)) > 1e-12 {
		t.Fatal("probability changed through codec")
	}
}

func TestMixtureBasics(t *testing.T) {
	a := NewUniformBall(geom.Point{100, 100}, 20)
	b := NewUniformBall(geom.Point{200, 100}, 30)
	m := NewMixture([]PDF{a, b}, []float64{1, 3})
	if m.Dim() != 2 || m.Components() != 2 {
		t.Fatal("mixture metadata wrong")
	}
	// Weights normalized.
	if _, w := m.Component(0); math.Abs(w-0.25) > 1e-12 {
		t.Fatalf("weight = %g", w)
	}
	// MBR is the union.
	mbr := m.MBR()
	if mbr.Lo[0] != 80 || mbr.Hi[0] != 230 {
		t.Fatalf("MBR = %v", mbr)
	}
}

func TestMixtureExactAndMarginals(t *testing.T) {
	a := NewUniformRect(geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10}))
	b := NewUniformRect(geom.NewRect(geom.Point{20, 0}, geom.Point{30, 10}))
	m := NewMixture([]PDF{a, b}, []float64{0.5, 0.5})
	// Query covering only a: P = 0.5.
	q := geom.NewRect(geom.Point{-1, -1}, geom.Point{11, 11})
	if got := m.ExactProb(q); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("P = %g, want 0.5", got)
	}
	// CDF at the gap between components: exactly 0.5.
	if got := m.MarginalCDF(0, 15); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CDF(15) = %g", got)
	}
}

func TestMixtureMonteCarloAgreement(t *testing.T) {
	a := NewGaussRect(geom.NewRect(geom.Point{0, 0}, geom.Point{40, 40}),
		geom.Point{20, 20}, []float64{10, 10})
	b := NewUniformBall(geom.Point{80, 20}, 15)
	m := NewMixture([]PDF{a, b}, []float64{2, 1})
	rng := rand.New(rand.NewSource(12))
	for qi, rq := range []geom.Rect{
		geom.NewRect(geom.Point{10, 10}, geom.Point{30, 30}),
		geom.NewRect(geom.Point{60, 0}, geom.Point{100, 40}),
		geom.NewRect(geom.Point{0, 0}, geom.Point{100, 40}),
	} {
		want := m.ExactProb(rq)
		got := MonteCarloProb(m, rq, 400000, rng)
		if math.Abs(got-want) > 0.012 {
			t.Errorf("query %d: exact %g vs MC %g", qi, want, got)
		}
	}
}

func TestMixtureQuantiles(t *testing.T) {
	a := NewUniformRect(geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10}))
	b := NewUniformRect(geom.NewRect(geom.Point{20, 0}, geom.Point{30, 10}))
	m := NewMixture([]PDF{a, b}, []float64{0.5, 0.5})
	// 25% quantile on x: middle of the first component = 5.
	if got := MarginalQuantile(m, 0, 0.25); math.Abs(got-5) > 1e-6 {
		t.Fatalf("Q(0.25) = %g", got)
	}
	// 75% quantile: middle of the second = 25.
	if got := MarginalQuantile(m, 0, 0.75); math.Abs(got-25) > 1e-6 {
		t.Fatalf("Q(0.75) = %g", got)
	}
}

func TestMixtureCodecRoundTrip(t *testing.T) {
	m := NewMixture(
		[]PDF{
			NewUniformBall(geom.Point{10, 10}, 5),
			NewExpoRect(geom.NewRect(geom.Point{30, 0}, geom.Point{50, 20}), []float64{0.2, 0}),
		},
		[]float64{0.3, 0.7},
	)
	buf, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	qm, ok := q.(*Mixture)
	if !ok {
		t.Fatalf("decoded type %T", q)
	}
	rq := geom.NewRect(geom.Point{5, 5}, geom.Point{40, 15})
	if math.Abs(qm.ExactProb(rq)-m.ExactProb(rq)) > 1e-12 {
		t.Fatal("probability changed through codec")
	}
}

func TestMixturePanics(t *testing.T) {
	ball := NewUniformBall(geom.Point{0, 0}, 1)
	cases := []func(){
		func() { NewMixture(nil, nil) },
		func() { NewMixture([]PDF{ball}, []float64{1, 2}) },
		func() { NewMixture([]PDF{ball}, []float64{-1}) },
		func() { NewMixture([]PDF{ball}, []float64{0}) },
		func() {
			NewMixture([]PDF{ball, NewUniformBall(geom.Point{0, 0, 0}, 1)}, []float64{1, 1})
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestPolygonAndMixtureFilterSoundness pushes the new pdfs through the PCR
// machinery indirectly: their marginal quantiles must be consistent enough
// that pcr-nesting holds (checked by Compute in package pcr; here we verify
// the underlying monotonicity of quantiles).
func TestPolygonAndMixtureQuantileMonotone(t *testing.T) {
	pdfs := []PDF{
		pentagon(),
		NewMixture([]PDF{
			NewUniformBall(geom.Point{50, 50}, 10),
			NewUniformBall(geom.Point{90, 60}, 15),
		}, []float64{1, 1}),
	}
	for pi, p := range pdfs {
		for dim := 0; dim < 2; dim++ {
			prev := math.Inf(-1)
			for _, prob := range []float64{0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95} {
				q := MarginalQuantile(p, dim, prob)
				if q < prev-1e-9 {
					t.Fatalf("pdf %d dim %d: quantiles not monotone", pi, dim)
				}
				prev = q
			}
		}
	}
}
