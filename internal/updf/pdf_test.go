package updf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// allPDFs returns one instance of each of the eight families for generic
// conformance tests, all 2-dimensional and roughly co-located.
func allPDFs() map[string]PDF {
	rect := geom.NewRect(geom.Point{100, 200}, geom.Point{300, 500})
	return map[string]PDF{
		"uniform-ball": NewUniformBall(geom.Point{200, 350}, 120),
		"uniform-rect": NewUniformRect(rect),
		"congau-ball":  NewConGauBall(geom.Point{200, 350}, 120, 60),
		"gauss-rect":   NewGaussRect(rect, geom.Point{180, 400}, []float64{70, 90}),
		"expo-rect":    NewExpoRect(rect, []float64{0.01, 0.004}),
		"histogram": NewHistogramRect(rect, []int{4, 3}, []float64{
			1, 2, 3,
			4, 0, 2,
			5, 1, 1,
			2, 2, 7,
		}),
		"polygon": NewUniformPolygon([]geom.Point{{120, 220}, {290, 260}, {260, 480}, {150, 430}, {110, 330}}),
		"mixture": NewMixture([]PDF{
			NewConGauBall(geom.Point{160, 300}, 60, 30),
			NewUniformRect(geom.NewRect(geom.Point{200, 380}, geom.Point{300, 500})),
		}, []float64{2, 1}),
	}
}

func TestMarginalCDFBounds(t *testing.T) {
	for name, p := range allPDFs() {
		mbr := p.MBR()
		for dim := 0; dim < p.Dim(); dim++ {
			if got := p.MarginalCDF(dim, mbr.Lo[dim]-1); got != 0 {
				t.Errorf("%s: CDF below region = %g, want 0", name, got)
			}
			if got := p.MarginalCDF(dim, mbr.Hi[dim]+1); got != 1 {
				t.Errorf("%s: CDF above region = %g, want 1", name, got)
			}
			// Monotone over a sweep.
			prev := -1.0
			for k := 0; k <= 50; k++ {
				x := mbr.Lo[dim] + (mbr.Hi[dim]-mbr.Lo[dim])*float64(k)/50
				c := p.MarginalCDF(dim, x)
				if c < prev-1e-9 {
					t.Fatalf("%s dim %d: CDF not monotone at x=%g: %g < %g", name, dim, x, c, prev)
				}
				if c < -1e-12 || c > 1+1e-12 {
					t.Fatalf("%s dim %d: CDF out of range: %g", name, dim, c)
				}
				prev = c
			}
		}
	}
}

func TestMarginalCDFMatchesMonteCarlo(t *testing.T) {
	// Empirical check: fraction of pdf-weighted samples left of x must match
	// MarginalCDF. Uses importance weighting with uniform region samples.
	rng := rand.New(rand.NewSource(17))
	for name, p := range allPDFs() {
		mbr := p.MBR()
		for dim := 0; dim < p.Dim(); dim++ {
			x := mbr.Lo[dim] + 0.6*(mbr.Hi[dim]-mbr.Lo[dim])
			want := p.MarginalCDF(dim, x)
			const n = 120000
			pt := make(geom.Point, p.Dim())
			var num, den float64
			for i := 0; i < n; i++ {
				p.SampleUniform(rng, pt)
				w := p.Density(pt)
				den += w
				if pt[dim] <= x {
					num += w
				}
			}
			got := num / den
			if math.Abs(got-want) > 0.015 {
				t.Errorf("%s dim %d: empirical CDF %g vs analytic %g", name, dim, got, want)
			}
		}
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	// Monte-Carlo integral of the density over the region ≈ 1:
	// E_uniform[pdf] · Vol(region) = 1.
	rng := rand.New(rand.NewSource(23))
	pdfs := allPDFs()
	vol := map[string]float64{
		"uniform-ball": math.Pi * 120 * 120,
		"uniform-rect": 200 * 300,
		"congau-ball":  math.Pi * 120 * 120,
		"gauss-rect":   200 * 300,
		"expo-rect":    200 * 300,
		"histogram":    200 * 300,
		"polygon":      pdfs["polygon"].(*UniformPolygon).Area(),
		"mixture":      pdfs["mixture"].MBR().Area(), // it samples its MBR
	}
	for name, p := range pdfs {
		const n = 200000
		pt := make(geom.Point, p.Dim())
		var sum float64
		for i := 0; i < n; i++ {
			p.SampleUniform(rng, pt)
			sum += p.Density(pt)
		}
		integral := sum / float64(n) * vol[name]
		if math.Abs(integral-1) > 0.02 {
			t.Errorf("%s: ∫pdf = %g, want 1", name, integral)
		}
	}
}

func TestSamplesInsideRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for name, p := range allPDFs() {
		mbr := p.MBR()
		pt := make(geom.Point, p.Dim())
		for i := 0; i < 5000; i++ {
			p.SampleUniform(rng, pt)
			if !mbr.ContainsPoint(pt) {
				t.Fatalf("%s: sample %v outside MBR %v", name, pt, mbr)
			}
			// Ball samplers must stay in the ball, not just the MBR.
			if name == "uniform-ball" || name == "congau-ball" {
				if !inBall(geom.Point{200, 350}, 120+1e-9, pt) {
					t.Fatalf("%s: sample %v outside ball", name, pt)
				}
			}
		}
	}
}

func TestExactProbAgainstMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	queries := []geom.Rect{
		geom.NewRect(geom.Point{150, 250}, geom.Point{250, 420}), // overlaps center
		geom.NewRect(geom.Point{90, 190}, geom.Point{310, 510}),  // covers everything
		geom.NewRect(geom.Point{0, 0}, geom.Point{50, 50}),       // disjoint
		geom.NewRect(geom.Point{200, 350}, geom.Point{600, 800}), // corner overlap
	}
	for name, p := range allPDFs() {
		for qi, rq := range queries {
			want := p.ExactProb(rq)
			got := MonteCarloProb(p, rq, 400000, rng)
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s query %d: exact %g vs monte-carlo %g", name, qi, want, got)
			}
		}
	}
}

func TestExactProbFullAndEmpty(t *testing.T) {
	for name, p := range allPDFs() {
		mbr := p.MBR()
		big := geom.NewRect(
			geom.Point{mbr.Lo[0] - 10, mbr.Lo[1] - 10},
			geom.Point{mbr.Hi[0] + 10, mbr.Hi[1] + 10},
		)
		if got := p.ExactProb(big); math.Abs(got-1) > 1e-6 {
			t.Errorf("%s: prob over superset = %g, want 1", name, got)
		}
		far := geom.NewRect(geom.Point{1e6, 1e6}, geom.Point{1e6 + 1, 1e6 + 1})
		if got := p.ExactProb(far); got != 0 {
			t.Errorf("%s: prob over distant rect = %g, want 0", name, got)
		}
	}
}

// unitSquare is [0, 1]² and leftHalf its x ≤ 1/2 half: the region and
// query of the Monte-Carlo tests below.
var unitSquare, leftHalf = geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}), geom.NewRect(geom.Point{0, 0}, geom.Point{0.5, 1})

func TestMonteCarloUniformBox(t *testing.T) {
	// Uniform pdf on [0,1]²; query covers the left half: P = 0.5 exactly.
	rng := rand.New(rand.NewSource(42))
	if got := MonteCarloProb(NewUniformRect(unitSquare), leftHalf, 200000, rng); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("P = %g, want ≈0.5", got)
	}
}

func TestMonteCarloFullContainmentExactlyOne(t *testing.T) {
	// Numerator and denominator sum the same weights in the same order.
	rng := rand.New(rand.NewSource(7))
	p := NewGaussRect(unitSquare, geom.Point{0.3, 0.6}, []float64{0.2, 0.4})
	if got := MonteCarloProb(p, geom.NewRect(geom.Point{-1, -1}, geom.Point{2, 2}), 1000, rng); got != 1 {
		t.Fatalf("P = %g, want exactly 1 (n2 = n1 special case)", got)
	}
}

func TestMonteCarloDisjointZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if got := MonteCarloProb(NewUniformRect(unitSquare), geom.NewRect(geom.Point{5, 5}, geom.Point{6, 6}), 1000, rng); got != 0 {
		t.Fatalf("disjoint query: P = %g", got)
	}
}

func TestMonteCarloWeightedPDF(t *testing.T) {
	// A skewed density, weighted sample by sample, against its exact value.
	rng := rand.New(rand.NewSource(99))
	p := NewExpoRect(unitSquare, []float64{3, 0})
	if got, want := MonteCarloProb(p, leftHalf, 400000, rng), p.ExactProb(leftHalf); math.Abs(got-want) > 0.01 {
		t.Fatalf("P = %g, exact %g", got, want)
	}
}

func TestMonteCarloZeroDensity(t *testing.T) {
	// Half the samples land in the query, all of them where the density is
	// zero: they weigh nothing.
	rng := rand.New(rand.NewSource(1))
	p := NewHistogramRect(unitSquare, []int{2, 1}, []float64{0, 1})
	if got := MonteCarloProb(p, leftHalf, 100, rng); got != 0 {
		t.Fatalf("zero-density query region should give P=0, got %g", got)
	}
}

func TestMonteCarloErrorShrinksWithSamples(t *testing.T) {
	// Relative error at n=100 should comfortably exceed error at n=100000
	// for a P=0.5 target (averaged over trials). This is the Fig. 7 shape.
	p := NewUniformRect(unitSquare)
	avgErr := func(n, trials int, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		var sum float64
		for i := 0; i < trials; i++ {
			sum += math.Abs(MonteCarloProb(p, leftHalf, n, rng)-0.5) / 0.5
		}
		return sum / float64(trials)
	}
	small := avgErr(100, 30, 5)
	large := avgErr(100000, 30, 6)
	if large >= small {
		t.Fatalf("error did not shrink: n=100 → %g, n=100000 → %g", small, large)
	}
}

func TestMarginalQuantileRoundTrip(t *testing.T) {
	for name, p := range allPDFs() {
		for dim := 0; dim < p.Dim(); dim++ {
			for _, prob := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
				x := MarginalQuantile(p, dim, prob)
				if got := p.MarginalCDF(dim, x); math.Abs(got-prob) > 1e-6 {
					t.Errorf("%s dim %d: CDF(Q(%g)) = %g", name, dim, prob, got)
				}
			}
			mbr := p.MBR()
			if got := MarginalQuantile(p, dim, 0); got != mbr.Lo[dim] {
				t.Errorf("%s: Q(0) = %g, want lo %g", name, got, mbr.Lo[dim])
			}
			if got := MarginalQuantile(p, dim, 1); got != mbr.Hi[dim] {
				t.Errorf("%s: Q(1) = %g, want hi %g", name, got, mbr.Hi[dim])
			}
		}
	}
}

func TestUniformBallMarginal3D(t *testing.T) {
	u := NewUniformBall(geom.Point{0, 0, 0}, 2)
	// At the center the CDF is 1/2 by symmetry.
	if got := u.MarginalCDF(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("3D ball CDF(0) = %g", got)
	}
	// Closed form check at t = 1, R = 2: 1/2 + 3/(4·8)·(4·1 − 1/3) = 0.84375...
	want := 0.5 + 3.0/32*(4-1.0/3)
	if got := u.MarginalCDF(0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("3D ball CDF(1) = %.15g, want %.15g", got, want)
	}
}

func TestUniformBallExactProb3D(t *testing.T) {
	u := NewUniformBall(geom.Point{0, 0, 0}, 1)
	// Half-space: exactly 1/2.
	half := geom.NewRect(geom.Point{-2, -2, -2}, geom.Point{0, 2, 2})
	if got := u.ExactProb(half); math.Abs(got-0.5) > 1e-5 {
		t.Fatalf("3D half-space prob = %g, want 0.5", got)
	}
	// Octant: exactly 1/8.
	oct := geom.NewRect(geom.Point{0, 0, 0}, geom.Point{2, 2, 2})
	if got := u.ExactProb(oct); math.Abs(got-0.125) > 1e-5 {
		t.Fatalf("3D octant prob = %g, want 0.125", got)
	}
}

func TestConGauLambdaClosedForms(t *testing.T) {
	// d=2: λ = 1 − exp(−R²/2σ²).
	g2 := NewConGauBall(geom.Point{0, 0}, 250, 125)
	want2 := 1 - math.Exp(-4.0/2)
	if math.Abs(g2.lambda-want2) > 1e-12 {
		t.Fatalf("2D λ = %.15g, want %.15g", g2.lambda, want2)
	}
	// d=1: λ = 2Φ(R/σ) − 1.
	g1 := NewConGauBall(geom.Point{0}, 2, 1)
	want1 := 2*0.9772498680518208 - 1
	if math.Abs(g1.lambda-want1) > 1e-9 {
		t.Fatalf("1D λ = %.15g, want %.15g", g1.lambda, want1)
	}
	// d=3 must match a Monte-Carlo estimate of the Gaussian ball mass.
	g3 := NewConGauBall(geom.Point{0, 0, 0}, 2, 1)
	rng := rand.New(rand.NewSource(5))
	hits := 0
	const n = 400000
	for i := 0; i < n; i++ {
		x, y, z := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		if x*x+y*y+z*z <= 4 {
			hits++
		}
	}
	mc := float64(hits) / n
	if math.Abs(g3.lambda-mc) > 0.005 {
		t.Fatalf("3D λ = %g vs monte-carlo %g", g3.lambda, mc)
	}
}

func TestConGauSymmetry(t *testing.T) {
	g := NewConGauBall(geom.Point{100, 100}, 50, 25)
	// Marginal quantiles symmetric around center.
	qlo := MarginalQuantile(g, 0, 0.2)
	qhi := MarginalQuantile(g, 0, 0.8)
	if math.Abs((100-qlo)-(qhi-100)) > 1e-6 {
		t.Fatalf("asymmetric quantiles: %g, %g", qlo, qhi)
	}
	// CDF at center = 1/2.
	if got := g.MarginalCDF(1, 100); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("CDF at center = %g", got)
	}
}

func TestConGau3DExactProbHalfSpace(t *testing.T) {
	g := NewConGauBall(geom.Point{0, 0, 0}, 2, 1)
	half := geom.NewRect(geom.Point{-3, -3, -3}, geom.Point{3, 3, 0})
	if got := g.ExactProb(half); math.Abs(got-0.5) > 1e-4 {
		t.Fatalf("3D ConGau half-space = %g, want 0.5", got)
	}
}

func TestHistogramMarginalExact(t *testing.T) {
	rect := geom.NewRect(geom.Point{0, 0}, geom.Point{4, 2})
	// 2x2 grid with masses 0.1, 0.2 / 0.3, 0.4 (row-major: x-major here).
	h := NewHistogramRect(rect, []int{2, 2}, []float64{1, 2, 3, 4})
	// proj over dim 0: slab x∈[0,2) = (1+2)/10 = 0.3, slab [2,4] = 0.7.
	if got := h.MarginalCDF(0, 2); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("CDF(x=2) = %g, want 0.3", got)
	}
	// Halfway through second slab: 0.3 + 0.5·0.7 = 0.65.
	if got := h.MarginalCDF(0, 3); math.Abs(got-0.65) > 1e-12 {
		t.Fatalf("CDF(x=3) = %g, want 0.65", got)
	}
	// proj over dim 1: slab y∈[0,1) = (1+3)/10 = 0.4.
	if got := h.MarginalCDF(1, 1); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("CDF(y=1) = %g, want 0.4", got)
	}
	// ExactProb of one full cell.
	cell := geom.NewRect(geom.Point{0, 0}, geom.Point{2, 1})
	if got := h.ExactProb(cell); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("cell prob = %g, want 0.1", got)
	}
	// Fractional overlap: half of that cell.
	halfCell := geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})
	if got := h.ExactProb(halfCell); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("half-cell prob = %g, want 0.05", got)
	}
}

func TestExpoRectSkew(t *testing.T) {
	rect := geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100})
	e := NewExpoRect(rect, []float64{0.1, 0})
	// Strong decay on x: most mass near lo. Median far left of center.
	med := MarginalQuantile(e, 0, 0.5)
	if med > 20 {
		t.Fatalf("exponential median = %g, expected ≤ 20", med)
	}
	// Rate 0 on y degrades to uniform: median at center.
	if got := MarginalQuantile(e, 1, 0.5); math.Abs(got-50) > 1e-6 {
		t.Fatalf("uniform-dim median = %g, want 50", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for name, p := range allPDFs() {
		buf, err := Encode(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		q, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		// Compare behaviourally: densities and marginals agree.
		mbr := p.MBR()
		if !q.MBR().Equal(mbr) {
			t.Fatalf("%s: MBR mismatch after round trip", name)
		}
		rng := rand.New(rand.NewSource(3))
		pt := make(geom.Point, p.Dim())
		for i := 0; i < 200; i++ {
			p.SampleUniform(rng, pt)
			if math.Abs(p.Density(pt)-q.Density(pt)) > 1e-12 {
				t.Fatalf("%s: density mismatch at %v", name, pt)
			}
		}
		for dim := 0; dim < p.Dim(); dim++ {
			x := mbr.Lo[dim] + 0.37*(mbr.Hi[dim]-mbr.Lo[dim])
			if math.Abs(p.MarginalCDF(dim, x)-q.MarginalCDF(dim, x)) > 1e-12 {
				t.Fatalf("%s: marginal mismatch", name)
			}
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},         // unknown tag
		{1, 2},       // truncated uniform ball
		{1, 0},       // zero dimension
		{2, 2, 0, 0}, // truncated rect
		{1, 17},      // absurd dimension
	}
	for i, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
}

func TestDecodeInvalidParams(t *testing.T) {
	// Encode a valid ball then corrupt the radius to a negative value; the
	// constructor panic must surface as ErrCorruptPDF, not a crash.
	p := NewUniformBall(geom.Point{0, 0}, 5)
	buf, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	// Radius is the last 8 bytes.
	for i := len(buf) - 8; i < len(buf); i++ {
		buf[i] = 0
	}
	buf[len(buf)-1] = 0xC0 // -2.0 in float64 little-endian (sign+exp bits)
	if _, err := Decode(buf); err == nil {
		t.Fatal("negative radius decoded without error")
	}
}

func TestShapeKeyTranslationInvariant(t *testing.T) {
	a := NewUniformBall(geom.Point{0, 0}, 250)
	b := NewUniformBall(geom.Point{5000, 7000}, 250)
	c := NewUniformBall(geom.Point{0, 0}, 125)
	if a.ShapeKey() != b.ShapeKey() {
		t.Error("translated balls should share a shape key")
	}
	if a.ShapeKey() == c.ShapeKey() {
		t.Error("different radii must not share a shape key")
	}
	g1 := NewConGauBall(geom.Point{1, 2}, 250, 125)
	g2 := NewConGauBall(geom.Point{9, 9}, 250, 125)
	if g1.ShapeKey() != g2.ShapeKey() {
		t.Error("translated ConGau should share a shape key")
	}
	h := NewHistogramRect(geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}), []int{1, 1}, []float64{1})
	if h.ShapeKey() != "" {
		t.Error("histogram shape key must be empty (no unsound caching)")
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewUniformBall(geom.Point{0, 0}, 0) },
		func() { NewUniformBall(geom.Point{0, 0}, -1) },
		func() { NewUniformRect(geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{0, 5}}) },
		func() { NewConGauBall(geom.Point{0, 0}, 10, 0) },
		func() { NewConGauBall(geom.Point{0, 0, 0, 0}, 10, 1) }, // d=4 unsupported
		func() { NewGaussRect(geom.NewRect(geom.Point{0}, geom.Point{1}), geom.Point{0, 0}, []float64{1}) },
		func() { NewExpoRect(geom.NewRect(geom.Point{0}, geom.Point{1}), []float64{-1}) },
		func() { NewHistogramRect(geom.NewRect(geom.Point{0}, geom.Point{1}), []int{2}, []float64{1}) },
		func() { NewHistogramRect(geom.NewRect(geom.Point{0}, geom.Point{1}), []int{1}, []float64{0}) },
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
