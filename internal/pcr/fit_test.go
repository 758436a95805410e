package pcr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/updf"
)

// facesPCRs builds 1-D PCRs from explicit low and high faces.
func facesPCRs(cat Catalog, lo, hi []float64) PCRs {
	boxes := make([]geom.Rect, cat.Size())
	for j := range boxes {
		boxes[j] = geom.Rect{Lo: geom.Point{lo[j]}, Hi: geom.Point{hi[j]}}
	}
	return PCRs{Cat: cat, Boxes: boxes}
}

// randomNestedPCRs draws a nested PCR family in 1–3 dimensions: m ∈ 2…15,
// the uniform catalog or a custom one that stops short of 0.5, innermost
// faces equal (the median) or apart, steps between consecutive faces of
// any shape including zero, coordinates up to ±10⁴.
func randomNestedPCRs(rng *rand.Rand) PCRs {
	m := 2 + rng.Intn(14)
	cat := UniformCatalog(m)
	if rng.Intn(2) == 0 {
		v := make([]float64, m)
		for j := 1; j < m; j++ {
			v[j] = rng.Float64()
		}
		sort.Float64s(v)
		top := 0.05 + 0.44*rng.Float64()
		for j := 1; j < m; j++ {
			v[j] = top * (float64(j) + v[j]) / float64(m)
		}
		cat = newCatalog(v)
	}
	d := 1 + rng.Intn(3)
	boxes := make([]geom.Rect, m)
	for j := range boxes {
		boxes[j] = geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	}
	for i := 0; i < d; i++ {
		ctr := (rng.Float64() - 0.5) * 2e4
		scale := math.Pow(10, 3*rng.Float64()-1)
		step := func() float64 {
			if rng.Intn(6) == 0 {
				return 0
			}
			return scale * rng.ExpFloat64()
		}
		lo, hi := ctr, ctr
		if rng.Intn(2) == 0 {
			hi += step()
		}
		for j := m - 1; j >= 0; j-- {
			boxes[j].Lo[i], boxes[j].Hi[i] = lo, hi
			lo -= step()
			hi += step()
		}
	}
	return PCRs{Cat: cat, Boxes: boxes}
}

// extentSum is Formula 11's objective on dimension i: the summed extent of
// the box family over the catalog.
func extentSum(f faces64, cat Catalog, i int) float64 {
	var s float64
	for j := 0; j < cat.Size(); j++ {
		s += f[i].hi.at(cat.Value(j)) - f[i].lo.at(cat.Value(j))
	}
	return s
}

// ulp32 is the float32 spacing at |x|.
func ulp32(x float64) float64 {
	f := float32(math.Abs(x))
	return float64(math.Nextafter32(f, float32(math.Inf(1))) - f)
}

// checkFit holds the float64 stage of FitOut and FitIn on pcrs to the
// simplex — per dimension the same objective within 1e-6·scale, and
// Inequality 14 — and the CFBs they return to checkQuantised.
func checkFit(t *testing.T, name string, pcrs PCRs) {
	t.Helper()
	out, in := stage64(pcrs, (*fitScratch).outFaces), stage64(pcrs, (*fitScratch).inFaces)
	refOut, err := simplexFitOut(pcrs)
	if err != nil {
		t.Fatalf("%s: simplex cfb_out: %v", name, err)
	}
	refIn, err := simplexFitIn(pcrs)
	if err != nil {
		t.Fatalf("%s: simplex cfb_in: %v", name, err)
	}
	cat := pcrs.Cat
	for i := 0; i < pcrs.Boxes[0].Dim(); i++ {
		scale := float64(cat.Size()) * (1 + math.Abs(pcrs.Boxes[0].Lo[i]) + math.Abs(pcrs.Boxes[0].Hi[i]))
		if got, want := extentSum(out, cat, i), extentSum(refOut, cat, i); math.Abs(got-want) > 1e-6*scale {
			t.Fatalf("%s dim %d: cfb_out objective %.12g, simplex %.12g\npcrs %v", name, i, got, want, pcrs)
		}
		if got, want := extentSum(in, cat, i), extentSum(refIn, cat, i); math.Abs(got-want) > 1e-6*scale {
			t.Fatalf("%s dim %d: cfb_in objective %.12g, simplex %.12g\npcrs %v", name, i, got, want, pcrs)
		}
		for j := range pcrs.Boxes {
			if p := cat.Value(j); in[i].lo.at(p) > in[i].hi.at(p)+1e-9*scale {
				t.Fatalf("%s dim %d: float64 cfb_in(%g) inverted: [%v, %v]", name, i, p, in[i].lo.at(p), in[i].hi.at(p))
			}
		}
	}
	checkQuantised(t, name, pcrs)
}

// checkQuantised holds FitOut and FitIn on pcrs to what the float32 layout
// promises. Every coefficient is on the safe side of the float64 stage's —
// cfb_out: αlo↓ βlo↑ αhi↑ βhi↓, cfb_in mirrored — and within 2 ulp32 of it
// (one for the directed rounding, one for a repair step). The faces as
// CFB.Lo and CFB.Hi evaluate them cover (cfb_out) or sit inside (cfb_in,
// face by face) every PCR face with zero tolerance. The inner faces cross
// only where the float64 stage's meet or nearly do — at p_m when Inequality
// 14 binds, throughout a dimension with no extent — and there by no more
// than the coefficients moved.
func checkQuantised(t *testing.T, name string, pcrs PCRs) {
	t.Helper()
	cat := pcrs.Cat
	d := pcrs.Boxes[0].Dim()
	out, in := FitOut(pcrs), FitIn(pcrs)
	out64, in64 := stage64(pcrs, (*fitScratch).outFaces), stage64(pcrs, (*fitScratch).inFaces)
	for i := 0; i < d; i++ {
		for _, c := range []struct {
			what      string
			got, want float64
			up        bool
		}{
			{"cfb_out αlo", out.lo(i).alpha, out64[i].lo.alpha, false},
			{"cfb_out βlo", out.lo(i).beta, out64[i].lo.beta, true},
			{"cfb_out αhi", out.hi(i).alpha, out64[i].hi.alpha, true},
			{"cfb_out βhi", out.hi(i).beta, out64[i].hi.beta, false},
			{"cfb_in αlo", in.lo(i).alpha, in64[i].lo.alpha, true},
			{"cfb_in βlo", in.lo(i).beta, in64[i].lo.beta, false},
			{"cfb_in αhi", in.hi(i).alpha, in64[i].hi.alpha, false},
			{"cfb_in βhi", in.hi(i).beta, in64[i].hi.beta, true},
		} {
			if c.up && c.got < c.want || !c.up && c.got > c.want {
				t.Fatalf("%s dim %d: %s = %v on the unsafe side of the float64 stage's %v", name, i, c.what, c.got, c.want)
			}
			if math.Abs(c.got-c.want) > 2*ulp32(c.want) {
				t.Fatalf("%s dim %d: %s = %v is %.2f ulp32 from the float64 stage's %v",
					name, i, c.what, c.got, math.Abs(c.got-c.want)/ulp32(c.want), c.want)
			}
		}
		scale := 1 + math.Abs(pcrs.Boxes[0].Lo[i]) + math.Abs(pcrs.Boxes[0].Hi[i])
		for j, box := range pcrs.Boxes {
			p := cat.Value(j)
			if out.Lo(i, p) > box.Lo[i] || out.Hi(i, p) < box.Hi[i] {
				t.Fatalf("%s dim %d: cfb_out(%g) = [%v, %v] does not cover pcr [%v, %v]",
					name, i, p, out.Lo(i, p), out.Hi(i, p), box.Lo[i], box.Hi[i])
			}
			if in.Lo(i, p) < box.Lo[i] || in.Hi(i, p) > box.Hi[i] {
				t.Fatalf("%s dim %d: cfb_in(%g) faces %v, %v not inside pcr [%v, %v]",
					name, i, p, in.Lo(i, p), in.Hi(i, p), box.Lo[i], box.Hi[i])
			}
			// Inward rounding narrows the inner box by what the coefficients
			// moved, no more, so its faces cross only where the float64
			// stage's are closer than that.
			lo, hi := in.lo(i), in.hi(i)
			moved := 2 * (ulp32(lo.alpha) + ulp32(lo.beta)*p + ulp32(hi.alpha) + ulp32(hi.beta)*p)
			if narrowed := (in64[i].hi.at(p) - in64[i].lo.at(p)) - (in.Hi(i, p) - in.Lo(i, p)); narrowed > moved+1e-9*scale {
				t.Fatalf("%s dim %d: cfb_in(%g) is %g narrower than the float64 stage's, 2 ulp32 per coefficient is %g",
					name, i, p, narrowed, moved)
			}
		}
	}
}

func TestFitMatchesSimplexOnRandomFaces(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(17))
	for k := 0; k < n; k++ {
		checkFit(t, "random", randomNestedPCRs(rng))
	}
}

func TestFitMatchesSimplexOnPDFs(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pdfs := append(boundTestPDFs(rng),
		// Two separated components of equal weight: the marginal density
		// on x is zero around the median.
		updf.NewMixture([]updf.PDF{
			updf.NewUniformRect(geom.NewRect(geom.Point{100, 100}, geom.Point{120, 150})),
			updf.NewUniformBall(geom.Point{165, 125}, 15),
		}, []float64{1, 1}))
	short := newCatalog([]float64{0, 0.02, 0.1, 0.15, 0.3, 0.42})
	cats := []Catalog{UniformCatalog(2), UniformCatalog(5), UniformCatalog(10), UniformCatalog(15), short}
	for pi, p := range pdfs {
		for _, cat := range cats {
			checkFit(t, fmt.Sprintf("pdf %d (%T) m=%d", pi, p, cat.Size()), Compute(p, cat, nil))
		}
	}
}

func TestFitDegenerate(t *testing.T) {
	// A point mass: every face equal. Both boxes are that point.
	cat := UniformCatalog(7)
	same := []float64{42, 42, 42, 42, 42, 42, 42}
	pcrs := facesPCRs(cat, same, same)
	checkFit(t, "point mass", pcrs)
	for _, c := range []CFB{FitOut(pcrs), FitIn(pcrs)} {
		for j := 0; j < cat.Size(); j++ {
			if p := cat.Value(j); c.Lo(0, p) != 42 || c.Hi(0, p) != 42 {
				t.Fatalf("point mass: box(%g) = [%v, %v]", p, c.Lo(0, p), c.Hi(0, p))
			}
		}
	}

	// m = 2: each hull is the one segment between the two points, and the
	// inner faces meet at the median.
	pcrs = facesPCRs(UniformCatalog(2), []float64{0, 5}, []float64{10, 5})
	checkFit(t, "m=2", pcrs)
	if out, in := FitOut(pcrs), FitIn(pcrs); out.Lo(0, 0) != 0 || out.Hi(0, 0) != 10 || out.Lo(0, 0.5) != 5 ||
		in.Lo(0, 0) != 0 || in.Hi(0, 0) != 10 || in.Hi(0, 0.5) != 5 {
		t.Fatalf("m=2: out %+v in %+v", out, in)
	}

	// Collinear faces: the hull is one segment however many points lie on
	// it, and both boxes reproduce the PCRs.
	cat = UniformCatalog(9)
	lo, hi := make([]float64, 9), make([]float64, 9)
	for j := range lo {
		lo[j], hi[j] = 100+3*float64(j), 148-3*float64(j)
	}
	pcrs = facesPCRs(cat, lo, hi)
	checkFit(t, "collinear", pcrs)
	for _, c := range []CFB{FitOut(pcrs), FitIn(pcrs)} {
		for j := 0; j < cat.Size(); j++ {
			if p := cat.Value(j); c.Lo(0, p) != lo[j] || c.Hi(0, p) != hi[j] {
				t.Fatalf("collinear: box(%g) = [%v, %v], pcr [%v, %v]", p, c.Lo(0, p), c.Hi(0, p), lo[j], hi[j])
			}
		}
	}
}

// TestFitMeanOnHullVertex pins the tie rule. With m = 5 the mean catalog
// value is p_3 = 0.25; the low faces below have a convex kink exactly
// there, so both hull edges at the kink are optimal for cfb_out's low face
// and the right-hand one is taken. With m = 4 the mean lies strictly inside
// an edge and the optimum is unique.
func TestFitMeanOnHullVertex(t *testing.T) {
	lo := []float64{0, 0, 0, 4, 8}
	hi := []float64{20, 20, 20, 20, 20}
	pcrs := facesPCRs(UniformCatalog(5), lo, hi)
	checkFit(t, "vertex", pcrs)
	out := FitOut(pcrs)
	if out.Lo(0, 0.25) != 0 || out.Lo(0, 0.5) != 8 || out.Lo(0, 0) != -8 {
		t.Fatalf("mean on a vertex: low face %+v is not the right-hand edge", out.lo(0))
	}

	pcrs = facesPCRs(UniformCatalog(4), []float64{0, 0, 6, 12}, []float64{20, 20, 20, 20})
	checkFit(t, "inside an edge", pcrs)
	out = FitOut(pcrs)
	// The edge from (1/6, 0) to (1/3, 6) is −6 + 36·p; the float64 slope
	// is an ulp short of −36 and rounds up to the float32 above it.
	if lo := out.lo(0); math.Abs(lo.alpha+6) > ulp32(6) || math.Abs(lo.beta+36) > ulp32(36) {
		t.Fatalf("mean inside an edge: low face %+v, want −6 + 36·p within 1 ulp32", lo)
	}
}

// TestFitInMeetsBetweenFaces covers the coupled fit's general case: the
// catalog stops short of 0.5, so pcr(p_m) has room between its faces and
// the height at which the inner faces meet is searched, not given.
func TestFitInMeetsBetweenFaces(t *testing.T) {
	cat := newCatalog([]float64{0, 0.1, 0.2, 0.3, 0.4})
	// Concave low faces, convex high faces. Meeting at 30 the low face
	// touches p_4 and the high face p_3, meeting at 40 it is the other way
	// round, so the optimum is at a breakpoint strictly in between.
	pcrs := facesPCRs(cat, []float64{0, 20, 28, 29.5, 30}, []float64{100, 60, 45, 41, 40})
	checkFit(t, "meet", pcrs)
	in := FitIn(pcrs)
	if v := in.Lo(0, 0.4); v <= 30 || v >= 40 {
		t.Fatalf("inner faces meet at %g, want strictly inside (30, 40)", v)
	}
}

// TestFitCoversExactly is the zero-tolerance form of Validate over many
// benchmark-shaped objects: after rounding and repair no evaluated face
// sits even one ulp on the wrong side of its PCR face, and no coefficient
// more than 2 ulp32 from the float64 stage's. Their catalog ends at 0.5,
// so the inner faces meet at p_m and may cross there — and only there.
func TestFitCoversExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cat := UniformCatalog(15)
	cache := NewQuantileCache()
	for k := 0; k < 3000; k++ {
		ctr := geom.Point{rng.Float64() * 10000, rng.Float64() * 10000}
		var p updf.PDF = updf.NewUniformBall(ctr, 250)
		if k%2 == 1 {
			p = updf.NewConGauBall(ctr, 250, 125)
		}
		pcrs := Compute(p, cat, cache)
		checkQuantised(t, fmt.Sprintf("object %d", k), pcrs)
		in := FitIn(pcrs)
		for i := 0; i < 2; i++ {
			for j := 0; j < cat.Size()-1; j++ {
				if pj := cat.Value(j); in.Lo(i, pj) > in.Hi(i, pj) {
					t.Fatalf("object %d dim %d: cfb_in(%g) crossed below p_m: %v > %v", k, i, pj, in.Lo(i, pj), in.Hi(i, pj))
				}
			}
		}
	}
}

// TestFitRepairStep pins four 1-D PCR families that the float32 rounding
// alone leaves on the wrong side of a PCR face, one for each face FitOut
// and FitIn repair, so the repair has to step an intercept: a region a few
// float64 ulps wide, far from the origin, whose outermost face is a float32
// value. There the
// intercept rounds to itself, and the float64 evaluation of a face can land
// one ulp beyond the PCR face it was fitted under. After the repair both
// fits hold their invariants with zero tolerance (checkQuantised). A repair
// that steps the wrong way never ends, so the fits run under a deadline.
func TestFitRepairStep(t *testing.T) {
	for _, tc := range []struct {
		name    string
		outward bool // the family cfb_out's repair steps; cfb_in's otherwise
		lo, hi  []float64
	}{
		{"cfb_out low face", true,
			[]float64{3.72772725e+06, 3.7277272500000005e+06, 3.727727250000002e+06, 3.7277272500000023e+06, 3.727727250000003e+06, 3.7277272500000033e+06, 3.7277272500000047e+06, 3.7277272500000056e+06},
			[]float64{3.7277272500000126e+06, 3.727727250000012e+06, 3.72772725000001e+06, 3.7277272500000093e+06, 3.727727250000008e+06, 3.727727250000008e+06, 3.7277272500000075e+06, 3.727727250000006e+06}},
		{"cfb_in low face", false,
			[]float64{2.9472534e+07, 2.9472534000000004e+07, 2.9472534000000004e+07, 2.9472534000000007e+07, 2.9472534000000007e+07},
			[]float64{2.947253400000002e+07, 2.947253400000002e+07, 2.947253400000002e+07, 2.9472534000000015e+07, 2.9472534000000007e+07}},
		{"cfb_out high face", true,
			[]float64{1.739754999999997e+07, 1.7397549999999974e+07, 1.7397549999999974e+07, 1.739754999999999e+07, 1.739754999999999e+07},
			[]float64{1.739755e+07, 1.739755e+07, 1.7397549999999996e+07, 1.7397549999999996e+07, 1.7397549999999993e+07}},
		{"cfb_in high face", false,
			[]float64{1.8022061999999966e+07, 1.8022061999999966e+07, 1.8022061999999966e+07, 1.8022061999999974e+07, 1.8022061999999974e+07, 1.8022061999999978e+07, 1.802206199999998e+07, 1.802206199999998e+07, 1.8022061999999985e+07},
			[]float64{1.8022062e+07, 1.8022061999999996e+07, 1.8022061999999996e+07, 1.8022061999999993e+07, 1.8022061999999993e+07, 1.802206199999999e+07, 1.802206199999999e+07, 1.8022061999999985e+07, 1.8022061999999985e+07}},
	} {
		pcrs := facesPCRs(UniformCatalog(len(tc.lo)), tc.lo, tc.hi)
		// Rounded and not repaired, the faces are on the wrong side.
		var s fitScratch
		los, his := s.columns(pcrs, 0)
		fit := (*fitScratch).inFaces
		if tc.outward {
			fit = (*fitScratch).outFaces
		}
		lo, hi := fit(&s, pcrs.Cat, los, his)
		c := make(CFB, 4)
		c.quantise(0, lo, hi, tc.outward)
		short := false
		for j, p := range pcrs.Cat.values {
			if tc.outward {
				short = short || c.Lo(0, p) > los[j] || c.Hi(0, p) < his[j]
			} else {
				short = short || c.Lo(0, p) < los[j] || c.Hi(0, p) > his[j]
			}
		}
		if !short {
			t.Fatalf("%s: the rounded faces need no repair; the case no longer reaches step32", tc.name)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			FitOut(pcrs)
			FitIn(pcrs)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the repair did not end in 10 s", tc.name)
		}
		checkQuantised(t, tc.name, pcrs)
	}
}

func TestFitAllocatesOnlyCoefficients(t *testing.T) {
	pcrs := Compute(updf.NewConGauBall(geom.Point{4000, 6000, 500}, 250, 125), UniformCatalog(15), nil)
	// One coefficient slab per CFB.
	if n := testing.AllocsPerRun(100, func() { FitOut(pcrs); FitIn(pcrs) }); n != 2 {
		t.Fatalf("FitOut + FitIn: %v allocations, want the 2 coefficient slabs", n)
	}
	cat := newCatalog([]float64{0, 0.1, 0.2, 0.3, 0.4})
	pcrs = facesPCRs(cat, []float64{0, 20, 28, 29.5, 30}, []float64{100, 60, 45, 41, 40})
	if n := testing.AllocsPerRun(100, func() { FitIn(pcrs) }); n != 1 {
		t.Fatalf("FitIn, searched meeting point: %v allocations, want 1", n)
	}
}

// TestQuantisedFilterDecidesLikeFloat64 is the unit-level form of "the
// filter's counts did not move": on objects and queries shaped like the
// benchmark's — LB, CA and Aircraft regions, queries centred on data points
// with the region's diameter as side, so that rq equals an MBR exactly and
// grazes its neighbours' — FilterCFB on the stored float32 CFBs returns the
// outcome it would on the float64 stage's faces, for every pair. That is a
// property of this seeded sample, not a theorem: a query edge within an
// ulp32 of a face at a catalog value would flip a comparison.
func TestQuantisedFilterDecidesLikeFloat64(t *testing.T) {
	cat := UniformCatalog(15)
	for _, shape := range []struct {
		name   string
		dim    int
		radius float64
		window float64 // side of the cube the centres fall in
		pdf    func(geom.Point) updf.PDF
	}{
		{"LB", 2, 250, 3000, func(c geom.Point) updf.PDF { return updf.NewUniformBall(c, 250) }},
		{"CA", 2, 250, 3000, func(c geom.Point) updf.PDF { return updf.NewConGauBall(c, 250, 125) }},
		{"Aircraft", 3, 125, 1000, func(c geom.Point) updf.PDF { return updf.NewUniformBall(c, 125) }},
	} {
		rng := rand.New(rand.NewSource(23))
		cache := NewQuantileCache()
		const n = 400
		type object struct {
			mbr, rq     geom.Rect // rq: the query centred on the object
			out, in     CFB
			out64, in64 faces64
		}
		objs := make([]object, n)
		for k := range objs {
			c := make(geom.Point, shape.dim)
			lo, hi := make(geom.Point, shape.dim), make(geom.Point, shape.dim)
			for i := range c {
				c[i] = 3000 + rng.Float64()*shape.window
				lo[i], hi[i] = c[i]-shape.radius, c[i]+shape.radius
			}
			p := shape.pdf(c)
			pcrs := Compute(p, cat, cache)
			objs[k] = object{
				mbr: p.MBR(), rq: geom.NewRect(lo, hi),
				out: FitOut(pcrs), in: FitIn(pcrs),
				out64: stage64(pcrs, (*fitScratch).outFaces), in64: stage64(pcrs, (*fitScratch).inFaces),
			}
		}
		seen := map[Outcome]int{}
		for q := range objs {
			rq := objs[q].rq
			if !rq.Equal(objs[q].mbr) {
				t.Fatalf("%s: query %v is not its object's MBR %v", shape.name, rq, objs[q].mbr)
			}
			for k, o := range objs {
				for _, pq := range []float64{0.3, 0.6, 0.9} {
					got := FilterCFB(o.out, o.in, cat, o.mbr, rq, pq)
					want := filterFaces64(o.out64, o.in64, cat, o.mbr, rq, pq)
					if got != want {
						t.Fatalf("%s object %d query %d pq=%g: float32 CFBs say %v, float64 faces %v", shape.name, k, q, pq, got, want)
					}
					seen[got]++
				}
			}
		}
		for _, o := range []Outcome{Pruned, Validated, Unknown} {
			if seen[o] < n {
				t.Fatalf("%s: outcome %v decided %d times, sample too thin: %v", shape.name, o, seen[o], seen)
			}
		}
	}
}

// float32Fit is the float32 pair an object of sh's shape centred at ctr
// with region MBR mbr had stored in its leaf entry before keyed entries
// became compact: the shape's float64 stage about its centre, shifted to
// ctr, quantised as FitOut and FitIn quantise, and repaired against the
// object's PCR faces from the shape's offsets. checkTranslated measures the
// translated faces against it.
func float32Fit(sh *Shape, ctr geom.Point, mbr geom.Rect) (out, in CFB) {
	d, pc := len(ctr), sh.proto.Center()
	out, in = make(CFB, 4*d), make(CFB, 4*d)
	var sc fitScratch
	for i, c := range ctr {
		los, his := sc.faces(0, sh.off[i], sh.pm.Lo[i]-pc[i], sh.pm.Hi[i]-pc[i])
		oLo, oHi := sc.outFaces(sh.cat, los, his)
		iLo, iHi := sc.inFaces(sh.cat, los, his)
		los, his = sc.faces(c, sh.off[i], mbr.Lo[i], mbr.Hi[i])
		out.quantise(i, oLo.shift(c), oHi.shift(c), true)
		out.repairOut(sh.cat, i, los, his)
		in.quantise(i, iLo.shift(c), iHi.shift(c), false)
		in.repairIn(sh.cat, i, los, his)
	}
	return out, in
}

// checkTranslated holds the faces Translate gives one object to what FitOut
// and FitIn promise: against the object's PCR faces from the shape's
// offsets (sh.PCRs) every face lies on its safe side with zero tolerance,
// as evaluated. It then compares each face at each catalog value with the
// float32 face float32Fit would have stored, and returns at how many of the
// evaluations the translated face is at least as tight (as close to its PCR
// face: a cfb_out face no further out, a cfb_in face no further in), and
// how many there are.
func checkTranslated(t testing.TB, name string, sh *Shape, p updf.PDF) (tight, total int) {
	t.Helper()
	ctr, mbr := p.Center(), p.MBR()
	var f Faces
	sh.Translate(&f, mbr)
	pcrs := sh.PCRs(ctr, mbr)
	out32, in32 := float32Fit(sh, ctr, mbr)
	for i := range ctr {
		for j, box := range pcrs.Boxes {
			p := pcrs.Cat.Value(j)
			outLo, outHi, inLo, inHi := f[4*i].at(p), f[4*i+1].at(p), f[4*i+2].at(p), f[4*i+3].at(p)
			if outLo > box.Lo[i] || outHi < box.Hi[i] {
				t.Fatalf("%s dim %d: cfb_out(%g) = [%v, %v] does not cover pcr [%v, %v]",
					name, i, p, outLo, outHi, box.Lo[i], box.Hi[i])
			}
			if inLo < box.Lo[i] || inHi > box.Hi[i] {
				t.Fatalf("%s dim %d: cfb_in(%g) faces %v, %v not inside pcr [%v, %v]",
					name, i, p, inLo, inHi, box.Lo[i], box.Hi[i])
			}
			for _, ok := range []bool{outLo >= out32.Lo(i, p), outHi <= out32.Hi(i, p), inLo <= in32.Lo(i, p), inHi >= in32.Hi(i, p)} {
				if ok {
					tight++
				}
				total++
			}
		}
	}
	return tight, total
}

// TestFitTranslated fits shapes of every keyed family once, in 2-D and
// 3-D, with extents from 1 to a few hundred, and holds the faces Translate
// gives objects with the prototype's ShapeKey at centres up to 10⁷ (the
// polygon's lattice: 10⁴) to checkTranslated — and, for every tenth object,
// to Validate against the object's own PCRs, from its own quantiles. It
// logs how often a translated face is at least as tight as the float32 face
// the object's entry stored before (float32Fit).
func TestFitTranslated(t *testing.T) {
	objects := 40
	if testing.Short() {
		objects = 8
	}
	cat := UniformCatalog(15)
	var tight, total int
	for _, family := range keyedFamilies {
		for _, d := range []int{2, 3} {
			if family == famPolygon && d == 3 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(71 + 10*family + d)))
			u := rng.Float64
			maxMag := 1e7
			if family == famPolygon {
				maxMag = 1e4
			}
			for shape := 0; shape < 5; shape++ {
				place := keyedShape(family, d, math.Pow(10, 0.5*float64(shape)), u)
				proto := place(shapeCentre(d, math.Pow(maxMag, u()), u))
				sh := NewShape(proto, cat)
				for k := 0; k < objects; k++ {
					p := place(shapeCentre(d, math.Pow(maxMag, u()), u))
					name := fmt.Sprintf("%s-%dd shape %d object %d at %v", marginalFamilyNames[family], d, shape, k, p.Center())
					if p.ShapeKey() != proto.ShapeKey() {
						t.Fatalf("%s: key %s, prototype's %s", name, p.ShapeKey(), proto.ShapeKey())
					}
					tt, tot := checkTranslated(t, name, sh, p)
					tight, total = tight+tt, total+tot
					if k%10 == 0 {
						var f Faces
						sh.Translate(&f, p.MBR())
						if err := checkFaces(f, Compute(p, cat, nil)); err != nil {
							t.Fatalf("%s, against its own PCRs: %v", name, err)
						}
					}
				}
			}
		}
	}
	t.Logf("%d of %d face evaluations (%.2f%%) at least as tight as the float32 per-object fit's",
		tight, total, 100*float64(tight)/float64(total))
}

// FuzzFitTranslated draws a keyed family, the shape's extents (scale and a
// seed for keyedShape's draws: radius, σ, sides), a centre within 10⁷ of the
// origin and the catalog size from the fuzzer's bytes, fits the shape once
// about a prototype at the origin and holds a translate at the centre to
// checkTranslated: every translated face conservative as evaluated.
func FuzzFitTranslated(f *testing.F) {
	f.Add(uint8(famUniformBall), uint8(2), 250.0, int64(1), 4000.0, 6000.0, 500.0, uint8(13))
	f.Add(uint8(famConGau), uint8(2), 250.0, int64(2), 1e7, -1e7, 0.0, uint8(13))
	f.Add(uint8(famConGau), uint8(3), 3.0, int64(3), 12345.678, 0.5, -9e6, uint8(7))
	f.Add(uint8(famUniformRect), uint8(3), 0.25, int64(4), -3.3, 7e6, 2.2e6, uint8(0))
	f.Add(uint8(famGaussRect), uint8(2), 80.0, int64(5), 9999999.5, 1.0, 0.0, uint8(30))
	f.Add(uint8(famExpoRect), uint8(3), 10.0, int64(6), -5e6, 5e6, 123.0, uint8(38))
	f.Add(uint8(famPolygon), uint8(2), 60.0, int64(7), 3e3, -0.125, 0.0, uint8(1))
	f.Add(uint8(famUniformBall), uint8(3), 1e3, int64(8), 0.0, 1e-3, -2e-3, uint8(39))
	f.Fuzz(func(t *testing.T, fam, dim uint8, scale float64, seed int64, c0, c1, c2 float64, mb uint8) {
		for _, x := range []float64{scale, c0, c1, c2} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return
			}
		}
		family := keyedFamilies[int(fam)%len(keyedFamilies)]
		d, maxMag := 2+int(dim)%2, 1e7
		if family == famPolygon {
			d, maxMag = 2, 1e4
		}
		c := geom.Point{math.Mod(c0, maxMag), math.Mod(c1, maxMag), math.Mod(c2, maxMag)}[:d]
		scale = 1e-3 + math.Mod(math.Abs(scale), 1e3)
		cat := UniformCatalog(2 + int(mb)%40)
		place := keyedShape(family, d, scale, rand.New(rand.NewSource(seed)).Float64)
		sh := NewShape(place(make(geom.Point, d)), cat)
		checkTranslated(t, fmt.Sprintf("%s-%dd, scale %g, seed %d, at %v, m=%d", marginalFamilyNames[family], d, scale, seed, c, cat.Size()),
			sh, place(c))
	})
}

// checkFaces checks the conservative invariants of an entry's faces against
// the PCRs they approximate, face by face — cfb_out's outside their PCR
// faces, cfb_in's inside — and returns a descriptive error on the first
// violation beyond tolerance: 1e-9 of the coordinates, as floating point
// needs, and of the region's extent, the precision a quantile is computed
// to (updf.MarginalQuantile), which faces from another object's quantiles
// — a shape's — can differ from these by.
func checkFaces(f Faces, pcrs PCRs) error {
	for j, box := range pcrs.Boxes {
		p := pcrs.Cat.Value(j)
		for i := range box.Lo {
			tol := 1e-9 * (1 + math.Abs(box.Lo[i]) + math.Abs(box.Hi[i]) + pcrs.Boxes[0].Side(i))
			outLo, outHi, inLo, inHi := f[4*i].at(p), f[4*i+1].at(p), f[4*i+2].at(p), f[4*i+3].at(p)
			if outLo > box.Lo[i]+tol || outHi < box.Hi[i]-tol {
				return fmt.Errorf("pcr: cfb_out(%g) = [%v, %v] on dimension %d does not contain pcr = %v",
					p, outLo, outHi, i, box)
			}
			if inLo < box.Lo[i]-tol || inHi > box.Hi[i]+tol {
				return fmt.Errorf("pcr: cfb_in(%g) faces %v, %v on dimension %d not inside pcr = %v",
					p, inLo, inHi, i, box)
			}
		}
	}
	return nil
}
