package pcr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

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
		var err error
		if cat, err = NewCatalog(v); err != nil {
			panic(err)
		}
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
	short, err := NewCatalog([]float64{0, 0.02, 0.1, 0.15, 0.3, 0.42})
	if err != nil {
		t.Fatal(err)
	}
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
	cat, err := NewCatalog([]float64{0, 0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
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

func TestFitAllocatesOnlyCoefficients(t *testing.T) {
	pcrs := Compute(updf.NewConGauBall(geom.Point{4000, 6000, 500}, 250, 125), UniformCatalog(15), nil)
	// One coefficient slab per CFB.
	if n := testing.AllocsPerRun(100, func() { FitOut(pcrs); FitIn(pcrs) }); n != 2 {
		t.Fatalf("FitOut + FitIn: %v allocations, want the 2 coefficient slabs", n)
	}
	cat, err := NewCatalog([]float64{0, 0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
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
