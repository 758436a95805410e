package pcr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/updf"
)

func TestUniformCatalog(t *testing.T) {
	c := UniformCatalog(3)
	want := []float64{0, 0.25, 0.5}
	for i, v := range c.Values() {
		if math.Abs(v-want[i]) > 1e-15 {
			t.Fatalf("catalog[%d] = %g, want %g", i, v, want[i])
		}
	}
	// The paper's U-tree catalog: m=15 gives 0, 1/28, ..., 14/28.
	c15 := UniformCatalog(15)
	if math.Abs(c15.Value(1)-1.0/28) > 1e-15 || c15.Max() != 0.5 {
		t.Fatalf("m=15 catalog wrong: %v", c15.Values())
	}
	if c15.Sum() <= 0 {
		t.Fatal("catalog sum must be positive")
	}
}

func TestUniformCatalogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("m=1 should panic")
		}
	}()
	UniformCatalog(1)
}

func TestNewCatalogValidation(t *testing.T) {
	if _, err := NewCatalog([]float64{0, 0.2, 0.5}); err != nil {
		t.Fatalf("valid catalog rejected: %v", err)
	}
	bad := [][]float64{
		{0.1, 0.2},    // must start at 0
		{0, 0.6},      // above 0.5
		{0, 0.3, 0.2}, // not ascending
		{0, 0.3, 0.3}, // not strictly ascending
		{0},           // too short
		{0, -0.1},     // negative (also not ascending)
	}
	for i, v := range bad {
		if _, err := NewCatalog(v); err == nil {
			t.Errorf("case %d: invalid catalog %v accepted", i, v)
		}
	}
}

func TestCatalogSelectors(t *testing.T) {
	c := UniformCatalog(6) // 0, 0.1, 0.2, 0.3, 0.4, 0.5
	if j, ok := c.LargestLE(0.35); !ok || j != 3 {
		t.Fatalf("LargestLE(0.35) = %d,%v", j, ok)
	}
	if j, ok := c.LargestLE(0.1); !ok || j != 1 {
		t.Fatalf("LargestLE(0.1) = %d,%v (exact match)", j, ok)
	}
	if j, ok := c.LargestLE(0.9); !ok || j != 5 {
		t.Fatalf("LargestLE(0.9) = %d,%v", j, ok)
	}
	if _, ok := c.LargestLE(-0.01); ok {
		t.Fatal("LargestLE below 0 should fail")
	}
	if j, ok := c.SmallestGE(0.15); !ok || j != 2 {
		t.Fatalf("SmallestGE(0.15) = %d,%v", j, ok)
	}
	if j, ok := c.SmallestGE(0.5); !ok || j != 5 {
		t.Fatalf("SmallestGE(0.5) = %d,%v", j, ok)
	}
	if _, ok := c.SmallestGE(0.51); ok {
		t.Fatal("SmallestGE above max should fail")
	}
	if j, ok := c.SmallestGE(0); !ok || j != 0 {
		t.Fatalf("SmallestGE(0) = %d,%v", j, ok)
	}
	// Median index used by the split algorithm.
	if c.MedianIndex() != 3 {
		t.Fatalf("MedianIndex = %d", c.MedianIndex())
	}
}

// testPDFs returns exact-oracle pdfs for the soundness checks.
func testPDFs(rng *rand.Rand) []updf.PDF {
	rect := func(cx, cy, w, h float64) geom.Rect {
		return geom.NewRect(geom.Point{cx - w/2, cy - h/2}, geom.Point{cx + w/2, cy + h/2})
	}
	pdfs := []updf.PDF{
		updf.NewUniformBall(geom.Point{500, 500}, 250),
		updf.NewUniformRect(rect(500, 500, 400, 300)),
		updf.NewGaussRect(rect(500, 500, 400, 300), geom.Point{450, 520}, []float64{120, 100}),
		updf.NewExpoRect(rect(500, 500, 400, 300), []float64{0.01, 0.002}),
		updf.NewConGauBall(geom.Point{500, 500}, 250, 125),
	}
	// A few random histograms = arbitrary pdfs.
	for k := 0; k < 3; k++ {
		w := make([]float64, 16)
		for i := range w {
			w[i] = rng.Float64()
		}
		pdfs = append(pdfs, updf.NewHistogramRect(rect(500, 500, 380, 290), []int{4, 4}, w))
	}
	return pdfs
}

func TestComputeNestingAndMBR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cat := UniformCatalog(8)
	cache := NewQuantileCache()
	for pi, p := range testPDFs(rng) {
		pcrs := Compute(p, cat, cache)
		mbr := p.MBR()
		if !mbr.Contains(pcrs.Boxes[0]) {
			t.Fatalf("pdf %d: pcr(0) %v outside MBR %v", pi, pcrs.Boxes[0], mbr)
		}
		for j := 1; j < cat.Size(); j++ {
			if !pcrs.Boxes[j-1].Contains(pcrs.Boxes[j]) {
				t.Fatalf("pdf %d: pcr nesting violated at j=%d: %v ⊄ %v",
					pi, j, pcrs.Boxes[j], pcrs.Boxes[j-1])
			}
		}
		// pcr(0) spans the full marginal support.
		if pcrs.Boxes[0].Area() <= 0 {
			t.Fatalf("pdf %d: pcr(0) degenerate", pi)
		}
	}
}

func TestComputeFaceMassSemantics(t *testing.T) {
	// The defining property: mass left of pcr_i−(p_j) = p_j and mass right
	// of pcr_i+(p_j) = p_j, checked through the marginal CDF.
	cat := UniformCatalog(6)
	p := updf.NewGaussRect(
		geom.NewRect(geom.Point{0, 0}, geom.Point{100, 60}),
		geom.Point{40, 30}, []float64{25, 15})
	pcrs := Compute(p, cat, nil)
	for j := 0; j < cat.Size(); j++ {
		pj := cat.Value(j)
		for i := 0; i < 2; i++ {
			left := p.MarginalCDF(i, pcrs.Boxes[j].Lo[i])
			right := 1 - p.MarginalCDF(i, pcrs.Boxes[j].Hi[i])
			if math.Abs(left-pj) > 1e-6 || math.Abs(right-pj) > 1e-6 {
				t.Fatalf("face mass at j=%d dim=%d: left=%g right=%g want %g",
					j, i, left, right, pj)
			}
		}
	}
}

func TestQuantileCacheHitsAcrossObjects(t *testing.T) {
	cat := UniformCatalog(10)
	cache := NewQuantileCache()
	a := updf.NewUniformBall(geom.Point{100, 100}, 250)
	b := updf.NewUniformBall(geom.Point{9000, 4000}, 250)
	pa := Compute(a, cat, cache)
	pb := Compute(b, cat, cache)
	// Same shape ⇒ identical offsets from centers.
	for j := 0; j < cat.Size(); j++ {
		offA := pa.Boxes[j].Lo[0] - 100
		offB := pb.Boxes[j].Lo[0] - 9000
		if math.Abs(offA-offB) > 1e-9 {
			t.Fatalf("cache produced inconsistent offsets: %g vs %g", offA, offB)
		}
	}
	if len(cache.m) == 0 {
		t.Fatal("cache unused for cacheable pdfs")
	}
	n := len(cache.m)
	Compute(b, cat, cache) // should not add entries
	if len(cache.m) != n {
		t.Fatal("repeat computation added cache entries")
	}
}

func TestComputeNilCache(t *testing.T) {
	cat := UniformCatalog(4)
	p := updf.NewUniformBall(geom.Point{0, 0}, 10)
	pcrs := Compute(p, cat, nil) // must not panic
	if len(pcrs.Boxes) != 4 {
		t.Fatalf("got %d boxes", len(pcrs.Boxes))
	}
}

func TestFitOutCoversAndFitInContained(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cat := UniformCatalog(9)
	cache := NewQuantileCache()
	for pi, p := range testPDFs(rng) {
		pcrs := Compute(p, cat, cache)
		var f Faces
		f.SetCFB(FitOut(pcrs), FitIn(pcrs))
		if err := Validate(f, pcrs); err != nil {
			t.Fatalf("pdf %d: %v", pi, err)
		}
	}
}

func TestFitOutTightness(t *testing.T) {
	// For a uniform rect the marginal quantiles are linear in p, so the
	// optimal cfb_out must reproduce the PCRs exactly (zero slack).
	cat := UniformCatalog(5)
	p := updf.NewUniformRect(geom.NewRect(geom.Point{0, 0}, geom.Point{100, 50}))
	pcrs := Compute(p, cat, nil)
	out := FitOut(pcrs)
	in := FitIn(pcrs)
	for j := 0; j < cat.Size(); j++ {
		pj := cat.Value(j)
		ob := storedFaces(out, in).Rect(pj)
		ib := storedFaces(in, out).Rect(pj)
		box := pcrs.Boxes[j]
		for i := 0; i < 2; i++ {
			if math.Abs(ob.Lo[i]-box.Lo[i]) > 1e-6 || math.Abs(ob.Hi[i]-box.Hi[i]) > 1e-6 {
				t.Fatalf("cfb_out not tight for linear PCRs at j=%d: %v vs %v", j, ob, box)
			}
			if math.Abs(ib.Lo[i]-box.Lo[i]) > 1e-6 || math.Abs(ib.Hi[i]-box.Hi[i]) > 1e-6 {
				t.Fatalf("cfb_in not tight for linear PCRs at j=%d: %v vs %v", j, ib, box)
			}
		}
	}
}

func TestCFBRectCollapsesInversion(t *testing.T) {
	c := CFB{10, -20, 12, 0}         // lo(p) = 10 + 20p, hi(p) = 12
	r := storedFaces(c, c).Rect(0.5) // lo = 20 > hi = 12 → midpoint 16
	if r.Lo[0] != 16 || r.Hi[0] != 16 {
		t.Fatalf("inverted faces not collapsed: %v", r)
	}
}

// TestWithinReadsFacesNotMidpoint: Rule 1 may prune only when a cfb_in face
// proves the PCR sticks out of rq. Crossed inner faces lo = 20, hi = 12
// allow pcr = [18, 19], which rq = [17, 30] contains; their midpoint 16
// lies outside rq and must not decide.
func TestWithinReadsFacesNotMidpoint(t *testing.T) {
	var c Faces
	c.SetCFB(CFB{0, 0, 0, 0}, CFB{10, -20, 12, 0})
	if !c.within(0.5, geom.NewRect(geom.Point{17}, geom.Point{30})) {
		t.Fatal("within decided by the midpoint of crossed faces")
	}
	if c.within(0.5, geom.NewRect(geom.Point{21}, geom.Point{30})) || c.within(0.5, geom.NewRect(geom.Point{0}, geom.Point{11})) {
		t.Fatal("within ignored a face outside rq")
	}
}

// randomQuery builds query rectangles that stress all geometric relations:
// far, overlapping, contained, containing, and slab-shaped.
func randomQuery(rng *rand.Rand, mbr geom.Rect) geom.Rect {
	cx := mbr.Lo[0] + rng.Float64()*3*mbr.Side(0) - mbr.Side(0)
	cy := mbr.Lo[1] + rng.Float64()*3*mbr.Side(1) - mbr.Side(1)
	w := rng.Float64() * 2.5 * mbr.Side(0)
	h := rng.Float64() * 2.5 * mbr.Side(1)
	if rng.Intn(4) == 0 {
		// Slab: very wide on one axis to trigger Rule 3/4/5 coverage.
		w = 10 * mbr.Side(0)
	}
	return geom.NewRect(geom.Point{cx - w/2, cy - h/2}, geom.Point{cx + w/2, cy + h/2})
}

// assertSound checks the fundamental guarantee of every filter: pruning
// implies the object truly fails the query, validation implies it truly
// qualifies, to the 1e-9 margin the filters prune with.
func assertSound(t *testing.T, name string, outcome Outcome, truth, pq float64) {
	t.Helper()
	const tol = boundPruneEps
	switch outcome {
	case Pruned, PrunedByBound:
		if truth >= pq+tol {
			t.Fatalf("%s: FALSE NEGATIVE: pruned object with P_app=%.8f ≥ pq=%g", name, truth, pq)
		}
	case Validated:
		if truth < pq-tol {
			t.Fatalf("%s: FALSE POSITIVE: validated object with P_app=%.8f < pq=%g", name, truth, pq)
		}
	}
}

func TestFilterExactSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range testPDFs(rng) {
		mbr := p.MBR()
		for trial := 0; trial < 300; trial++ {
			rq := randomQuery(rng, mbr)
			pq := 0.02 + rng.Float64()*0.96
			outcome := FilterExact(p, rq, pq)
			assertSound(t, "FilterExact", outcome, p.ExactProb(rq), pq)
		}
	}
}

func TestFilterCatalogPCRSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cache := NewQuantileCache()
	for _, m := range []int{3, 9} {
		cat := UniformCatalog(m)
		for _, p := range testPDFs(rng) {
			pcrs := Compute(p, cat, cache)
			mbr := p.MBR()
			for trial := 0; trial < 200; trial++ {
				rq := randomQuery(rng, mbr)
				pq := 0.02 + rng.Float64()*0.96
				outcome := FilterCatalogPCR(pcrs, mbr, rq, pq)
				assertSound(t, "FilterCatalogPCR", outcome, p.ExactProb(rq), pq)
			}
		}
	}
}

func TestFilterCFBSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cache := NewQuantileCache()
	for _, m := range []int{3, 15} {
		cat := UniformCatalog(m)
		for _, p := range testPDFs(rng) {
			pcrs := Compute(p, cat, cache)
			out := FitOut(pcrs)
			in := FitIn(pcrs)
			mbr := p.MBR()
			for trial := 0; trial < 200; trial++ {
				rq := randomQuery(rng, mbr)
				pq := 0.02 + rng.Float64()*0.96
				outcome := FilterCFB(out, in, cat, mbr, rq, pq)
				assertSound(t, "FilterCFB", outcome, p.ExactProb(rq), pq)
			}
		}
	}
}

func TestFilterTrivialCases(t *testing.T) {
	p := updf.NewUniformBall(geom.Point{100, 100}, 50)
	cat := UniformCatalog(5)
	pcrs := Compute(p, cat, nil)
	out := FitOut(pcrs)
	in := FitIn(pcrs)
	mbr := p.MBR()

	far := geom.NewRect(geom.Point{900, 900}, geom.Point{950, 950})
	covering := geom.NewRect(geom.Point{0, 0}, geom.Point{200, 200})

	for _, pq := range []float64{0.1, 0.5, 0.9} {
		if got := FilterCatalogPCR(pcrs, mbr, far, pq); got != Pruned {
			t.Errorf("pq=%g: disjoint query not pruned (PCR): %v", pq, got)
		}
		if got := FilterCatalogPCR(pcrs, mbr, covering, pq); got != Validated {
			t.Errorf("pq=%g: covering query not validated (PCR): %v", pq, got)
		}
		if got := FilterCFB(out, in, cat, mbr, far, pq); got != Pruned {
			t.Errorf("pq=%g: disjoint query not pruned (CFB): %v", pq, got)
		}
		if got := FilterCFB(out, in, cat, mbr, covering, pq); got != Validated {
			t.Errorf("pq=%g: covering query not validated (CFB): %v", pq, got)
		}
		if got := FilterExact(p, far, pq); got != Pruned {
			t.Errorf("pq=%g: disjoint query not pruned (exact): %v", pq, got)
		}
		if got := FilterExact(p, covering, pq); got != Validated {
			t.Errorf("pq=%g: covering query not validated (exact): %v", pq, got)
		}
	}
}

func TestFilterPaperScenarios(t *testing.T) {
	// Reconstruction of Figure 3/4's reasoning with a uniform square:
	// pcr(0.2) faces sit at the 20% / 80% quantiles.
	p := updf.NewUniformRect(geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100}))
	cat, err := NewCatalog([]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pcrs := Compute(p, cat, nil)
	mbr := p.MBR()

	// Query q1 ~ Fig 3a: pq=0.8; rq covers most of the object but not all
	// of pcr(0.2) (cut at x=75 < 80) → Rule 1 prunes: P_app ≤ 0.75 < 0.8.
	rq1 := geom.NewRect(geom.Point{-10, -10}, geom.Point{75, 110})
	if got := FilterCatalogPCR(pcrs, mbr, rq1, 0.8); got != Pruned {
		t.Errorf("q1 (Rule 1): got %v, want pruned (true P=%g)", got, p.ExactProb(rq1))
	}

	// Query q2: pq=0.2, rq beyond pcr(0.2)'s right face → Rule 2 prunes.
	rq2 := geom.NewRect(geom.Point{85, -10}, geom.Point{130, 110})
	if got := FilterCatalogPCR(pcrs, mbr, rq2, 0.2); got != Pruned {
		t.Errorf("q2 (Rule 2): got %v, want pruned (true P=%g)", got, p.ExactProb(rq2))
	}

	// Query q3 ~ Fig 3b: pq=0.6, rq covers the full vertical slab between
	// the 0.2-quantile planes (x ∈ [15, 85] ⊇ [20, 80]) → Rule 3 validates.
	rq3 := geom.NewRect(geom.Point{15, -10}, geom.Point{85, 110})
	if got := FilterCatalogPCR(pcrs, mbr, rq3, 0.6); got != Validated {
		t.Errorf("q3 (Rule 3): got %v, want validated (true P=%g)", got, p.ExactProb(rq3))
	}

	// Query q4: pq=0.8, rq covers everything right of the 0.2-quantile
	// plane (x ≥ 15 ≤ 20) → Rule 4 validates (mass ≥ 0.8).
	rq4 := geom.NewRect(geom.Point{15, -10}, geom.Point{110, 110})
	if got := FilterCatalogPCR(pcrs, mbr, rq4, 0.8); got != Validated {
		t.Errorf("q4 (Rule 4): got %v, want validated (true P=%g)", got, p.ExactProb(rq4))
	}

	// Query q5: pq=0.2, rq covers everything left of pcr's low face on x
	// (x ≤ 25 ≥ 20) → Rule 5 validates (mass ≥ 0.2).
	rq5 := geom.NewRect(geom.Point{-10, -10}, geom.Point{25, 110})
	if got := FilterCatalogPCR(pcrs, mbr, rq5, 0.2); got != Validated {
		t.Errorf("q5 (Rule 5): got %v, want validated (true P=%g)", got, p.ExactProb(rq5))
	}
}

func TestCoversSlab(t *testing.T) {
	mbr := geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10})
	// rq covers dim-1 fully and x ∈ [2, 8]: slab [3, 7] covered.
	rq := geom.NewRect(geom.Point{2, -1}, geom.Point{8, 11})
	if !coversSlab(rq, mbr, 0, 3, 7) {
		t.Error("covered slab reported uncovered")
	}
	if coversSlab(rq, mbr, 0, 1, 7) {
		t.Error("slab extending past rq reported covered")
	}
	// rq not covering the other dimension.
	rq2 := geom.NewRect(geom.Point{2, 1}, geom.Point{8, 11})
	if coversSlab(rq2, mbr, 0, 3, 7) {
		t.Error("slab with uncovered cross-dimension reported covered")
	}
	// Empty slab (planes outside the MBR) must not validate.
	if coversSlab(rq, mbr, 0, 12, 15) {
		t.Error("empty slab reported covered")
	}
	// Infinite planes: slab clipped to MBR.
	rq3 := geom.NewRect(geom.Point{-1, -1}, geom.Point{5, 11})
	if !coversSlab(rq3, mbr, 0, math.Inf(-1), 5) {
		t.Error("left-infinite slab should be covered")
	}
	if coversSlab(rq3, mbr, 0, math.Inf(-1), 6) {
		t.Error("slab wider than rq reported covered")
	}
}

func TestOutcomeString(t *testing.T) {
	if Unknown.String() != "unknown" || Pruned.String() != "pruned" || Validated.String() != "validated" ||
		PrunedByBound.String() != "pruned-by-bound" {
		t.Fatal("Outcome.String broken")
	}
}

// TestCFBWeakerThanPCR verifies the paper's observation that CFB rules have
// weaker (never stronger) pruning/validation power than catalog PCR rules:
// whenever CFB decides, PCR agrees (on the same catalog).
func TestCFBNeverContradictsPCR(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cat := UniformCatalog(9)
	cache := NewQuantileCache()
	for _, p := range testPDFs(rng) {
		pcrs := Compute(p, cat, cache)
		out := FitOut(pcrs)
		in := FitIn(pcrs)
		mbr := p.MBR()
		for trial := 0; trial < 300; trial++ {
			rq := randomQuery(rng, mbr)
			pq := 0.02 + rng.Float64()*0.96
			cfbOutcome := FilterCFB(out, in, cat, mbr, rq, pq)
			pcrOutcome := FilterCatalogPCR(pcrs, mbr, rq, pq)
			if (cfbOutcome == Validated) != (pcrOutcome == Validated) && cfbOutcome != Unknown && pcrOutcome != Unknown {
				t.Fatalf("CFB %v contradicts PCR %v (pq=%g rq=%v)", cfbOutcome, pcrOutcome, pq, rq)
			}
		}
	}
}

// TestComputePinsPCR0ToMBR: pcr(0) must be the uncertainty region MBR
// bit-for-bit, no matter which same-shape object warmed the quantile
// cache. The cached quantile offsets are relative to the seed object's
// center, so ctr + (q − ctr') can round a hair inside the true MBR for
// other centers; a pcr(0) even 1e-13 inside the MBR breaks the strict
// containment chain that delete descents rely on (regression: map-order
// dependent delete failures after BulkLoad).
func TestComputePinsPCR0ToMBR(t *testing.T) {
	cat := UniformCatalog(15)
	qc := NewQuantileCache()
	rng := rand.New(rand.NewSource(2000000))
	for i := 0; i < 500; i++ {
		ctr := geom.Point{250 + rng.Float64()*9500, 250 + rng.Float64()*9500}
		ball := updf.NewUniformBall(ctr, 250)
		pcrs := Compute(ball, cat, qc) // first iteration warms the shared cache
		mbr := ball.MBR()
		for d := 0; d < 2; d++ {
			if pcrs.Boxes[0].Lo[d] > mbr.Lo[d] || pcrs.Boxes[0].Hi[d] < mbr.Hi[d] {
				t.Fatalf("object %d: pcr(0) %v does not cover MBR %v", i, pcrs.Boxes[0], mbr)
			}
		}
	}
}
