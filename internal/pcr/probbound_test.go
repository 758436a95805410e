package pcr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/updf"
)

// boundTestPDFs returns one pdf of every updf family with an exact oracle:
// the four symmetric ones, the asymmetric ones (skewed, arbitrary
// histogram, polygon, bimodal mixture) whose left and right tails differ,
// and a 3-D ball.
func boundTestPDFs(rng *rand.Rand) []updf.PDF {
	r := geom.NewRect(geom.Point{100, 100}, geom.Point{180, 150})
	w := make([]float64, 12)
	for i := range w {
		w[i] = rng.Float64()
	}
	return []updf.PDF{
		updf.NewUniformRect(r),
		updf.NewUniformBall(geom.Point{140, 125}, 30),
		updf.NewConGauBall(geom.Point{140, 125}, 30, 15),
		updf.NewGaussRect(r, geom.Point{140, 125}, []float64{20, 12}),
		updf.NewExpoRect(r, []float64{0.05, 0.01}),
		updf.NewHistogramRect(r, []int{4, 3}, w),
		updf.NewUniformPolygon([]geom.Point{{100, 110}, {170, 100}, {180, 140}, {120, 150}}),
		updf.NewMixture([]updf.PDF{
			updf.NewUniformBall(geom.Point{115, 120}, 15),
			updf.NewGaussRect(geom.NewRect(geom.Point{140, 105}, geom.Point{180, 150}), geom.Point{170, 130}, []float64{8, 10}),
		}, []float64{1, 3}),
		updf.NewUniformBall(geom.Point{140, 125, 60}, 30),
	}
}

// boundTestRect draws a query rect around the pdf's support: straddling
// it, inside it, covering it or missing it.
func boundTestRect(rng *rand.Rand, mbr geom.Rect) geom.Rect {
	lo, hi := make(geom.Point, mbr.Dim()), make(geom.Point, mbr.Dim())
	for i := range lo {
		lo[i] = mbr.Lo[i] + (rng.Float64()*3-1)*mbr.Side(i)
		hi[i] = lo[i] + rng.Float64()*2*mbr.Side(i)
	}
	return geom.NewRect(lo, hi)
}

var boundTestThresholds = []float64{0.1, 0.3, 0.5, 0.6, 0.9}

// storedFaces is the faces of a stored pair.
func storedFaces(out, in CFB) Faces {
	var f Faces
	f.SetCFB(out, in)
	return f
}

// scanBoundsCFB is Faces.ProbBounds on a stored pair without the bisection: every catalog
// value's four faces folded into the tails, as ProbBoundsPCR does.
func scanBoundsCFB(out, in CFB, cat Catalog, mbr, rq geom.Rect) (lb, ub float64) {
	acc := newBounds()
	for i := range rq.Lo {
		a, b := rq.Lo[i], rq.Hi[i]
		var left, right tail
		if a > mbr.Lo[i] {
			left.hi = 1
		}
		if b < mbr.Hi[i] {
			right.hi = 1
		}
		for _, pj := range cat.values {
			oLo, oHi, iLo, iHi := out.Lo(i, pj), out.Hi(i, pj), in.Lo(i, pj), in.Hi(i, pj)
			if a > mbr.Lo[i] {
				left.face(a, pj, oLo, iLo, iHi, oHi)
			}
			if b < mbr.Hi[i] {
				right.face(-b, pj, -oHi, -iHi, -iLo, -oLo)
			}
		}
		acc.add(left, right)
	}
	return acc.result()
}

// TestProbBoundsSound is the bound's safety contract: for any pdf and
// query rectangle, lb ≤ P(X ∈ rq) ≤ ub — from both the raw PCR boxes (U-PCR
// entries) and the fitted CFB pair (U-tree entries, whose repair steps the
// bound must survive) — and the filters built on it never validate an
// object below the threshold nor prune one above it.
func TestProbBoundsSound(t *testing.T) {
	const eps = 1e-9
	rng := rand.New(rand.NewSource(71))
	pdfs := boundTestPDFs(rng)
	for _, m := range []int{2, 5, 10, 15} {
		cat := UniformCatalog(m)
		for pi, p := range pdfs {
			pcrs := Compute(p, cat, nil)
			out, in := FitOut(pcrs), FitIn(pcrs)
			mbr := p.MBR()
			for q := 0; q < 300; q++ {
				rq := boundTestRect(rng, mbr)
				exact := p.ExactProb(rq)
				lbP, ubP := ProbBoundsPCR(pcrs, rq)
				lbC, ubC := storedFaces(out, in).ProbBounds(cat, mbr, rq)
				if lbP > exact+eps || ubP+eps < exact {
					t.Fatalf("m=%d pdf=%d: PCR bounds [%.9f, %.9f] miss exact %.9f for rq=%v", m, pi, lbP, ubP, exact, rq)
				}
				if lbC > exact+eps || ubC+eps < exact {
					t.Fatalf("m=%d pdf=%d: CFB bounds [%.9f, %.9f] miss exact %.9f for rq=%v", m, pi, lbC, ubC, exact, rq)
				}
				if lbC > lbP+eps || ubC+eps < ubP {
					t.Fatalf("m=%d pdf=%d: CFB bounds [%.9f, %.9f] tighter than PCR [%.9f, %.9f]", m, pi, lbC, ubC, lbP, ubP)
				}
				if lbS, ubS := scanBoundsCFB(out, in, cat, mbr, rq); lbS != lbC || ubS != ubC {
					t.Fatalf("m=%d pdf=%d: bisected CFB bounds [%v, %v], catalog scan [%v, %v] for rq=%v", m, pi, lbC, ubC, lbS, ubS, rq)
				}
				for _, pq := range boundTestThresholds {
					for name, got := range map[string]Outcome{
						"PCR": FilterCatalogPCR(pcrs, mbr, rq, pq),
						"CFB": FilterCFB(out, in, cat, mbr, rq, pq),
					} {
						switch {
						case got == Validated && exact < pq-eps:
							t.Fatalf("m=%d pdf=%d pq=%g: %s validated exact %.9f for rq=%v", m, pi, pq, name, exact, rq)
						case (got == Pruned || got == PrunedByBound) && exact >= pq+eps:
							t.Fatalf("m=%d pdf=%d pq=%g: %s %v exact %.9f for rq=%v", m, pi, pq, name, got, exact, rq)
						}
					}
				}
			}
		}
	}
}

// TestBoundValidatesWhatPaperRulesDo: Rules 3–5 are special cases of the
// lower bound, so replacing them must lose no validation — and a pruned
// object stays pruned (the bound only adds PrunedByBound to Unknown).
func TestBoundValidatesWhatPaperRulesDo(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	cache := NewQuantileCache()
	oldValidated, newValidated := 0, 0
	for _, m := range []int{3, 6, 15} {
		cat := UniformCatalog(m)
		for _, p := range testPDFs(rng) {
			pcrs := Compute(p, cat, cache)
			out, in := FitOut(pcrs), FitIn(pcrs)
			mbr := p.MBR()
			for trial := 0; trial < 300; trial++ {
				rq := randomQuery(rng, mbr)
				for _, pq := range boundTestThresholds {
					for name, pair := range map[string][2]Outcome{
						"PCR": {paperFilterCatalogPCR(pcrs, mbr, rq, pq), FilterCatalogPCR(pcrs, mbr, rq, pq)},
						"CFB": {paperFilterCFB(out, in, cat, mbr, rq, pq), FilterCFB(out, in, cat, mbr, rq, pq)},
					} {
						paper, got := pair[0], pair[1]
						if paper == Validated {
							oldValidated++
						}
						if got == Validated {
							newValidated++
						}
						if (paper == Validated || paper == Pruned) && got != paper {
							t.Fatalf("m=%d pq=%g rq=%v: %s paper rules say %v, bound filter %v", m, pq, rq, name, paper, got)
						}
					}
				}
			}
		}
	}
	if oldValidated == 0 || newValidated <= oldValidated {
		t.Fatalf("bound validated %d, paper rules %d: want strictly more of a non-zero count", newValidated, oldValidated)
	}
}

// TestProbLowerBoundBites shows what the bound adds: a query clipping 10%
// off a uniform square on each of two dimensions keeps 81% of the mass, yet
// Rules 3–5 need rq to cover the MBR on every dimension but one and leave
// it Unknown at pq = 0.6; the union bound (1 − 0.1 − 0.1) validates it.
func TestProbLowerBoundBites(t *testing.T) {
	cat := UniformCatalog(6) // p values 0, 0.1, ..., 0.5
	p := updf.NewUniformRect(geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100}))
	pcrs := Compute(p, cat, nil)
	out, in := FitOut(pcrs), FitIn(pcrs)
	mbr := p.MBR()
	corner := geom.NewRect(geom.Point{10, 10}, geom.Point{150, 150})
	const pq = 0.6

	if got := paperFilterCatalogPCR(pcrs, mbr, corner, pq); got != Unknown {
		t.Fatalf("paper PCR rules: %v, want unknown", got)
	}
	if got := paperFilterCFB(out, in, cat, mbr, corner, pq); got != Unknown {
		t.Fatalf("paper CFB rules: %v, want unknown", got)
	}
	if lb, _ := ProbBoundsPCR(pcrs, corner); lb < 0.8-1e-9 {
		t.Fatalf("PCR lower bound %.6f, want 0.8", lb)
	}
	if got := FilterCatalogPCR(pcrs, mbr, corner, pq); got != Validated {
		t.Fatalf("FilterCatalogPCR: %v, want validated", got)
	}
	if got := FilterCFB(out, in, cat, mbr, corner, pq); got != Validated {
		t.Fatalf("FilterCFB: %v, want validated", got)
	}
}

// TestProbUpperBoundBites checks the upper bound is not vacuous: a query
// rect covering only a thin edge sliver of a uniform support must get a
// bound well below 1, and a disjoint rect a bound of 0.
func TestProbUpperBoundBites(t *testing.T) {
	cat := UniformCatalog(6) // p values 0, 0.1, ..., 0.5
	p := updf.NewUniformRect(geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100}))
	pcrs := Compute(p, cat, nil)
	out, in := FitOut(pcrs), FitIn(pcrs)
	mbr := p.MBR()

	// Thin left sliver: true mass 5%, so a sound-but-useful bound must be
	// far under 0.5 (the slab at p=0.1 already excludes it).
	sliver := geom.NewRect(geom.Point{0, 0}, geom.Point{5, 100})
	if _, ub := ProbBoundsPCR(pcrs, sliver); ub > 0.2 {
		t.Fatalf("PCR bound %.3f too loose for 5%% sliver", ub)
	}
	if _, ub := storedFaces(out, in).ProbBounds(cat, mbr, sliver); ub > 0.2 {
		t.Fatalf("CFB bound %.3f too loose for 5%% sliver", ub)
	}
	// A narrow band through the middle holds 10%; Rules 1–2 pass it at
	// pq = 0.25 (it meets pcr(0.2)) and the bound prunes it: the p = 0.4
	// faces on either side leave at most 0.2.
	band := geom.NewRect(geom.Point{45, 0}, geom.Point{55, 100})
	if got := FilterCatalogPCR(pcrs, mbr, band, 0.25); got != PrunedByBound {
		t.Fatalf("band at pq=0.25 (PCR): %v, want pruned-by-bound", got)
	}
	if got := FilterCFB(out, in, cat, mbr, band, 0.25); got != PrunedByBound {
		t.Fatalf("band at pq=0.25 (CFB): %v, want pruned-by-bound", got)
	}

	// Disjoint rect: bound must collapse to ~0 (the p_1 = 0 slab).
	far := geom.NewRect(geom.Point{500, 500}, geom.Point{600, 600})
	if _, ub := ProbBoundsPCR(pcrs, far); ub > 1e-6 {
		t.Fatalf("PCR bound %.6f for disjoint rect, want ~0", ub)
	}
}

// TestNoValidationOnZeroBound: at a threshold below catalogEps every leaf
// filter — a stored CFB pair, a U-PCR entry's PCRs, a keyed entry's
// translated shape faces, the shape's marginals at the leaf — and the
// record's marginal test validate only an object with a positive lower
// bound, so none returns an object of probability 0 — one whose MBR a
// query meets at a corner the region does not reach.
func TestNoValidationOnZeroBound(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	cat := UniformCatalog(15)
	var faces Faces
	zeros := 0
	for pi, p := range boundTestPDFs(rng) {
		pcrs := Compute(p, cat, nil)
		out, in := FitOut(pcrs), FitIn(pcrs)
		shape := NewShape(p, cat)
		mbr := p.MBR()
		for q := 0; q < 2000; q++ {
			rq := boundTestRect(rng, mbr)
			if q%2 == 0 {
				// A box at a random corner of the MBR, reaching into it by
				// up to a fifth of each side.
				lo, hi := make(geom.Point, mbr.Dim()), make(geom.Point, mbr.Dim())
				for i := range lo {
					in, ext := rng.Float64()*mbr.Side(i)/5, rng.Float64()*mbr.Side(i)
					if rng.Intn(2) == 0 {
						lo[i], hi[i] = mbr.Lo[i]-ext, mbr.Lo[i]+in
					} else {
						lo[i], hi[i] = mbr.Hi[i]-in, mbr.Hi[i]+ext
					}
				}
				rq = geom.NewRect(lo, hi)
			}
			exact := p.ExactProb(rq)
			if exact == 0 && rq.Intersects(mbr) {
				zeros++
			}
			for _, pq := range []float64{math.SmallestNonzeroFloat64, 1e-300, 1e-13} {
				for name, got := range map[string]Outcome{
					"CFB":      FilterCFB(out, in, cat, mbr, rq, pq),
					"U-PCR":    FilterCatalogPCR(pcrs, mbr, rq, pq),
					"shape":    shape.Filter(&faces, mbr, rq, pq),
					"leaf":     shape.FilterMarginal(mbr, rq, pq),
					"marginal": FilterMarginal(p, rq, pq, shape),
				} {
					if got == Validated && exact == 0 {
						t.Fatalf("pdf %d (%T) pq=%g: %s validated an object of probability 0 in rq=%v", pi, p, pq, name, rq)
					}
				}
			}
		}
	}
	if zeros < 100 {
		t.Fatalf("%d queries meet an MBR where the region has no mass; the check is thin", zeros)
	}
}
