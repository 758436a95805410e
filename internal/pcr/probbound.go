package pcr

import (
	"math"

	"repro/internal/geom"
	"repro/internal/updf"
)

// This file bounds an object's qualification probability P(X ∈ rq) from
// both sides (after Bernecker et al., PAPERS.md 1101.2613) using its PCR
// slab positions alone, with no assumption on the pdf beyond the PCR face
// property. The lower bound is the filter's one validation rule — Rules
// 3–5 of the paper are the special cases in which rq clips the object on a
// single axis — and the upper bound prunes where Rules 1–2 cannot.
//
// Both work on tails, per dimension. Write [a, b] for the query's interval
// on dimension i, L = P(X_i < a) and R = P(X_i > b). The PCR face property
// pins the marginal distribution at 2m positions: the low face of pcr(p_j)
// has mass p_j on its left, the high face mass p_j on its right. A face at
// or right of a therefore caps L (L ≤ p_j below a low face, L ≤ 1 − p_j
// below a high one), a face strictly left of a floors it, and the mirror
// holds for R and b; where rq reaches past the MBR the tail is exactly 0.
// With L_i ∈ [L_i⁻, L_i⁺] and R_i ∈ [R_i⁻, R_i⁺]:
//
//	lb = 1 − Σ_i (L_i⁺ + R_i⁺)        (union bound on missing rq)
//	ub = min_i (1 − L_i⁻ − R_i⁻)      (rq ⊆ its slab on every dimension)
//
// Neither assumes independence across dimensions, so both hold for
// arbitrary pdfs exactly as the PCR face property does.
//
// With CFBs, cfb_out faces lie outside the PCR faces and cfb_in faces
// inside, so each substitutes where its error only weakens a bound: caps
// take out's low face and in's high face (mirror for R), floors in's low
// face and out's high face. PCR nesting repair and CFB fitting move outer
// faces outward and inner faces inward only, which keeps every cap exact
// and can overstate a floor by float-level noise; the prune test carries
// boundPruneEps for that.
//
// Once refinement holds the object's pdf, the same two formulas are fed the
// pdf's own marginal tail masses (ProbBoundsMarginal): exact where the
// stored faces only pin the marginal at 2m loosened positions.

// boundPruneEps is the safety margin of the upper-bound prune: a candidate
// is dropped only when ub is below the query threshold by more than this,
// absorbing the float noise nesting repair can put into stored faces — and,
// for FilterMarginal, on both of its tests, the rounding of the
// Gauss–Legendre rules behind a CDF table and behind ExactProb.
const boundPruneEps = 1e-9

// tail brackets one tail mass, lo ≤ P(X_i < x) ≤ hi.
type tail struct{ lo, hi float64 }

// face folds the four faces of one catalog value into the bracket of
// P(X_i < x): outLo/outHi are at or outside the PCR's faces, inLo/inHi at
// or inside them (for raw PCRs out = in).
func (t *tail) face(x, p, outLo, inLo, inHi, outHi float64) {
	if x <= outLo {
		t.hi = min(t.hi, p)
	}
	if x <= inHi {
		t.hi = min(t.hi, 1-p)
	}
	if inLo < x {
		t.lo = max(t.lo, p)
	}
	if outHi < x {
		t.lo = max(t.lo, 1-p)
	}
}

// bounds accumulates (lb, ub) over dimensions from the per-dimension tails.
type bounds struct{ miss, ub float64 }

func newBounds() bounds { return bounds{ub: 1} }

// Both sides sum a dimension's two tails before anything else, so when rq
// clips the object on one dimension only and the tails are exact (lo = hi)
// the two bounds are the same float.
func (b *bounds) add(left, right tail) {
	b.miss += left.hi + right.hi
	b.ub = min(b.ub, 1-(left.lo+right.lo))
}

func (b bounds) result() (lb, ub float64) {
	return max(1-b.miss, 0), max(b.ub, 0)
}

// ProbBoundsPCR brackets the qualification probability of an object stored
// as explicit catalog PCRs (the U-PCR leaf format): lb ≤ P(X ∈ rq) ≤ ub.
// pcr(p_1 = 0) is the MBR, so the exact-zero tails need no separate test.
func ProbBoundsPCR(p PCRs, rq geom.Rect) (lb, ub float64) {
	acc := newBounds()
	for i := range rq.Lo {
		a, b := rq.Lo[i], rq.Hi[i]
		left, right := tail{hi: 1}, tail{hi: 1}
		for j, box := range p.Boxes {
			pj, lo, hi := p.Cat.values[j], box.Lo[i], box.Hi[i]
			left.face(a, pj, lo, lo, hi, hi)
			// The right tail is the left tail of the mirrored axis.
			right.face(-b, pj, -hi, -hi, -lo, -lo)
		}
		acc.add(left, right)
	}
	return acc.result()
}

// line is one CFB face on one dimension as a function of the catalog
// probability: position(p) = alpha − beta·p.
type line struct{ alpha, beta float64 }

func (l line) at(p float64) float64 { return l.alpha - l.beta*p }

// mirror returns the face seen from the reflected axis.
func (l line) mirror() line { return line{-l.alpha, -l.beta} }

// shift returns the face translated by c.
func (l line) shift(c float64) line { return line{l.alpha + c, l.beta} }

// firstAtLeast returns the smallest j with l.at(p[j]) ≥ x, len(p) when
// there is none. A low face moves right as p grows, so its crossing index
// is found by bisection instead of scanning the catalog; should round-off
// ever tilt a face the other way the result is still an index where the
// test was evaluated true and its predecessor false, which is all the
// callers' soundness needs.
func (l line) firstAtLeast(p []float64, x float64) int {
	lo, hi := 0, len(p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.at(p[mid]) >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// firstBelow is firstAtLeast for a high face, which moves left as p
// grows: the smallest j with l.at(p[j]) < x.
func (l line) firstBelow(p []float64, x float64) int {
	lo, hi := 0, len(p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.at(p[mid]) < x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// cfbTail brackets P(X_i < x) from a CFB pair's four faces on dimension i:
// what tail.face folds over the whole catalog, read off the at most three
// catalog values where x crosses a face.
func cfbTail(x float64, p []float64, outLo, inLo, inHi, outHi line) tail {
	t := tail{hi: 1}
	if j := outLo.firstAtLeast(p, x); j < len(p) {
		// x is left of a low face, hence of every high face: the low
		// faces alone bracket it.
		t.hi = p[j]
		if k := inLo.firstAtLeast(p, x) - 1; k >= 0 {
			t.lo = p[k]
		}
		return t
	}
	if k := inHi.firstBelow(p, x) - 1; k >= 0 {
		t.hi = 1 - p[k]
	}
	if j := outHi.firstBelow(p, x); j < len(p) {
		t.lo = 1 - p[j] // ≥ 0.5 ≥ any floor a low face gives
	} else if k := inLo.firstAtLeast(p, x) - 1; k >= 0 {
		t.lo = p[k]
	}
	return t
}

// ProbBounds brackets the qualification probability of an object with
// these faces; mbr is the MBR of its uncertainty region, which cfb_out(0)
// only covers.
func (f Faces) ProbBounds(cat Catalog, mbr, rq geom.Rect) (lb, ub float64) {
	acc := newBounds()
	for i := range rq.Lo {
		var left, right tail // zero: rq reaches past the MBR, the tail is empty
		outLo, outHi, inLo, inHi := f[4*i], f[4*i+1], f[4*i+2], f[4*i+3]
		if a := rq.Lo[i]; a > mbr.Lo[i] {
			left = cfbTail(a, cat.values, outLo, inLo, inHi, outHi)
		}
		if b := rq.Hi[i]; b < mbr.Hi[i] {
			// The right tail is the left tail of the mirrored axis.
			right = cfbTail(-b, cat.values, outHi.mirror(), inHi.mirror(), inLo.mirror(), outLo.mirror())
		}
		acc.add(left, right)
	}
	return acc.result()
}

// ProbBoundsMarginal brackets the qualification probability of an object
// whose pdf is in hand — refinement, after the record is read — with the
// same union bound and slab bound as above, the tails now taken from the
// pdf's own marginals: L_i = P(X_i < rq.Lo[i]) = MarginalCDF(i, rq.Lo[i])
// and R_i = 1 − MarginalCDF(i, rq.Hi[i]) (a pdf is a density, so a single
// coordinate carries no mass), exactly 0 where rq reaches past the MBR.
// When rq clips the object on a single dimension the pair closes to the
// probability itself.
//
// A family whose MarginalCDF is closed form is called and gives exact
// tails; one whose MarginalCDF is a quadrature rule (updf.MarginalTable) is
// never called here once its shape's table exists in cache: each tail is
// bracketed between two knots of the table. A mixture's tails are the
// weighted sums of its components'. With a nil cache nothing is tabulated
// and every MarginalCDF is called.
func ProbBoundsMarginal(p updf.PDF, rq geom.Rect, cache *QuantileCache) (lb, ub float64) {
	acc := newBounds()
	for i := range rq.Lo {
		acc.add(cache.marginalTails(p, i, rq.Lo[i], rq.Hi[i]))
	}
	return acc.result()
}

// marginalTails brackets P(X_dim < a) and P(X_dim > b).
func (qc *QuantileCache) marginalTails(p updf.PDF, dim int, a, b float64) (left, right tail) {
	if m, ok := p.(*updf.Mixture); ok {
		for k := 0; k < m.Components(); k++ {
			c, w := m.Component(k)
			l, r := qc.marginalTails(c, dim, a, b)
			left.lo += w * l.lo
			left.hi += w * l.hi
			right.lo += w * r.lo
			right.hi += w * r.hi
		}
		return left, right
	}
	shape, tabulate := updf.MarginalTable(p)
	if !tabulate || qc == nil {
		l, r := p.MarginalCDF(dim, a), 1-p.MarginalCDF(dim, b)
		return tail{l, l}, tail{r, r}
	}
	t, c := qc.table(p, shape, dim), p.Center()[dim]
	left.lo, left.hi = t.bracket(a - c)
	below, atMost := t.bracket(b - c)
	return left, tail{1 - atMost, 1 - below}
}

// ShapeSlack is δ on dimension i for an object with MBR mbr read through a
// prototype of its shape with MBR pm: mbr.Lo recovers the translation only
// to rounding, so a coordinate carried over is good to a few ulps of the
// largest one involved — 16 here, eight times what TestShapeDecisionSound
// needs. The two MBRs' extents agree to within δ.
func ShapeSlack(pm, mbr geom.Rect, i int) float64 {
	return max(math.Abs(pm.Lo[i]), math.Abs(pm.Hi[i]), math.Abs(mbr.Lo[i]), math.Abs(mbr.Hi[i])) / (1 << 48)
}

// ProbBoundsShape is ProbBoundsMarginal for an object whose record has not
// been read: known are its MBR and proto, a pdf of its (non-empty) ShapeKey —
// the same density up to translation — with MBR pm. rq is carried into
// proto's frame and every tail bracketed between marginalTails with its face
// pushed in by δ (the tail at its largest) and pulled out by δ (smallest),
// then the pair is widened by boundPruneEps, far above what one CDF formula
// evaluated on two translates differs by. So the bracket holds the one
// ProbBoundsMarginal gives on the object's pdf, and FilterShape decides
// nothing FilterMarginal does not decide the same way.
func ProbBoundsShape(proto updf.PDF, pm, mbr, rq geom.Rect, cache *QuantileCache) (lb, ub float64) {
	acc := newBounds()
	for i := range rq.Lo {
		shift, d := pm.Lo[i]-mbr.Lo[i], ShapeSlack(pm, mbr, i)
		a, b := rq.Lo[i]+shift, rq.Hi[i]+shift
		inL, inR := cache.marginalTails(proto, i, a+d, b-d)
		outL, outR := cache.marginalTails(proto, i, a-d, b+d)
		acc.add(tail{outL.lo, inL.hi}, tail{outR.lo, inR.hi})
	}
	lb, ub = acc.result()
	return max(lb-boundPruneEps, 0), min(ub+boundPruneEps, 1)
}
