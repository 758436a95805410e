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
// pdf's own marginal tail masses (FilterMarginal): exact where the stored
// faces only pin the marginal at 2m loosened positions.
//
// Neither formula bounds the mass beyond two faces at once, which is all a
// ball cut at a corner of rq leaves undecided. For the two radially
// symmetric families (UniformBall, ConGauBall in 2-D and 3-D) the third
// formula adds the second-order Bonferroni terms. Write E_k for the event
// of lying beyond face k of rq (the tail T_k), o_k for the face's offset
// from the centre, positive where the centre lies on rq's side of it, and
// S2 = Σ P(E_k ∩ E_l), S3 = Σ P(E_k ∩ E_l ∩ E_m) over faces on distinct
// dimensions. Then
//
//	1 − S1 + S2 − S3 ≤ P(X ∈ rq) ≤ 1 − S1 + S2      (S1 = Σ T_k)
//
// and the mass of a half-space at distance ρ from the centre is the
// marginal tail T(ρ) whichever way it faces. Beyond two faces with o_k,
// o_l > 0 lies the half-space at ρ = √(o_k² + o_l²), so P(E_k ∩ E_l) ≤
// T(ρ); where o_k ≤ 0, reflection through the centre's hyperplane on k's
// dimension gives P(E_k ∩ E_l) ≥ T_l/2, and with o_l > 0 also ≥ T_l − T(ρ)
// (what lies short of face k and beyond face l is in that half-space);
// where both are ≤ 0, P(E_k ∩ E_l) = T_k + T_l − 1 + P(short of both) ≤
// T_k + T_l − 1 + T(ρ). A triple is bounded by its smallest pair. These
// tighten the two bounds above, never replace them.
//
// In 2-D the series stops at S2 and is exact: the two faces of one
// dimension bound disjoint events, so no three faces meet and P(X ∈ rq) =
// 1 − S1 + S2. What is left open is the mass beyond a corner, and for a
// ball that is one function of the corner's offsets from the centre, Q(a,
// b) = P(X₀ − c₀ > a, X₁ − c₁ > b), which each 2-D ball shape's quadrant
// table brackets between knots (quadtable.go). By the reflections through
// the centre's axes the lower bound reads every pair off it, whichever
// side of its faces the centre lies — Q(o_k, o_l) inside both, T_l −
// Q(|o_k|, o_l) beyond face k alone, T_k + T_l − 1 + Q(|o_k|, |o_l|)
// beyond both — so a 2-D ball's lb is P less the widths of the tails'
// brackets and of the knots; its upper bound keeps T(ρ).

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

// marginalTails brackets P(X_dim < a) and P(X_dim > b) for p, of shape s.
func (s *Shape) marginalTails(p updf.PDF, dim int, a, b float64) (left, right tail) {
	if m, ok := p.(*updf.Mixture); ok {
		for k := 0; k < m.Components(); k++ {
			c, w := m.Component(k)
			l, r := s.marginalTails(c, dim, a, b)
			left.lo += w * l.lo
			left.hi += w * l.hi
			right.lo += w * r.lo
			right.hi += w * r.hi
		}
		return left, right
	}
	if t := s.table(dim); t != nil {
		c := p.Center()[dim]
		left.lo, left.hi = t.bracket(a - c)
		below, atMost := t.bracket(b - c)
		return left, tail{1 - atMost, 1 - below}
	}
	l, r := p.MarginalCDF(dim, a), 1-p.MarginalCDF(dim, b)
	return tail{l, l}, tail{r, r}
}

// ShapeSlack is δ on dimension i for an object with MBR mbr read through a
// prototype of its shape with MBR pm: mbr.Lo recovers the translation only
// to rounding, so a coordinate carried over is good to a few ulps of the
// largest one involved — 16 here, eight times what TestShapeDecisionSound
// needs. The two MBRs' extents agree to within δ.
func ShapeSlack(pm, mbr geom.Rect, i int) float64 {
	return max(math.Abs(pm.Lo[i]), math.Abs(pm.Hi[i]), math.Abs(mbr.Lo[i]), math.Abs(mbr.Hi[i])) / (1 << 48)
}

// maxPairDim is the largest dimensionality the pair terms cover.
const maxPairDim = 3

// face is one side of rq on one dimension as the pair terms see it: t
// brackets the mass beyond it, and its offset from the centre — positive
// where the centre lies on rq's side — is known to lie in [lo, hi].
type face struct {
	t      tail
	lo, hi float64
}

// marginal is the first-order bracket both FilterMarginal build and, when
// the pdf is radially symmetric, what its pair terms reuse of it: every
// face's tail and offset.
type marginal struct {
	bounds
	shape  *Shape    // the pdf's shape, whose tables the tails are read off; nil for none
	radial updf.PDF  // the radial pdf the tails were read off; nil for any other
	quad   quadrants // its quadrant masses, where the pair terms found them
	d      int
	faces  [2 * maxPairDim]face // left and right face of dimension i at 2i, 2i+1
}

// radial reports whether the pair terms hold for p: a density symmetric
// under every rotation about its centre, in 2-D or 3-D.
func radial(p updf.PDF) bool {
	switch p.(type) {
	case *updf.UniformBall, *updf.ConGauBall:
		return p.Dim() >= 2 && p.Dim() <= maxPairDim
	}
	return false
}

// read is the first-order bracket of an object whose pdf is in hand —
// refinement, after the record is read — with the same union bound and slab
// bound as the stored faces give, the tails now taken from the pdf's own
// marginals: L_i = P(X_i < rq.Lo[i]) = MarginalCDF(i, rq.Lo[i]) and R_i =
// 1 − MarginalCDF(i, rq.Hi[i]) (a pdf is a density, so a single coordinate
// carries no mass), exactly 0 where rq reaches past the MBR. When rq clips
// the object on a single dimension the pair closes to the probability
// itself.
//
// s is p's shape, nil for a pdf with none. A family whose MarginalCDF is
// closed form is called and gives exact tails; one whose MarginalCDF is a
// quadrature rule (updf.MarginalTable) is never called here when it has a
// shape: each tail is bracketed between two knots of the shape's table. A
// mixture's tails are the weighted sums of its components'. With a nil
// shape nothing is tabulated and every MarginalCDF is called; a 2-D
// uniform ball's corner masses are evaluated at the knots its quadrant
// table would hold, and a 2-D Con-Gau's pair terms do without them.
func (m *marginal) read(p updf.PDF, rq geom.Rect, s *Shape) {
	m.bounds, m.shape = newBounds(), s
	var c geom.Point
	if radial(p) {
		m.radial, m.d, c = p, len(rq.Lo), p.Center()
	}
	for i := range rq.Lo {
		left, right := s.marginalTails(p, i, rq.Lo[i], rq.Hi[i])
		m.add(left, right)
		if c != nil {
			l, r := c[i]-rq.Lo[i], rq.Hi[i]-c[i]
			m.faces[2*i], m.faces[2*i+1] = face{left, l, l}, face{right, r, r}
		}
	}
}

// readShape is read for an object of shape s whose record has not been
// read: known are its MBR and the shape's prototype — the same density up
// to translation — with MBR pm. rq is carried into the prototype's frame
// and every tail bracketed between marginalTails with its face pushed in
// by δ (the tail at its largest) and pulled out by δ (smallest); the
// leaf's threshold then widens the pair by boundPruneEps, far above what
// one CDF formula evaluated on two translates differs by. A face's offset
// from the centre is known to δ, so a radial shape's pair terms read each
// offset at the end of its interval that weakens them. So the bracket holds
// the one read gives on the object's pdf, and Shape.FilterMarginal decides
// nothing FilterMarginal does not decide the same way.
func (m *marginal) readShape(s *Shape, mbr, rq geom.Rect) {
	m.bounds, m.shape = newBounds(), s
	var c geom.Point
	if radial(s.proto) {
		m.radial, m.d, c = s.proto, len(rq.Lo), s.proto.Center()
	}
	for i := range rq.Lo {
		shift, d := s.pm.Lo[i]-mbr.Lo[i], ShapeSlack(s.pm, mbr, i)
		a, b := rq.Lo[i]+shift, rq.Hi[i]+shift
		inL, inR := s.marginalTails(s.proto, i, a+d, b-d)
		outL, outR := s.marginalTails(s.proto, i, a-d, b+d)
		left, right := tail{outL.lo, inL.hi}, tail{outR.lo, inR.hi}
		m.add(left, right)
		if c != nil {
			l, r := c[i]-a, b-c[i]
			m.faces[2*i], m.faces[2*i+1] = face{left, l - d, l + d}, face{right, r - d, r + d}
		}
	}
}

// pairs is the bracket with a radial pdf's pair terms (the header's third
// formula), result() for any other pdf. The pair terms enter only through
// the sums the first-order bounds are built from, so lb ≤ ub needs no
// clamp: the union bound's miss only grows, to at least the largest
// dimension's own tail sum, which the slab bound takes from the same
// tails, and the second-order upper bound subtracts from the union sum of
// the lower tails a sum no smaller than the one the lower bound adds.
//
// Given the threshold its caller tests the bracket against, pairs returns
// one that decides the same, skipping the terms that cannot change it. lb
// never rises above 1 − slab, nor above what the pairs' lower ends, each
// capped by its smaller tail, make it (lowerEnds); where neither lets it
// validate the lower terms are dropped and lb is the first-order one.
// Without quadrant masses a lower end is non-zero only for a face the
// centre lies beyond, so where there is none the lower terms are not read
// at all. Each upper end only raises the upper sum, so when the lower terms
// are dropped the first partial sum that cannot prune ends the summing,
// with the first-order bracket, which is Unknown too. A nil threshold asks
// for the whole bracket.
func (m *marginal) pairs(t *threshold) (lb, ub float64) {
	if m.radial == nil {
		return m.result()
	}
	n := 2 * m.d
	var missLo, slab float64
	past := false
	for i := 0; i < n; i += 2 {
		l, r := m.faces[i], m.faces[i+1]
		missLo += l.t.lo + r.t.lo
		slab = max(slab, l.t.hi+r.t.hi)
		past = past || l.hi <= 0 || r.hi <= 0
	}
	lower := t == nil || t.validates(max(1-slab, 0))
	if lower {
		m.quad = quadrantsOf(m.radial, m.shape)
		lower = t == nil || past || m.quad.ok()
	}
	// A dimension's face with the larger tail, the nearer the centre, comes
	// first: its pairs are the larger, so the summing stops the sooner.
	var order [2 * maxPairDim]int
	for i := 0; i < n; i += 2 {
		order[i], order[i+1] = i, i+1
		if m.faces[i+1].t.hi > m.faces[i].t.hi {
			order[i], order[i+1] = i+1, i
		}
	}
	var lo, hi [2 * maxPairDim][2 * maxPairDim]float64
	if lower {
		var sum float64
		if lower, sum = m.lowerEnds(&order, &lo, t); lower && m.d == 2 && t != nil {
			// In 2-D no triple takes from lb, and the upper ends only clamp
			// each lower end to at most its upper end, which it exceeds by
			// the rounding of the two evaluations alone (a quadrant mass and
			// a marginal tail, each exact to rounding) — far below
			// boundPruneEps. So an lb that validates with that much to spare
			// validates whatever the upper ends read.
			if lb := max(1-max(m.miss-sum, slab)-boundPruneEps, 0); t.validates(lb) {
				return lb, 1
			}
		}
	}
	var s2lo, s2hi, s3 float64
	for a := 0; a < n; a++ {
		e := order[a]
		if m.faces[e].t.hi == 0 {
			continue // no mass beyond e: its pairs and triples are 0
		}
		for b := a&^1 + 2; b < n; b++ { // the faces of the later dimensions
			f := order[b]
			if m.faces[f].t.hi == 0 {
				continue
			}
			if !lower && !t.prunes(1-(missLo-s2hi)) {
				return m.result()
			}
			h := m.pairUpper(m.faces[e], m.faces[f])
			hi[e][f] = h
			s2hi += h
			if lower {
				s2lo += min(lo[e][f], h)
			}
		}
	}
	if m.d == 3 && lower {
		for e := 0; e < 2; e++ {
			for f := 2; f < 4; f++ {
				for g := 4; g < 6; g++ {
					s3 += min(hi[e][f], hi[e][g], hi[f][g])
				}
			}
		}
	}
	miss := min(m.miss, max(m.miss-s2lo+s3, slab))
	return max(1-miss, 0), max(min(m.ub, 1-(missLo-s2hi)), 0)
}

// lowerEnds fills lo with each pair's lower end, capped by its smaller
// tail, in order, and reports whether lb could validate with them, and
// their sum: at each pair, whether it could were every pair still to come
// to add its cap, so the reading stops at the first that says no. Every
// pair's lower end in the bracket is at most its entry here, so lb is at
// most what this sums.
func (m *marginal) lowerEnds(order *[2 * maxPairDim]int, lo *[2 * maxPairDim][2 * maxPairDim]float64, t *threshold) (could bool, sum float64) {
	n := 2 * m.d
	var rest float64 // the caps of the pairs still to come
	for e := 0; e < n; e++ {
		for f := e&^1 + 2; f < n; f++ {
			lo[e][f] = min(m.faces[e].t.hi, m.faces[f].t.hi)
			rest += lo[e][f]
		}
	}
	// The largest lb the lower ends could still give is top + sum + rest;
	// the margin covers summing them in another order than the bracket
	// sums its terms.
	top := 1 - m.miss + roundingMargin
	for a := 0; a < n; a++ {
		for b := a&^1 + 2; b < n; b++ {
			e, f := order[a], order[b]
			c := lo[e][f] // its cap, until its lower end replaces it
			if c == 0 {
				continue // no mass beyond one of the faces
			}
			if t != nil && !t.validates(max(top+sum+rest, 0)) {
				return false, 0
			}
			rest -= c
			lo[e][f] = min(m.pairLower(m.faces[e], m.faces[f]), c)
			sum += lo[e][f]
		}
	}
	return t == nil || t.validates(max(top+sum, 0)), sum
}

// roundingMargin is what lowerEnds adds to the largest lb the lower ends
// could give before it drops them: far above the rounding of a dozen sums
// of probabilities, far below boundPruneEps.
const roundingMargin = 1e-13

// pairLower is the lower end of P(E_e ∩ E_f), the mass beyond faces e and
// f of two distinct dimensions, at least 0. With quadrant masses Q the mass
// is, by the reflections that carry each case to the quadrant beyond two
// faces the centre lies short of, Q(o_e, o_f) where the centre lies inside
// both faces, T_f − Q(|o_e|, o_f) where it lies beyond e alone and T_e +
// T_f − 1 + Q(|o_e|, |o_f|) beyond both, each Q read at the end of its
// offsets' intervals and on the side of its knots that weaken it.
func (m *marginal) pairLower(e, f face) float64 {
	if f.hi <= 0 && e.lo > 0 {
		e, f = f, e // the face the centre lies beyond, if one, is e
	}
	q, lo := m.quad.ok(), 0.0
	switch {
	case e.lo > 0 && f.lo > 0:
		if q {
			lo = m.quad.lower(e.hi, f.hi)
		}
	case e.hi <= 0 && f.lo > 0:
		if q {
			lo = f.t.lo - m.quad.upper(-e.hi, f.lo)
		} else {
			lo = max(f.t.lo/2, f.t.lo-m.beyond(e.hi, f.lo))
		}
	case e.hi <= 0 && f.hi <= 0:
		if q {
			lo = e.t.lo + f.t.lo - 1 + m.quad.lower(-e.lo, -f.lo)
		} else {
			lo = max(e.t.lo/2, f.t.lo/2, e.t.lo+f.t.lo-1)
		}
	}
	return max(lo, 0)
}

// pairUpper is the upper end of P(E_e ∩ E_f).
func (m *marginal) pairUpper(e, f face) float64 {
	hi := min(e.t.hi, f.t.hi)
	if f.hi <= 0 && e.lo > 0 {
		e, f = f, e
	}
	switch {
	case e.lo > 0 && f.lo > 0:
		hi = min(hi, m.beyond(e.lo, f.lo))
	case e.hi <= 0 && f.hi <= 0:
		hi = min(hi, e.t.hi+f.t.hi-1+m.beyond(e.hi, f.hi))
	}
	return hi
}

// beyond is the upper end of T(ρ), ρ = √(u² + v²): the radial pdf's mass
// beyond a hyperplane at distance ρ from its centre, read as the marginal
// tail past Center()[0] + ρ. It is read 2⁻⁵⁰ of |centre| + ρ nearer the
// centre than ρ, more than the square root, adding the centre and
// MarginalCDF's taking it off again can together round the distance
// outward.
func (m *marginal) beyond(u, v float64) float64 {
	c := m.radial.Center()[0]
	rho := math.Sqrt(u*u + v*v)
	rho -= (math.Abs(c) + math.Abs(rho)) / (1 << 50)
	_, t := m.shape.marginalTails(m.radial, 0, math.Inf(-1), c+rho)
	return t.hi
}
