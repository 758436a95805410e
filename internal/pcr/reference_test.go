package pcr

import (
	"math"

	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/updf"
)

// This file keeps Observations 1–3 as the paper prints them, validating
// Rules 3–5 included, as a test-only reference: FilterCatalogPCR and
// FilterCFB decide validation by the probability lower bound, and the
// differential test in probbound_test.go holds them to validating
// everything paperFilterCatalogPCR and paperFilterCFB do. FilterExact is
// Observation 1 itself, the continuous-p filter no stored entry can run.
//
// It also keeps Section 4.4's fit as the paper prints it — linear programs
// solved by the Simplex method (simplexFitOut, simplexFitIn) — as the oracle
// the float64 stage of FitOut and FitIn is held to in fit_test.go;
// internal/lp has no other importer. Both sides of that comparison are
// faces64, and filterFaces64 is FilterCFB on them: what the filter would
// decide had the coefficients not been rounded to float32.

// coversSlab reports whether rq fully contains the part of mbr between the
// two planes perpendicular to dimension dim at coordinates lo and hi. This
// is the O(d) primitive the paper describes after Observation 1: rq must
// enclose mbr on every other dimension, and rq's extent on dim must cover
// the clipped interval. An empty slab reports false (validation must never
// fire on vacuous geometry).
func coversSlab(rq, mbr geom.Rect, dim int, lo, hi float64) bool {
	for k := 0; k < mbr.Dim(); k++ {
		if k == dim {
			continue
		}
		if rq.Lo[k] > mbr.Lo[k] || rq.Hi[k] < mbr.Hi[k] {
			return false
		}
	}
	l := math.Max(mbr.Lo[dim], lo)
	h := math.Min(mbr.Hi[dim], hi)
	if l > h {
		return false
	}
	return rq.Lo[dim] <= l && rq.Hi[dim] >= h
}

// validateOuterSides applies Rule 4's pattern (pq > 0.5): succeed if, on
// some dimension i, rq covers the part of mbr on the *right* of the box's
// low plane (mass ≥ 1−p_j) or on the *left* of its high plane.
func validateOuterSides(rq, mbr geom.Rect, box geom.Rect) bool {
	for i := 0; i < mbr.Dim(); i++ {
		if coversSlab(rq, mbr, i, box.Lo[i], math.Inf(1)) {
			return true
		}
		if coversSlab(rq, mbr, i, math.Inf(-1), box.Hi[i]) {
			return true
		}
	}
	return false
}

// validateInnerSides applies Rule 5's pattern (pq ≤ 0.5): succeed if, on
// some dimension i, rq covers the part of mbr on the *left* of the box's
// low plane (mass ≥ p_j) or on the *right* of its high plane.
func validateInnerSides(rq, mbr geom.Rect, box geom.Rect) bool {
	for i := 0; i < mbr.Dim(); i++ {
		if coversSlab(rq, mbr, i, math.Inf(-1), box.Lo[i]) {
			return true
		}
		if coversSlab(rq, mbr, i, box.Hi[i], math.Inf(1)) {
			return true
		}
	}
	return false
}

// validateBetween applies Rule 3's pattern: succeed if, on some dimension,
// rq covers the part of mbr between box's two faces.
func validateBetween(rq, mbr geom.Rect, box geom.Rect) bool {
	for i := 0; i < mbr.Dim(); i++ {
		if coversSlab(rq, mbr, i, box.Lo[i], box.Hi[i]) {
			return true
		}
	}
	return false
}

// FilterExact applies Observation 1 with exact PCRs computed on demand from
// the pdf's marginal quantiles (the idealized, infinite-catalog filter).
func FilterExact(p updf.PDF, rq geom.Rect, pq float64) Outcome {
	mbr := p.MBR()
	if !rq.Intersects(mbr) {
		return Pruned
	}
	if rq.Contains(mbr) {
		return Validated
	}
	d := p.Dim()
	pcrAt := func(prob float64) geom.Rect {
		lo := make(geom.Point, d)
		hi := make(geom.Point, d)
		for i := 0; i < d; i++ {
			lo[i] = updf.MarginalQuantile(p, i, prob)
			hi[i] = updf.MarginalQuantile(p, i, 1-prob)
			if lo[i] > hi[i] {
				mid := (lo[i] + hi[i]) / 2
				lo[i], hi[i] = mid, mid
			}
		}
		return geom.Rect{Lo: lo, Hi: hi}
	}
	if pq > 0.5 {
		// Rule 1: prune unless rq contains pcr(1−pq).
		if !rq.Contains(pcrAt(1 - pq)) {
			return Pruned
		}
		// Rule 4: one-sided validation with pcr(1−pq) planes.
		if validateOuterSides(rq, mbr, pcrAt(1-pq)) {
			return Validated
		}
	} else {
		// Rule 2: prune if rq misses pcr(pq).
		if !rq.Intersects(pcrAt(pq)) {
			return Pruned
		}
		// Rule 5: one-sided validation with pcr(pq) planes.
		if validateInnerSides(rq, mbr, pcrAt(pq)) {
			return Validated
		}
	}
	// Rule 3: two-sided validation with pcr((1−pq)/2).
	if validateBetween(rq, mbr, pcrAt((1-pq)/2)) {
		return Validated
	}
	return Unknown
}

// paperFilterCatalogPCR applies Observation 2 as the paper states it: the
// finite-catalog PCR rules of a U-PCR leaf entry. mbr is the MBR of the
// uncertainty region. The rule order follows the paper: prune first (Rule 1
// or 2), then the one-sided validation (Rule 4 or 5), then Rule 3.
func paperFilterCatalogPCR(pcrs PCRs, mbr, rq geom.Rect, pq float64) Outcome {
	if !rq.Intersects(mbr) {
		return Pruned
	}
	if rq.Contains(mbr) {
		return Validated
	}
	cat := pcrs.Cat
	pm := cat.Max()

	if pq > 1-pm {
		// Rule 1: p_j = smallest catalog value ≥ 1−pq.
		if j, ok := cat.SmallestGE(1 - pq); ok {
			if !rq.Contains(pcrs.Boxes[j]) {
				return Pruned
			}
		}
	} else {
		// Rule 2: p_j = largest catalog value ≤ pq.
		if j, ok := cat.LargestLE(pq); ok {
			if !rq.Intersects(pcrs.Boxes[j]) {
				return Pruned
			}
		}
	}

	if pq > 0.5 {
		// Rule 4: p_j = largest catalog value ≤ 1−pq.
		if j, ok := cat.LargestLE(1 - pq); ok {
			if validateOuterSides(rq, mbr, pcrs.Boxes[j]) {
				return Validated
			}
		}
	} else {
		// Rule 5: p_j = smallest catalog value ≥ pq.
		if j, ok := cat.SmallestGE(pq); ok {
			if validateInnerSides(rq, mbr, pcrs.Boxes[j]) {
				return Validated
			}
		}
	}

	// Rule 3: p_j = largest catalog value ≤ (1−pq)/2.
	if j, ok := cat.LargestLE((1 - pq) / 2); ok {
		if validateBetween(rq, mbr, pcrs.Boxes[j]) {
			return Validated
		}
	}
	return Unknown
}

// paperFilterCFB applies Observation 3 as the paper states it: Observation
// 2 with PCRs replaced by the conservative functional boxes stored in
// U-tree leaf entries — cfb_in for the containment prune (Rule 1) and
// one-sided validation at low thresholds (Rule 5), cfb_out for the
// intersection prune (Rule 2) and validations at high thresholds (Rules 3
// and 4). The inner box is read face by face (rawBox), as every rule on
// cfb_in must.
func paperFilterCFB(out, in CFB, cat Catalog, mbr, rq geom.Rect, pq float64) Outcome {
	if !rq.Intersects(mbr) {
		return Pruned
	}
	if rq.Contains(mbr) {
		return Validated
	}
	pm := cat.Max()

	if pq > 1-pm {
		// Rule 1 with cfb_in (contained in pcr, so "rq fails to contain"
		// transfers).
		if j, ok := cat.SmallestGE(1 - pq); ok {
			if !rq.Contains(rawBox(in, cat.Value(j))) {
				return Pruned
			}
		}
	} else {
		// Rule 2 with cfb_out (contains pcr, so "rq misses" transfers).
		if j, ok := cat.LargestLE(pq); ok {
			if !rq.Intersects(out.Rect(cat.Value(j))) {
				return Pruned
			}
		}
	}

	if pq > 0.5 {
		// Rule 4 with cfb_out planes.
		if j, ok := cat.LargestLE(1 - pq); ok {
			if validateOuterSides(rq, mbr, out.Rect(cat.Value(j))) {
				return Validated
			}
		}
	} else {
		// Rule 5 with cfb_in planes.
		if j, ok := cat.SmallestGE(pq); ok {
			if validateInnerSides(rq, mbr, rawBox(in, cat.Value(j))) {
				return Validated
			}
		}
	}

	// Rule 3 with cfb_out planes.
	if j, ok := cat.LargestLE((1 - pq) / 2); ok {
		if validateBetween(rq, mbr, out.Rect(cat.Value(j))) {
			return Validated
		}
	}
	return Unknown
}

// rawBox is c.Rect(p) without the collapse of crossed faces: each side of
// the returned rectangle is one face of c, even where Lo > Hi.
func rawBox(c CFB, p float64) geom.Rect {
	r := geom.Rect{Lo: make(geom.Point, c.Dim()), Hi: make(geom.Point, c.Dim())}
	for i := range r.Lo {
		r.Lo[i], r.Hi[i] = c.Lo(i, p), c.Hi(i, p)
	}
	return r
}

// faces64 is a CFB before quantisation: per dimension the low and the high
// face as float64 lines.
type faces64 []struct{ lo, hi line }

// stage64 runs one fit's float64 stage (fitScratch.outFaces or inFaces)
// over every dimension.
func stage64(pcrs PCRs, stage func(*fitScratch, Catalog, []float64, []float64) (lo, hi line)) faces64 {
	var s fitScratch
	f := make(faces64, pcrs.Boxes[0].Dim())
	for i := range f {
		los, his := s.columns(pcrs, i)
		f[i].lo, f[i].hi = stage(&s, pcrs.Cat, los, his)
	}
	return f
}

// filterFaces64 is FilterCFB with the faces read at float64: the same MBR
// tests, Rule 1 on the raw inner faces or Rule 2 on the outer ones, then
// ProbBoundsCFB's tails and decide.
func filterFaces64(out, in faces64, cat Catalog, mbr, rq geom.Rect, pq float64) Outcome {
	if !rq.Intersects(mbr) {
		return Pruned
	}
	if rq.Contains(mbr) {
		return Validated
	}
	if pq > 1-cat.Max() {
		if j, ok := cat.SmallestGE(1 - pq); ok {
			for i, f := range in {
				if p := cat.Value(j); f.lo.at(p) < rq.Lo[i] || f.hi.at(p) > rq.Hi[i] {
					return Pruned
				}
			}
		}
	} else {
		if j, ok := cat.LargestLE(pq); ok {
			for i, f := range out {
				if p := cat.Value(j); rq.Hi[i] < f.lo.at(p) || f.hi.at(p) < rq.Lo[i] {
					return Pruned
				}
			}
		}
	}
	acc := newBounds()
	for i := range rq.Lo {
		var left, right tail
		if a := rq.Lo[i]; a > mbr.Lo[i] {
			left = cfbTail(a, cat.values, out[i].lo, in[i].lo, in[i].hi, out[i].hi)
		}
		if b := rq.Hi[i]; b < mbr.Hi[i] {
			right = cfbTail(-b, cat.values, out[i].hi.mirror(), in[i].hi.mirror(), in[i].lo.mirror(), out[i].lo.mirror())
		}
		acc.add(left, right)
	}
	lb, ub := acc.result()
	return decide(lb, ub, pq)
}

// simplexFitOut solves Section 4.4's cfb_out programs with the simplex: per
// dimension two 2-variable LPs over m half-planes. The result is the
// solver's vertex as returned, without the round-off repair.
func simplexFitOut(pcrs PCRs) (faces64, error) {
	cat := pcrs.Cat
	m := cat.Size()
	d := pcrs.Boxes[0].Dim()
	P := cat.Sum()
	c := make(faces64, d)
	for i := 0; i < d; i++ {
		// Low face: maximize m·α − P·β subject to α − β·p_j ≤ pcr_i−(p_j).
		aLo := make([][]float64, m)
		bLo := make([]float64, m)
		// High face: minimize m·α − P·β subject to α − β·p_j ≥ pcr_i+(p_j),
		// i.e. maximize −m·α + P·β subject to −α + β·p_j ≤ −pcr_i+(p_j).
		aHi := make([][]float64, m)
		bHi := make([]float64, m)
		for j := 0; j < m; j++ {
			aLo[j] = []float64{1, -cat.Value(j)}
			bLo[j] = pcrs.Boxes[j].Lo[i]
			aHi[j] = []float64{-1, cat.Value(j)}
			bHi[j] = -pcrs.Boxes[j].Hi[i]
		}
		xLo, _, err := lp.Solve(lp.Problem{C: []float64{float64(m), -P}, A: aLo, B: bLo})
		if err != nil {
			return nil, err
		}
		xHi, _, err := lp.Solve(lp.Problem{C: []float64{-float64(m), P}, A: aHi, B: bHi})
		if err != nil {
			return nil, err
		}
		c[i].lo, c[i].hi = line{xLo[0], xLo[1]}, line{xHi[0], xHi[1]}
	}
	return c, nil
}

// simplexFitIn solves Section 4.4's cfb_in program with the simplex: per
// dimension one 4-variable LP over 3m rows, Inequality 14 included.
func simplexFitIn(pcrs PCRs) (faces64, error) {
	cat := pcrs.Cat
	m := cat.Size()
	d := pcrs.Boxes[0].Dim()
	P := cat.Sum()
	c := make(faces64, d)
	for i := 0; i < d; i++ {
		// Variables x = (αlo, βlo, αhi, βhi).
		// maximize (m·αhi − P·βhi) − (m·αlo − P·βlo)
		// s.t.  −αlo + βlo·p_j ≤ −pcr_i−(p_j)       (inner ≥ pcr low face)
		//        αhi − βhi·p_j ≤  pcr_i+(p_j)       (inner ≤ pcr high face)
		//        αlo − βlo·p_j − αhi + βhi·p_j ≤ 0  (low ≤ high, Ineq. 14)
		a := make([][]float64, 0, 3*m)
		b := make([]float64, 0, 3*m)
		for j := 0; j < m; j++ {
			pj := cat.Value(j)
			a = append(a, []float64{-1, pj, 0, 0})
			b = append(b, -pcrs.Boxes[j].Lo[i])
			a = append(a, []float64{0, 0, 1, -pj})
			b = append(b, pcrs.Boxes[j].Hi[i])
			a = append(a, []float64{1, -pj, -1, pj})
			b = append(b, 0)
		}
		x, _, err := lp.Solve(lp.Problem{C: []float64{-float64(m), P, float64(m), -P}, A: a, B: b})
		if err != nil {
			return nil, err
		}
		c[i].lo, c[i].hi = line{x[0], x[1]}, line{x[2], x[3]}
	}
	return c, nil
}
