package pcr

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/lp"
)

// CFB is a conservative functional box (Section 4.3): a rectangle-valued
// linear function of the catalog probability p,
//
//	box(p) = α − β·p    (per face),
//
// stored as per-dimension face coefficients. For cfb_out, box(p_j) contains
// the object's pcr(p_j) at every catalog value; for cfb_in it is contained
// in it. A CFB costs 4d floats, so the out/in pair costs 8d — the "16 (24)
// values in 2D (3D)" of the paper's Table 1 discussion.
type CFB struct {
	AlphaLo []float64
	BetaLo  []float64
	AlphaHi []float64
	BetaHi  []float64
}

// Dim returns the dimensionality.
func (c CFB) Dim() int { return len(c.AlphaLo) }

// Lo returns the low face position on dimension i at probability p.
func (c CFB) Lo(i int, p float64) float64 { return c.AlphaLo[i] - c.BetaLo[i]*p }

// Hi returns the high face position on dimension i at probability p.
func (c CFB) Hi(i int, p float64) float64 { return c.AlphaHi[i] - c.BetaHi[i]*p }

// span returns box(p)'s extent on dimension i. Faces that cross due to
// floating-point noise collapse to their midpoint so the extent is always
// a valid interval.
func (c CFB) span(i int, p float64) (lo, hi float64) {
	lo, hi = c.Lo(i, p), c.Hi(i, p)
	if lo > hi {
		mid := (lo + hi) / 2
		lo, hi = mid, mid
	}
	return lo, hi
}

// Rect materializes box(p).
func (c CFB) Rect(p float64) geom.Rect {
	d := c.Dim()
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for i := 0; i < d; i++ {
		lo[i], hi[i] = c.span(i, p)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// within reports rq.Contains(c.Rect(p)) without materializing the box.
func (c CFB) within(p float64, rq geom.Rect) bool {
	for i := range rq.Lo {
		if lo, hi := c.span(i, p); lo < rq.Lo[i] || hi > rq.Hi[i] {
			return false
		}
	}
	return true
}

// meets reports rq.Intersects(c.Rect(p)) without materializing the box.
func (c CFB) meets(p float64, rq geom.Rect) bool {
	for i := range rq.Lo {
		if lo, hi := c.span(i, p); rq.Hi[i] < lo || hi < rq.Lo[i] {
			return false
		}
	}
	return true
}

// FitOut fits cfb_out to the given PCRs: the margin-sum-minimal linear box
// family covering every pcr(p_j) (Section 4.4). Per dimension the problem
// decouples into two 2-variable LPs solved with simplex. The returned CFB
// satisfies Rect(p_j) ⊇ pcr(p_j) for every j.
func FitOut(pcrs PCRs) CFB {
	cat := pcrs.Cat
	m := cat.Size()
	d := pcrs.Boxes[0].Dim()
	P := cat.Sum()
	c := CFB{
		AlphaLo: make([]float64, d), BetaLo: make([]float64, d),
		AlphaHi: make([]float64, d), BetaHi: make([]float64, d),
	}
	for i := 0; i < d; i++ {
		// Low face: maximize m·α − P·β subject to α − β·p_j ≤ pcr_i−(p_j).
		aLo := make([][]float64, m)
		bLo := make([]float64, m)
		for j := 0; j < m; j++ {
			aLo[j] = []float64{1, -cat.Value(j)}
			bLo[j] = pcrs.Boxes[j].Lo[i]
		}
		xLo, _, errLo := lp.Solve(lp.Problem{C: []float64{float64(m), -P}, A: aLo, B: bLo})

		// High face: minimize m·α − P·β subject to α − β·p_j ≥ pcr_i+(p_j),
		// i.e. maximize −m·α + P·β subject to −α + β·p_j ≤ −pcr_i+(p_j).
		aHi := make([][]float64, m)
		bHi := make([]float64, m)
		for j := 0; j < m; j++ {
			aHi[j] = []float64{-1, cat.Value(j)}
			bHi[j] = -pcrs.Boxes[j].Hi[i]
		}
		xHi, _, errHi := lp.Solve(lp.Problem{C: []float64{-float64(m), P}, A: aHi, B: bHi})

		if errLo == nil && errHi == nil {
			c.AlphaLo[i], c.BetaLo[i] = xLo[0], xLo[1]
			c.AlphaHi[i], c.BetaHi[i] = xHi[0], xHi[1]
		} else {
			// Safe fallback: the constant box pcr(p_1) covers every PCR.
			c.AlphaLo[i], c.BetaLo[i] = pcrs.Boxes[0].Lo[i], 0
			c.AlphaHi[i], c.BetaHi[i] = pcrs.Boxes[0].Hi[i], 0
		}
		c.repairOut(pcrs, i)
	}
	return c
}

// repairOut nudges face i outward to absorb simplex round-off so the
// covering invariant holds exactly.
func (c *CFB) repairOut(pcrs PCRs, i int) {
	for j := 0; j < pcrs.Cat.Size(); j++ {
		p := pcrs.Cat.Value(j)
		if lo := c.Lo(i, p); lo > pcrs.Boxes[j].Lo[i] {
			c.AlphaLo[i] -= lo - pcrs.Boxes[j].Lo[i]
		}
		if hi := c.Hi(i, p); hi < pcrs.Boxes[j].Hi[i] {
			c.AlphaHi[i] += pcrs.Boxes[j].Hi[i] - hi
		}
	}
}

// FitIn fits cfb_in: the margin-sum-maximal linear box family contained in
// every pcr(p_j), subject to the non-degeneracy coupling (Inequality 14).
// Per dimension this is a single 4-variable LP.
func FitIn(pcrs PCRs) CFB {
	cat := pcrs.Cat
	m := cat.Size()
	d := pcrs.Boxes[0].Dim()
	P := cat.Sum()
	c := CFB{
		AlphaLo: make([]float64, d), BetaLo: make([]float64, d),
		AlphaHi: make([]float64, d), BetaHi: make([]float64, d),
	}
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
		obj := []float64{-float64(m), P, float64(m), -P}
		x, _, err := lp.Solve(lp.Problem{C: obj, A: a, B: b})
		if err == nil {
			c.AlphaLo[i], c.BetaLo[i] = x[0], x[1]
			c.AlphaHi[i], c.BetaHi[i] = x[2], x[3]
		} else {
			// Safe fallback: the constant box pcr(p_m) sits inside every PCR.
			last := pcrs.Boxes[m-1]
			c.AlphaLo[i], c.BetaLo[i] = last.Lo[i], 0
			c.AlphaHi[i], c.BetaHi[i] = last.Hi[i], 0
		}
		c.repairIn(pcrs, i)
	}
	return c
}

// repairIn nudges face i inward to absorb simplex round-off so the
// containment invariant holds exactly.
func (c *CFB) repairIn(pcrs PCRs, i int) {
	for j := 0; j < pcrs.Cat.Size(); j++ {
		p := pcrs.Cat.Value(j)
		if lo := c.Lo(i, p); lo < pcrs.Boxes[j].Lo[i] {
			c.AlphaLo[i] += pcrs.Boxes[j].Lo[i] - lo
		}
		if hi := c.Hi(i, p); hi > pcrs.Boxes[j].Hi[i] {
			c.AlphaHi[i] -= hi - pcrs.Boxes[j].Hi[i]
		}
	}
}

// Validate checks the conservative invariants of an out/in CFB pair against
// the PCRs they were fitted to; it returns a descriptive error on the first
// violation beyond floating-point tolerance. Used by tests and by the
// utreectl verifier.
func Validate(out, in CFB, pcrs PCRs) error {
	for j := 0; j < pcrs.Cat.Size(); j++ {
		p := pcrs.Cat.Value(j)
		ob := out.Rect(p)
		ib := in.Rect(p)
		box := pcrs.Boxes[j]
		for i := 0; i < box.Dim(); i++ {
			tol := 1e-9 * (1 + absf(box.Lo[i]) + absf(box.Hi[i]))
			if ob.Lo[i] > box.Lo[i]+tol || ob.Hi[i] < box.Hi[i]-tol {
				return fmt.Errorf("pcr: cfb_out(%g) = %v does not contain pcr = %v", p, ob, box)
			}
			if ib.Lo[i] < box.Lo[i]-tol || ib.Hi[i] > box.Hi[i]+tol {
				return fmt.Errorf("pcr: cfb_in(%g) = %v not inside pcr = %v", p, ib, box)
			}
		}
	}
	return nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
