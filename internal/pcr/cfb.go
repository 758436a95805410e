package pcr

import (
	"fmt"
	"math"

	"repro/internal/geom"
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

// The fit (Section 4.4). The paper casts each face of cfb_out and cfb_in as
// a linear program and solves it "by the Simplex method". Both programs
// have structure a general solver cannot see. A face is a line
// f(p) = α − β·p, and Formula 11's objective Σ_j f(p_j) = m·α − P·β equals
// m·f(p̄) with p̄ = P/m, the mean catalog value: the objective is the
// face's height at one abscissa. The constraints are the m points
// (p_j, pcr_i∓(p_j)), already sorted by p. So the highest line under the
// points at p̄ is the edge of their lower convex hull that spans p̄, the
// lowest line over them the edge of the upper hull — the simplex's optimum,
// read off a monotone-chain hull in O(m) without iterating. FitOut and
// FitIn compute exactly that; the simplex survives as the oracle of the
// differential test (reference_test.go).
//
// Both fits need the PCRs to nest (low faces ascend with p, high faces
// descend), which Compute enforces.

// fitStack is the catalog size up to which a fit's scratch (one column of
// low faces, one of high faces, one hull) lives on the goroutine stack;
// larger catalogs spill to the heap through append.
const fitStack = 32

// columns gathers dimension i's low and high PCR faces over the catalog
// into lo and hi.
func (p PCRs) columns(i int, lo, hi []float64) ([]float64, []float64) {
	for _, b := range p.Boxes {
		lo = append(lo, b.Lo[i])
		hi = append(hi, b.Hi[i])
	}
	return lo, hi
}

// convexHull appends to hull the vertices of the lower (sign = +1) or upper
// (sign = −1) convex hull of the points (p[j], y[j]), p ascending, as
// indices in ascending order: Andrew's monotone chain, which needs no sort
// here. Collinear points are not vertices.
func convexHull(hull []int, p, y []float64, sign float64) []int {
	for c := range p {
		for n := len(hull); n >= 2; n-- {
			a, b := hull[n-2], hull[n-1]
			if sign*((p[b]-p[a])*(y[c]-y[a])-(y[b]-y[a])*(p[c]-p[a])) > 0 {
				break
			}
			hull = hull[:n-1]
		}
		hull = append(hull, c)
	}
	return hull
}

// hullFace returns the face through the hull edge (convexHull) that spans
// abscissa x, p[0] ≤ x < p[m−1]. When x is a vertex both edges at it have
// the same height there; the right-hand one is taken, always, so that
// equal inputs give equal faces. (For the uniform catalog with odd m the
// mean p̄ is the catalog value p_⌈m/2⌉, so this is the common case, not a
// corner.)
func hullFace(hull []int, p, y []float64, sign, x float64) (alpha, beta float64) {
	hull = convexHull(hull, p, y, sign)
	k := 0
	for k+2 < len(hull) && p[hull[k+1]] <= x {
		k++
	}
	a, b := hull[k], hull[k+1]
	return chord(p[a], y[a], p[b], y[b])
}

// chord returns the face coefficients of the line through (pa, ya) and
// (pb, yb): α − β·p.
func chord(pa, ya, pb, yb float64) (alpha, beta float64) {
	beta = (ya - yb) / (pb - pa)
	return ya + beta*pa, beta
}

func newCFB(d int) CFB {
	return CFB{
		AlphaLo: make([]float64, d), BetaLo: make([]float64, d),
		AlphaHi: make([]float64, d), BetaHi: make([]float64, d),
	}
}

// FitOut fits cfb_out to the given PCRs: the margin-sum-minimal linear box
// family covering every pcr(p_j) (Section 4.4). Per dimension the two faces
// are independent (lo ≤ pcr_i− ≤ pcr_i+ ≤ hi needs no coupling): the low
// face is the highest line at p̄ under the low PCR faces, the high face the
// lowest line at p̄ over the high ones. The returned CFB satisfies
// Lo(i, p_j) ≤ pcr_i−(p_j) and Hi(i, p_j) ≥ pcr_i+(p_j) exactly.
func FitOut(pcrs PCRs) CFB {
	p := pcrs.Cat.values
	mean := pcrs.Cat.mean()
	d := pcrs.Boxes[0].Dim()
	c := newCFB(d)
	var loBuf, hiBuf [fitStack]float64
	var hull [fitStack]int
	for i := 0; i < d; i++ {
		lo, hi := pcrs.columns(i, loBuf[:0], hiBuf[:0])
		c.AlphaLo[i], c.BetaLo[i] = hullFace(hull[:0], p, lo, +1, mean)
		c.AlphaHi[i], c.BetaHi[i] = hullFace(hull[:0], p, hi, -1, mean)
		c.repairOut(pcrs, i)
	}
	return c
}

// repairOut moves face i outward until the covering invariant holds for
// the faces as CFB.Lo and CFB.Hi evaluate them. The fit is exact up to
// rounding, so this is a few ulps; one additive correction is not a fixed
// point under rounding, hence the loops.
func (c *CFB) repairOut(pcrs PCRs, i int) {
	for j, box := range pcrs.Boxes {
		p := pcrs.Cat.Value(j)
		for lo := c.Lo(i, p); lo > box.Lo[i]; lo = c.Lo(i, p) {
			c.AlphaLo[i] = nudged(c.AlphaLo[i], box.Lo[i]-lo)
		}
		for hi := c.Hi(i, p); hi < box.Hi[i]; hi = c.Hi(i, p) {
			c.AlphaHi[i] = nudged(c.AlphaHi[i], box.Hi[i]-hi)
		}
	}
}

// nudged returns intercept alpha moved by gap, or by one ulp in gap's
// direction when gap is too small to register.
func nudged(alpha, gap float64) float64 {
	if a := alpha + gap; a != alpha {
		return a
	}
	return math.Nextafter(alpha, math.Copysign(math.Inf(1), gap))
}

// FitIn fits cfb_in: the margin-sum-maximal linear box family contained in
// every pcr(p_j), subject to the non-degeneracy coupling lo(p_j) ≤ hi(p_j)
// (Inequality 14).
//
// Without the coupling the low face ℓ is the lowest line at p̄ over the low
// PCR faces and the high face h the highest line at p̄ under the high ones.
// ℓ − h is linear in p, so Inequality 14 holds on the whole catalog iff it
// holds at p_1 and p_m; nested PCRs make ℓ ascend and h descend, and
// ℓ(p̄) ≤ pcr_i−(p_m) ≤ pcr_i+(p_m) ≤ h(p̄), so only p_m can violate it.
// When it does, the constraint is active at the optimum: the faces meet at
// p_m, ℓ(p_m) = h(p_m) = v with pcr_i−(p_m) ≤ v ≤ pcr_i+(p_m), and given v
// each face is the line through (p_m, v) that just clears the other points
// (meetSlopes). The objective is then concave and piecewise linear in v
// (fitMeeting). For a catalog that ends at 0.5 both faces of pcr(p_m) are
// the median, v is that one point, and the coupled fit is a single pass.
func FitIn(pcrs PCRs) CFB {
	p := pcrs.Cat.values
	e := len(p) - 1
	mean := pcrs.Cat.mean()
	d := pcrs.Boxes[0].Dim()
	c := newCFB(d)
	var loBuf, hiBuf [fitStack]float64
	var hull [fitStack]int
	for i := 0; i < d; i++ {
		lo, hi := pcrs.columns(i, loBuf[:0], hiBuf[:0])
		c.AlphaLo[i], c.BetaLo[i] = hullFace(hull[:0], p, lo, -1, mean)
		c.AlphaHi[i], c.BetaHi[i] = hullFace(hull[:0], p, hi, +1, mean)
		if c.Lo(i, p[e]) > c.Hi(i, p[e]) {
			v, sLo, sHi := fitMeeting(hull[:0], p, lo, hi)
			c.AlphaLo[i], c.BetaLo[i] = v-sLo*p[e], -sLo
			c.AlphaHi[i], c.BetaHi[i] = v-sHi*p[e], -sHi
		}
		c.repairIn(pcrs, i)
	}
	return c
}

// meetSlopes returns the slopes of the best inner faces that meet at
// (p_m, v): the low face is the line through that point with the largest
// slope that stays on or over every (p_j, lo_j), the high face the one with
// the smallest slope that stays on or under every (p_j, hi_j). For
// lo_m ≤ v ≤ hi_m nesting gives sLo ≥ 0 ≥ sHi, so the pair satisfies
// Inequality 14 everywhere.
func meetSlopes(p, lo, hi []float64, v float64) (sLo, sHi float64) {
	e := len(p) - 1
	sLo, sHi = math.Inf(1), math.Inf(-1)
	for j := 0; j < e; j++ {
		w := p[e] - p[j]
		sLo = math.Min(sLo, (v-lo[j])/w)
		sHi = math.Max(sHi, (v-hi[j])/w)
	}
	return sLo, sHi
}

// fitMeeting returns the meeting height v ∈ [lo_m, hi_m] that maximizes
// the summed extent of the inner faces meeting at (p_m, v), with their
// slopes. The extent at p̄ is (sLo − sHi)·(p_m − p̄); sLo is a minimum and
// sHi a maximum of functions linear in v, so the objective is concave and
// piecewise linear, and its maximum is at an end of the range or at a
// breakpoint — a v at which the line from (p_m, v) touches two points at
// once, i.e. where the extension of a hull edge reaches p_m. Candidates are
// tried in a fixed order and only a strictly better one replaces the
// incumbent.
func fitMeeting(hull []int, p, lo, hi []float64) (v, sLo, sHi float64) {
	e := len(p) - 1
	v = lo[e]
	sLo, sHi = meetSlopes(p, lo, hi, v)
	if lo[e] == hi[e] {
		return v, sLo, sHi
	}
	try := func(u float64) {
		if !(lo[e] < u && u <= hi[e]) {
			return
		}
		if a, b := meetSlopes(p, lo, hi, u); a-b > sLo-sHi {
			v, sLo, sHi = u, a, b
		}
	}
	try(hi[e])
	for _, side := range [2]struct {
		y    []float64
		sign float64
	}{{lo, -1}, {hi, +1}} {
		hull = convexHull(hull[:0], p, side.y, side.sign)
		for k := 0; k+1 < len(hull); k++ {
			a, b := hull[k], hull[k+1]
			alpha, beta := chord(p[a], side.y[a], p[b], side.y[b])
			try(alpha - beta*p[e])
		}
	}
	return v, sLo, sHi
}

// repairIn moves face i inward until the containment invariant holds for
// the faces as CFB.Lo and CFB.Hi evaluate them (see repairOut).
func (c *CFB) repairIn(pcrs PCRs, i int) {
	for j, box := range pcrs.Boxes {
		p := pcrs.Cat.Value(j)
		for lo := c.Lo(i, p); lo < box.Lo[i]; lo = c.Lo(i, p) {
			c.AlphaLo[i] = nudged(c.AlphaLo[i], box.Lo[i]-lo)
		}
		for hi := c.Hi(i, p); hi > box.Hi[i]; hi = c.Hi(i, p) {
			c.AlphaHi[i] = nudged(c.AlphaHi[i], box.Hi[i]-hi)
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
