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
// stored as one flat slab of 4d float32 coefficients laid out
// αlo | βlo | αhi | βhi, d values each — the same bits in memory and in a
// U-tree leaf entry, so a reopened tree filters exactly like the one that
// wrote it. For cfb_out, box(p_j) contains the object's pcr(p_j) at every
// catalog value; for cfb_in each face lies inside the PCR face it
// approximates. A CFB costs 4d 4-byte floats, so the out/in pair costs 8d
// of them — the "16 (24) values in 2D (3D)" of the paper's Table 1
// discussion, at half the paper's width.
//
// Half width loses no soundness because every rule reads a face from one
// side only: a cfb_out face has to lie outside its PCR face, a cfb_in face
// inside, and nothing else is asked of either. Catalog values are ≥ 0, so
// lowering α or raising β lowers α − β·p at every p the filter evaluates,
// and the opposite raises it; the fit rounds each float64 coefficient to
// float32 in whichever of the two directions moves its face the safe way
// (quantise). Faces are evaluated in float64.
type CFB []float32

// Dim returns the dimensionality.
func (c CFB) Dim() int { return len(c) / 4 }

// lo and hi return the faces of dimension i as lines in p.
func (c CFB) lo(i int) line {
	d := len(c) / 4
	return line{float64(c[i]), float64(c[d+i])}
}

func (c CFB) hi(i int) line {
	d := len(c) / 4
	return line{float64(c[2*d+i]), float64(c[3*d+i])}
}

// Lo returns the low face position on dimension i at probability p.
func (c CFB) Lo(i int, p float64) float64 { return c.lo(i).at(p) }

// Hi returns the high face position on dimension i at probability p.
func (c CFB) Hi(i int, p float64) float64 { return c.hi(i).at(p) }

// span returns box(p)'s extent on dimension i for Rect, with crossed faces
// collapsed to their midpoint so the extent is a valid interval. That suits
// what Rect is for — materializing cfb_out boundaries, whose faces never
// cross, and diagnostics — and nothing else: the inner faces of cfb_in meet
// at p_m wherever Inequality 14 binds and inward rounding crosses them
// there by an ulp or two, and their midpoint is no face of anything. The
// filter reads faces one at a time (within, meets, cfbTail).
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

// within reports whether rq contains both faces of box(p) on every
// dimension: rq.Contains(c.Rect(p)) where the faces are in order, and
// still a sound "rq contains the PCR" test on cfb_in where they cross,
// since each face is on the safe side of its PCR face by itself.
func (c CFB) within(p float64, rq geom.Rect) bool {
	for i := range rq.Lo {
		if c.Lo(i, p) < rq.Lo[i] || c.Hi(i, p) > rq.Hi[i] {
			return false
		}
	}
	return true
}

// meets reports rq.Intersects(c.Rect(p)) without materializing the box.
func (c CFB) meets(p float64, rq geom.Rect) bool {
	for i := range rq.Lo {
		if rq.Hi[i] < c.Lo(i, p) || c.Hi(i, p) < rq.Lo[i] {
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
// read off a monotone-chain hull in O(m) without iterating. The simplex
// survives as the oracle of the differential test (reference_test.go).
//
// Both fits run in three stages per dimension. outFaces and inFaces
// compute exactly that optimum, at float64 — the stage the differential
// test compares. quantise rounds the four coefficients to the stored
// float32, each in its safe direction. A coefficient float32 represents
// exactly gets no slack from that rounding, and the hull fit is exact only
// up to float64 rounding, so repairOut and repairIn then step intercepts by
// float32 ulps until the invariant holds, at zero tolerance, for the faces
// as CFB.Lo and CFB.Hi evaluate them.
//
// Both fits need the PCRs to nest (low faces ascend with p, high faces
// descend), which Compute enforces.

// fitStack is the catalog size up to which a fit's scratch lives on the
// goroutine stack; larger catalogs spill to the heap through append.
const fitStack = 32

// fitScratch is one fit's working set: a column of low PCR faces, one of
// high faces and one hull.
type fitScratch struct {
	lo, hi [fitStack]float64
	hull   [fitStack]int
}

// columns gathers dimension i's low and high PCR faces over the catalog.
func (s *fitScratch) columns(pcrs PCRs, i int) (lo, hi []float64) {
	lo, hi = s.lo[:0], s.hi[:0]
	for _, b := range pcrs.Boxes {
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
func hullFace(hull []int, p, y []float64, sign, x float64) line {
	hull = convexHull(hull, p, y, sign)
	k := 0
	for k+2 < len(hull) && p[hull[k+1]] <= x {
		k++
	}
	a, b := hull[k], hull[k+1]
	return chord(p[a], y[a], p[b], y[b])
}

// chord returns the line through (pa, ya) and (pb, yb) as a face α − β·p.
func chord(pa, ya, pb, yb float64) line {
	beta := (ya - yb) / (pb - pa)
	return line{ya + beta*pa, beta}
}

// round32 returns the float32 nearest x that is not below it (up) or not
// above it.
func round32(x float64, up bool) float32 {
	f := float32(x)
	switch {
	case up && float64(f) < x:
		return math.Nextafter32(f, float32(math.Inf(1)))
	case !up && float64(f) > x:
		return math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// quantise stores dimension i's faces, each coefficient rounded so that for
// every p ≥ 0 the stored face is at or outside the given one (outward, for
// cfb_out: αlo↓ βlo↑ αhi↑ βhi↓) or at or inside it (cfb_in, the mirror).
func (c CFB) quantise(i int, lo, hi line, outward bool) {
	d := len(c) / 4
	c[i], c[d+i] = round32(lo.alpha, !outward), round32(lo.beta, outward)
	c[2*d+i], c[3*d+i] = round32(hi.alpha, outward), round32(hi.beta, !outward)
}

// FitOut fits cfb_out to the given PCRs: the margin-sum-minimal linear box
// family covering every pcr(p_j) (Section 4.4), rounded outward to float32.
// The returned CFB satisfies Lo(i, p_j) ≤ pcr_i−(p_j) and
// Hi(i, p_j) ≥ pcr_i+(p_j) exactly.
func FitOut(pcrs PCRs) CFB {
	d := pcrs.Boxes[0].Dim()
	c := make(CFB, 4*d)
	var s fitScratch
	for i := 0; i < d; i++ {
		lo, hi := s.outFaces(pcrs, i)
		c.quantise(i, lo, hi, true)
		c.repairOut(pcrs, i)
	}
	return c
}

// outFaces is FitOut's float64 stage on dimension i. The two faces are
// independent (lo ≤ pcr_i− ≤ pcr_i+ ≤ hi needs no coupling): the low face
// is the highest line at p̄ under the low PCR faces, the high face the
// lowest line at p̄ over the high ones.
func (s *fitScratch) outFaces(pcrs PCRs, i int) (lo, hi line) {
	p := pcrs.Cat.values
	mean := pcrs.Cat.mean()
	los, his := s.columns(pcrs, i)
	return hullFace(s.hull[:0], p, los, +1, mean), hullFace(s.hull[:0], p, his, -1, mean)
}

// repairOut moves the intercepts of dimension i outward, one float32 ulp at
// a time, until the covering invariant holds for the faces as CFB.Lo and
// CFB.Hi evaluate them.
func (c CFB) repairOut(pcrs PCRs, i int) {
	d := len(c) / 4
	for j, box := range pcrs.Boxes {
		p := pcrs.Cat.Value(j)
		for c.Lo(i, p) > box.Lo[i] {
			c[i] = math.Nextafter32(c[i], float32(math.Inf(-1)))
		}
		for c.Hi(i, p) < box.Hi[i] {
			c[2*d+i] = math.Nextafter32(c[2*d+i], float32(math.Inf(1)))
		}
	}
}

// FitIn fits cfb_in: the margin-sum-maximal linear box family contained in
// every pcr(p_j), subject to the non-degeneracy coupling lo(p_j) ≤ hi(p_j)
// (Inequality 14), rounded inward to float32. The returned CFB satisfies
// Lo(i, p_j) ≥ pcr_i−(p_j) and Hi(i, p_j) ≤ pcr_i+(p_j) exactly — each face
// by itself: where Inequality 14 binds the float64 faces meet at p_m, and
// rounding both inward crosses them there by up to 2 float32 ulps.
func FitIn(pcrs PCRs) CFB {
	d := pcrs.Boxes[0].Dim()
	c := make(CFB, 4*d)
	var s fitScratch
	for i := 0; i < d; i++ {
		lo, hi := s.inFaces(pcrs, i)
		c.quantise(i, lo, hi, false)
		c.repairIn(pcrs, i)
	}
	return c
}

// inFaces is FitIn's float64 stage on dimension i.
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
func (s *fitScratch) inFaces(pcrs PCRs, i int) (lo, hi line) {
	p := pcrs.Cat.values
	e := len(p) - 1
	mean := pcrs.Cat.mean()
	los, his := s.columns(pcrs, i)
	lo = hullFace(s.hull[:0], p, los, -1, mean)
	hi = hullFace(s.hull[:0], p, his, +1, mean)
	if lo.at(p[e]) > hi.at(p[e]) {
		v, sLo, sHi := fitMeeting(s.hull[:0], p, los, his)
		lo = line{v - sLo*p[e], -sLo}
		hi = line{v - sHi*p[e], -sHi}
	}
	return lo, hi
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
			try(chord(p[a], side.y[a], p[b], side.y[b]).at(p[e]))
		}
	}
	return v, sLo, sHi
}

// repairIn moves the intercepts of dimension i inward until the containment
// invariant holds for each face as evaluated (see repairOut).
func (c CFB) repairIn(pcrs PCRs, i int) {
	d := len(c) / 4
	for j, box := range pcrs.Boxes {
		p := pcrs.Cat.Value(j)
		for c.Lo(i, p) < box.Lo[i] {
			c[i] = math.Nextafter32(c[i], float32(math.Inf(1)))
		}
		for c.Hi(i, p) > box.Hi[i] {
			c[2*d+i] = math.Nextafter32(c[2*d+i], float32(math.Inf(-1)))
		}
	}
}

// Validate checks the conservative invariants of an out/in CFB pair against
// the PCRs they were fitted to, face by face — cfb_out's outside their PCR
// faces, cfb_in's inside — and returns a descriptive error on the first
// violation beyond floating-point tolerance.
func Validate(out, in CFB, pcrs PCRs) error {
	for j, box := range pcrs.Boxes {
		p := pcrs.Cat.Value(j)
		for i := range box.Lo {
			tol := 1e-9 * (1 + math.Abs(box.Lo[i]) + math.Abs(box.Hi[i]))
			if out.Lo(i, p) > box.Lo[i]+tol || out.Hi(i, p) < box.Hi[i]-tol {
				return fmt.Errorf("pcr: cfb_out(%g) = [%v, %v] on dimension %d does not contain pcr = %v",
					p, out.Lo(i, p), out.Hi(i, p), i, box)
			}
			if in.Lo(i, p) < box.Lo[i]-tol || in.Hi(i, p) > box.Hi[i]+tol {
				return fmt.Errorf("pcr: cfb_in(%g) faces %v, %v on dimension %d not inside pcr = %v",
					p, in.Lo(i, p), in.Hi(i, p), i, box)
			}
		}
	}
	return nil
}
