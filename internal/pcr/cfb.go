package pcr

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/updf"
)

// CFB is a conservative functional box (Section 4.3): a rectangle-valued
// linear function of the catalog probability p,
//
//	box(p) = α − β·p    (per face),
//
// stored as one flat slab of 4d float32 coefficients laid out
// αlo | βlo | αhi | βhi, d values each — the same bits in memory and in an
// unkeyed U-tree leaf entry, so a reopened tree filters exactly like the one
// that wrote it. (A keyed entry stores none: its faces are its shape's,
// Shape.Translate.) For cfb_out, box(p_j) contains the object's pcr(p_j) at every
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

// Faces is a leaf entry's cfb_out and cfb_in as the rules read them: four
// float64 lines a dimension — cfb_out's low and high face, then cfb_in's.
// SetCFB reads them off a stored float32 pair; Shape.Translate derives
// them from the entry's shape. Every rule on CFBs (Filter's Rules 1–2,
// ProbBounds' tails) reads a Faces, so both leaf-entry forms are decided
// by one set of rule functions.
type Faces []line

// facesStack is how many lines FilterCFB holds on the stack: a 3-D pair's.
const facesStack = 12

// SetCFB sets f to the faces of a stored pair. A float32 coefficient
// widens to float64 exactly, so each face evaluates bit for bit as
// CFB.Lo and CFB.Hi evaluate it.
func (f *Faces) SetCFB(out, in CFB) { *f = f.stored(out, in) }

// stored is SetCFB over f's backing array, returned rather than stored so
// that an array on the caller's stack stays there.
func (f Faces) stored(out, in CFB) Faces {
	f = f[:0]
	for i := 0; i < out.Dim(); i++ {
		f = append(f, out.lo(i), out.hi(i), in.lo(i), in.hi(i))
	}
	return f
}

// Rect materializes cfb_out's box(p), with crossed faces collapsed to their
// midpoint so each extent is a valid interval. That suits what Rect is for
// — the boundaries (MBR⊥, MBR⊤) of a leaf entry, whose cfb_out faces never
// cross, and diagnostics — and nothing else: the faces of cfb_in meet at
// p_m wherever Inequality 14 binds and inward rounding crosses them there,
// and their midpoint is no face of anything. The filter reads faces one at
// a time (within, meets, cfbTail).
func (f Faces) Rect(p float64) geom.Rect {
	d := len(f) / 4
	r := geom.Rect{Lo: make(geom.Point, d), Hi: make(geom.Point, d)}
	f.RectInto(r, p)
	return r
}

// RectInto is Rect into r's coordinate slices, which the caller provides.
func (f Faces) RectInto(r geom.Rect, p float64) {
	for i := range r.Lo {
		lo, hi := f[4*i].at(p), f[4*i+1].at(p)
		if lo > hi {
			lo = (lo + hi) / 2
			hi = lo
		}
		r.Lo[i], r.Hi[i] = lo, hi
	}
}

// within reports whether rq contains both cfb_in faces at p on every
// dimension: rq contains cfb_in's box(p) where the faces are in order, and
// still a sound "rq contains the PCR" test where they cross, since each
// face is on the safe side of its PCR face by itself.
func (f Faces) within(p float64, rq geom.Rect) bool {
	for i := range rq.Lo {
		if f[4*i+2].at(p) < rq.Lo[i] || f[4*i+3].at(p) > rq.Hi[i] {
			return false
		}
	}
	return true
}

// meets reports whether rq intersects cfb_out's box(p), without
// materializing the box.
func (f Faces) meets(p float64, rq geom.Rect) bool {
	for i := range rq.Lo {
		if rq.Hi[i] < f[4*i].at(p) || f[4*i+1].at(p) < rq.Lo[i] {
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
// descend), which faces enforces.
//
// The float64 stage runs once per pdf shape, not per object, and for an
// object with a shape it is all there is. A CFB of a translated pdf is the
// same CFB translated, so Shape fits the shape's faces once, and
// Shape.Translate moves them to an object of that shape and pushes each one
// to its safe side by ShapeSlack's δ, in float64; such an entry stores no
// coefficient. FitOut and FitIn, with their float32 stage, are for objects
// without a shape.

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

// faces builds one dimension's PCR faces over the catalog — the column
// Compute stores and Shape.Translate is held to — for a pdf centred at c
// whose region MBR spans [mbrLo, mbrHi] there, from its shape's quantile
// offsets (off[2j] and off[2j+1] those of pcr−(p_j) and pcr+(p_j)).
func (s *fitScratch) faces(c float64, off []float64, mbrLo, mbrHi float64) (lo, hi []float64) {
	lo, hi = s.lo[:0], s.hi[:0]
	for j := 0; j < len(off)/2; j++ {
		l, h := c+off[2*j], c+off[2*j+1]
		if l > h {
			// Numerical crossing near p = 0.5: collapse to midpoint.
			mid := (l + h) / 2
			l, h = mid, mid
		}
		lo, hi = append(lo, l), append(hi, h)
	}
	// pcr(0) is the uncertainty region MBR by definition (every catalog
	// starts at p_1 = 0). Pin it exactly: c + offset, with offsets taken
	// about the shape's prototype, can land ~1e-13 inside the true MBR —
	// enough to break the strict containment chain (leaf CFB ⊆ parent boxes)
	// that Delete's descent relies on. The nesting pass below re-expands
	// pcr(0) if quantile noise pushed an inner face outside the MBR.
	lo[0], hi[0] = mbrLo, mbrHi
	// Enforce nesting exactly (quantile noise could break it marginally):
	// pcr(p_j) must contain pcr(p_{j+1}).
	for j := len(lo) - 2; j >= 0; j-- {
		if lo[j] > lo[j+1] {
			lo[j] = lo[j+1]
		}
		if hi[j] < hi[j+1] {
			hi[j] = hi[j+1]
		}
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

// Round32 returns the float32 nearest x that is not below it (up) or not
// above it: x rounded to float32 in one chosen direction, as a conservative
// bound stored at half width must be.
func Round32(x float64, up bool) float32 {
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
	c[i], c[d+i] = Round32(lo.alpha, !outward), Round32(lo.beta, outward)
	c[2*d+i], c[3*d+i] = Round32(hi.alpha, outward), Round32(hi.beta, !outward)
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
		los, his := s.columns(pcrs, i)
		lo, hi := s.outFaces(pcrs.Cat, los, his)
		c.quantise(i, lo, hi, true)
		c.repairOut(pcrs.Cat, i, los, his)
	}
	return c
}

// outFaces is FitOut's float64 stage on one dimension's face columns. The
// two faces are independent (lo ≤ pcr_i− ≤ pcr_i+ ≤ hi needs no coupling):
// the low face is the highest line at p̄ under the low PCR faces, the high
// face the lowest line at p̄ over the high ones.
func (s *fitScratch) outFaces(cat Catalog, los, his []float64) (lo, hi line) {
	p, mean := cat.values, cat.mean()
	return hullFace(s.hull[:0], p, los, +1, mean), hullFace(s.hull[:0], p, his, -1, mean)
}

// repairOut moves the intercepts of dimension i outward until the covering
// invariant holds against the face columns los and his, for the faces as
// CFB.Lo and CFB.Hi evaluate them.
func (c CFB) repairOut(cat Catalog, i int, los, his []float64) {
	d := len(c) / 4
	for j, p := range cat.values {
		for short := c.Lo(i, p) - los[j]; short > 0; short = c.Lo(i, p) - los[j] {
			c[i] = step32(c[i], short, false)
		}
		for short := his[j] - c.Hi(i, p); short > 0; short = his[j] - c.Hi(i, p) {
			c[2*d+i] = step32(c[2*d+i], short, true)
		}
	}
}

// step32 is one repair step: x moved up (or down) by one float32 ulp, or by
// the shortfall where that is further. Quantisation leaves a shortfall of
// float64 rounding, under an ulp of any intercept but one near 0, whose
// ulps are far finer than its faces' rounding; there the step is the
// shortfall, so no repair takes more than a step or two.
func step32(x float32, short float64, up bool) float32 {
	if up {
		return max(math.Nextafter32(x, float32(math.Inf(1))), Round32(float64(x)+short, true))
	}
	return min(math.Nextafter32(x, float32(math.Inf(-1))), Round32(float64(x)-short, false))
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
		los, his := s.columns(pcrs, i)
		lo, hi := s.inFaces(pcrs.Cat, los, his)
		c.quantise(i, lo, hi, false)
		c.repairIn(pcrs.Cat, i, los, his)
	}
	return c
}

// inFaces is FitIn's float64 stage on one dimension's face columns.
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
func (s *fitScratch) inFaces(cat Catalog, los, his []float64) (lo, hi line) {
	p, mean := cat.values, cat.mean()
	e := len(p) - 1
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
func (c CFB) repairIn(cat Catalog, i int, los, his []float64) {
	d := len(c) / 4
	for j, p := range cat.values {
		for short := los[j] - c.Lo(i, p); short > 0; short = los[j] - c.Lo(i, p) {
			c[i] = step32(c[i], short, true)
		}
		for short := c.Hi(i, p) - his[j]; short > 0; short = c.Hi(i, p) - his[j] {
			c[2*d+i] = step32(c[2*d+i], short, false)
		}
	}
}

// Shape is one pdf shape's fit, shared by every object of that shape and
// made once, by NewShape: the prototype it was given, with its MBR; its
// quantile offsets from its centre at every catalog value; and its cfb_out
// and cfb_in as float64 lines in the prototype's frame, each guarded to lie
// on its safe side of the prototype's own PCR faces as evaluated. The CDF
// and quadrant tables its objects' marginal bounds read are built from the
// prototype on their first read. Safe for concurrent use.
type Shape struct {
	proto updf.PDF
	rc    updf.Recentrer // proto, where it is one
	cat   Catalog
	pm    geom.Rect   // proto.MBR()
	pmax  []float64   // pmax[i]: the larger of |pm.Lo[i]| and |pm.Hi[i]|
	off   [][]float64 // off[i]: dimension i's 2m offsets, as QuantileCache holds them
	lines []line      // 4 per dimension, laid out as Faces lays them out
	up    []float64   // Reach's, level k and dimension i at k·d + i
	down  []float64
	cdf   []cdfTable // one per dimension where updf.MarginalTable(proto)
	quad  *quadTable // where updf.QuadrantTable(proto)
}

// NewShape fits proto's shape over catalog cat.
func NewShape(proto updf.PDF, cat Catalog) *Shape {
	rc, _ := proto.(updf.Recentrer)
	s := &Shape{proto: proto, rc: rc, cat: cat, pm: proto.MBR()}
	if updf.MarginalTable(proto) {
		s.cdf = make([]cdfTable, proto.Dim())
	}
	if updf.QuadrantTable(proto) {
		s.quad = new(quadTable)
	}
	s.fit()
	return s
}

// Proto is the prototype the shape was fitted to, MBR its region MBR and
// Recentrer the prototype as a updf.Recentrer, nil where it is not one.
func (s *Shape) Proto() updf.PDF           { return s.proto }
func (s *Shape) MBR() geom.Rect            { return s.pm }
func (s *Shape) Recentrer() updf.Recentrer { return s.rc }

// fit runs the float64 stage about the prototype's centre, where the faces
// are offsets no larger than the shape, then guards each face against the
// PCR faces it was fitted to: the hull fit is exact only up to float64
// rounding, so an intercept is stepped to its safe side until the face as
// evaluated clears every point. Only then are the lines moved to the
// prototype's frame.
func (s *Shape) fit() {
	ctr := s.proto.Center()
	s.off, s.lines, s.pmax = make([][]float64, len(ctr)), make([]line, 4*len(ctr)), make([]float64, len(ctr))
	var sc fitScratch
	for i, c := range ctr {
		s.off[i] = (*QuantileCache)(nil).offsets(s.proto, "", i, s.cat)
		los, his := sc.faces(0, s.off[i], s.pm.Lo[i]-c, s.pm.Hi[i]-c)
		s.pmax[i] = max(math.Abs(s.pm.Lo[i]), math.Abs(s.pm.Hi[i]))
		f := s.lines[4*i : 4*i+4]
		f[0], f[1] = sc.outFaces(s.cat, los, his)
		f[2], f[3] = sc.inFaces(s.cat, los, his)
		for k, g := range [4]struct {
			y    []float64
			down bool
		}{{los, true}, {his, false}, {los, false}, {his, true}} {
			f[k] = f[k].guard(s.cat.values, g.y, g.down).shift(c)
		}
	}
	s.reach(ctr)
}

// reach fills up and down (Reach) from the offsets about the prototype's
// centre ctr and cfb_out's faces.
func (s *Shape) reach(ctr geom.Point) {
	d, pm := len(ctr), s.cat.Max()
	s.up, s.down = make([]float64, 2*s.cat.Size()*d), make([]float64, 2*s.cat.Size()*d)
	for i, c := range ctr {
		lo, hi := s.lines[4*i].at(pm), s.lines[4*i+1].at(pm)
		slack := updf.QuantileTol(s.pm.Side(i)) + ShapeSlack(s.pm, s.pm, i)
		for k, o := range s.off[i] {
			q := c + o
			s.up[k*d+i], s.down[k*d+i] = q-hi+slack, q-lo-slack
		}
	}
}

// Reach returns, for every offset level k (Catalog.Level) and dimension i,
// at k·d + i, how far an object of this shape can have its quantile at
// level k beyond its cfb_out faces at p_m: up[k·d+i] ≥ Q_i(k) − hi_i(p_m)
// and down[k·d+i] ≤ Q_i(k) − lo_i(p_m). The quantile is the prototype's
// offset about its centre, which MarginalQuantile knows to within
// updf.QuantileTol of its extent; the faces are the shape's lines (an
// object's, Translate, lie outside them by the δ its translation is known
// to); and the differences are rounded, which δ of the prototype
// (ShapeSlack) covers. So the bound holds for every object of the shape
// against the faces its leaf entry gives it. The slices are shared and
// read-only.
func (s *Shape) Reach() (up, down []float64) { return s.up, s.down }

// Reaches reports whether objects whose cfb_out faces at p_m lie within
// [lo, hi] on a dimension can have the quantiles a query [rqLo, rqHi]
// there needs at threshold pq: Q(a) ≥ rqLo and Q(b) ≤ rqHi, where up is
// Reach's at level a and down at level b (Catalog.QuantileLevels) — or the
// larger up and smaller down of every shape the objects may have. Each sum
// is rounded once, to nearest, and rounding is monotone: where the exact
// sum reaches a float64 face so does the rounded one, so the comparison
// needs no margin of its own.
func Reaches(lo, hi, up, down, rqLo, rqHi float64) bool {
	return !(hi+up < rqLo || lo+down > rqHi)
}

// guard returns l with its intercept moved down (down) or up until l.at(p[j])
// is at or below (above) y[j] at every j, as evaluated.
func (l line) guard(p, y []float64, down bool) line {
	for j := range p {
		for short := l.at(p[j]) - y[j]; down && short > 0; short = l.at(p[j]) - y[j] {
			l.alpha = math.Nextafter(l.alpha-short, math.Inf(-1))
		}
		for short := y[j] - l.at(p[j]); !down && short > 0; short = y[j] - l.at(p[j]) {
			l.alpha = math.Nextafter(l.alpha+short, math.Inf(1))
		}
	}
	return l
}

// Translate sets f to the faces of the object of this shape whose region
// MBR is mbr: the shape's lines moved by mbr − pm, the prototype's MBR, and
// each pushed by δ = ShapeSlack(pm, mbr, i) to its safe side — cfb_out's
// faces outward, cfb_in's inward. mbr recovers the translation to within δ
// (ShapeSlack), which also covers the rounding of the sums here, so the
// faces hold FitOut's and FitIn's invariants, at zero tolerance, against
// the PCRs Shape.PCRs gives the object (TestFitTranslated).
func (s *Shape) Translate(f *Faces, mbr geom.Rect) {
	if cap(*f) < len(s.lines) {
		*f = make(Faces, len(s.lines))
	}
	*f = (*f)[:len(s.lines)]
	for i, lo := range mbr.Lo {
		// δ = ShapeSlack(s.pm, mbr, i), with the prototype's half done once.
		d := s.pmax[i]
		if a := math.Abs(lo); a > d {
			d = a
		}
		if a := math.Abs(mbr.Hi[i]); a > d {
			d = a
		}
		c, d := lo-s.pm.Lo[i], d*0x1p-48
		l, t := s.lines[4*i:4*i+4], (*f)[4*i:4*i+4]
		t[0], t[1], t[2], t[3] = l[0].shift(c-d), l[1].shift(c+d), l[2].shift(c+d), l[3].shift(c-d)
	}
}

// PCRs returns the PCRs of the object of this shape centred at ctr whose
// region MBR is mbr — Compute's, from the shape's offsets.
func (s *Shape) PCRs(ctr geom.Point, mbr geom.Rect) PCRs {
	return pcrsAt(s.cat, ctr, mbr, s.off)
}

// Validate checks the conservative invariants of an entry's faces against
// the PCRs they approximate, face by face — cfb_out's outside their PCR
// faces, cfb_in's inside — and returns a descriptive error on the first
// violation beyond tolerance: 1e-9 of the coordinates, as floating point
// needs, and of the region's extent, the precision a quantile is computed
// to (updf.MarginalQuantile), which faces from another object's quantiles
// — a shape's — can differ from these by.
func Validate(f Faces, pcrs PCRs) error {
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
