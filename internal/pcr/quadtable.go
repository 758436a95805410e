package pcr

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/updf"
)

// quadKnots is the number of intervals a quadTable divides a ball's radius
// into. A bracket read from it spans one knot interval on each offset:
// over 10⁵ offsets uniform on [0, r]² it was at most 0.010 wide for a
// uniform ball (0.0033 on average), 0.014 for a Con-Gau of σ = r/2 (the CA
// dataset's) and 0.047 for one of σ = r/8, whose mass crowds the centre
// (0.0008 on average). A table is 2,145 float64s, 17 KB, allocated by
// build. With 32 knots the leaf decides a few percent fewer of the
// benchmark's corner-cut balls, with 128 barely more.
const quadKnots = 64

// quadTable brackets one 2-D ball shape's quadrant masses
// Q(a, b) = P(X₀ − c₀ > a, X₁ − c₁ > b), for offsets a, b ≥ 0 from Center(),
// without integrating: Q at the knots k·r/quadKnots of [0, r]², each
// unordered pair of knots stored once, since a quarter turn about the
// centre swaps a and b. Reflections through the centre's axes make the
// same Q the mass beyond any two faces of distinct dimensions. Like
// cdfTable it is a bracket, not an interpolant: Q falls as either offset
// grows, so between knots it lies between its values at the knots on
// either side.
type quadTable struct {
	once sync.Once
	grid
	q []float64 // Q(knot i, knot j) for i ≤ j, row i after row i − 1
}

// grid is the knots of a ball of radius r: their interval r/quadKnots and
// its inverse.
type grid struct{ step, inv float64 }

func newGrid(r float64) grid { return grid{r / quadKnots, quadKnots / r} }

func (g grid) knot(k int) float64 { return float64(k) * g.step }

// below is the last knot at or below offset x ≥ 0, the last knot for any
// x at or past r.
func (g grid) below(x float64) int {
	if x >= g.knot(quadKnots) {
		return quadKnots
	}
	k := min(int(x*g.inv), quadKnots-1)
	// As in cdfTable.bracket, the product can land one interval off when x
	// is within rounding of a knot.
	if x < g.knot(k) {
		k--
	} else if x >= g.knot(k+1) {
		k++
	}
	return k
}

// above is the first knot at or above offset x ≥ 0, the last knot for any
// x at or past r, where Q is 0.
func (g grid) above(x float64) int {
	k := g.below(x)
	if k < quadKnots && x > g.knot(k) {
		k++
	}
	return k
}

// index is where Q(knot i, knot j) is stored, i ≤ j: row i holds
// j = i … quadKnots and starts after the quadKnots + 1 − k entries of each
// row k < i.
func index(i, j int) int { return i*(2*quadKnots+3-i)/2 + j - i }

// at is Q at knots (i, j), either way round.
func (t *quadTable) at(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return t.q[index(i, j)]
}

// inside reports whether the quadrant beyond knots (i, j) meets the ball
// in more than a point; Q is exactly 0 where it does not.
func inside(i, j int) bool { return i*i+j*j < quadKnots*quadKnots }

// build evaluates the knots on p, a pdf of the shape centred at the origin,
// so that each quadrant's corner is the knot itself and not the knot
// rounded into p's coordinates. A quadrant whose corner lies on or outside
// the ball is pinned to exactly 0; the rest are made non-increasing in each
// index, which ExactProb's rounding does not promise of itself.
func (t *quadTable) build(p updf.PDF) {
	r := p.MBR().Hi[0]
	t.grid = newGrid(r)
	t.q = make([]float64, (quadKnots+1)*(quadKnots+2)/2)
	for i := quadKnots; i >= 0; i-- {
		for j := quadKnots; j >= i; j-- {
			v := 0.0
			if inside(i, j) {
				v = p.ExactProb(geom.NewRect(geom.Point{t.knot(i), t.knot(j)}, geom.Point{2 * r, 2 * r}))
				v = max(v, t.at(i+1, j), t.at(i, j+1))
			}
			t.q[index(i, j)] = v
		}
	}
}

// quadrants brackets a 2-D ball's quadrant masses between the knots of its
// shape: Q falls as either offset grows, so Q(s, u) lies between its values
// at the knots at or above both offsets and at or below both. They are read
// off the shape's table, or, for a uniform ball of no shape — an unkeyed
// object's record, whose FilterMarginal gets a nil shape — evaluated in
// closed form at the knots the table would read, so that a ball is decided
// alike whether its tree's shape table holds its shape or not. The zero
// value has none, and the pair terms keep their other lower bounds: a
// Con-Gau's quadrant mass is an integral, dearer than the refinement it
// would save.
type quadrants struct {
	table *quadTable
	ball  *updf.UniformBall
}

func quadrantsOf(p updf.PDF, s *Shape) quadrants {
	if t := s.quadrant(); t != nil {
		return quadrants{table: t}
	}
	if b, ok := p.(*updf.UniformBall); ok && b.Dim() == 2 {
		return quadrants{ball: b}
	}
	return quadrants{}
}

func (q quadrants) ok() bool { return q.table != nil || q.ball != nil }

// lower is Q at the knots at or above offsets s, u ≥ 0: at most Q(s, u).
func (q quadrants) lower(s, u float64) float64 {
	g := q.grid()
	return q.at(g, g.above(s), g.above(u))
}

// upper is Q at the knots at or below offsets s, u ≥ 0: at least Q(s, u).
func (q quadrants) upper(s, u float64) float64 {
	g := q.grid()
	return q.at(g, g.below(s), g.below(u))
}

func (q quadrants) grid() grid {
	if q.table != nil {
		return q.table.grid
	}
	return newGrid(q.ball.R)
}

// at is Q at knots (i, j) of g: read off the table, or evaluated as build
// evaluates it.
func (q quadrants) at(g grid, i, j int) float64 {
	switch {
	case q.table != nil:
		return q.table.at(i, j)
	case !inside(i, j):
		return 0
	}
	return q.ball.QuadrantMass(g.knot(min(i, j)), g.knot(max(i, j)))
}

// quadrant is the shape's quadrant table, built from the prototype, moved
// to the origin, on its first read, as table is; nil where there is none.
func (s *Shape) quadrant() *quadTable {
	if s == nil || s.quad == nil {
		return nil
	}
	s.quad.once.Do(func() { s.quad.build(atOrigin(s.proto)) })
	return s.quad
}

// atOrigin is p, moved to the origin where it lies elsewhere.
func atOrigin(p updf.PDF) updf.PDF {
	for _, c := range p.Center() {
		if c != 0 {
			return p.(updf.Recentrer).Recentred(make(geom.Point, p.Dim()))
		}
	}
	return p
}
