package updf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/geom"
)

// UniformPolygon is a uniform pdf over a 2D convex polygon — the paper's
// illustrations (Figures 1, 3) draw uncertainty regions as polygons and
// note "our technique can be applied to uncertainty regions of any shapes".
// Marginal CDFs and appearance probabilities are exact via half-plane and
// rectangle clipping (Sutherland–Hodgman).
type UniformPolygon struct {
	verts []geom.Point // convex hull vertices, counter-clockwise
	area  float64
	mbr   geom.Rect
	tris  []triangle // fan triangulation for uniform sampling
	cumA  []float64  // cumulative triangle areas
}

type triangle struct{ a, b, c geom.Point }

// NewUniformPolygon builds a uniform pdf over the convex polygon with the
// given vertices (any order; the convex hull is taken). It panics when
// fewer than 3 distinct points or a degenerate (zero-area) polygon is
// supplied, and when points are not 2-dimensional or not finite.
func NewUniformPolygon(verts []geom.Point) *UniformPolygon {
	for _, v := range verts {
		if len(v) != 2 {
			panic("updf: UniformPolygon requires 2D points")
		}
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				panic(fmt.Sprintf("updf: non-finite polygon vertex %v", v))
			}
		}
	}
	hull := canonicalHull(verts)
	if len(hull) < 3 {
		panic(fmt.Sprintf("updf: polygon needs ≥3 hull vertices, got %d", len(hull)))
	}
	p := &UniformPolygon{verts: hull}
	p.area = polygonArea(hull)
	if p.area <= 0 {
		panic("updf: degenerate polygon")
	}
	lo := hull[0].Clone()
	hi := hull[0].Clone()
	for _, v := range hull[1:] {
		for k := 0; k < 2; k++ {
			lo[k] = math.Min(lo[k], v[k])
			hi[k] = math.Max(hi[k], v[k])
		}
	}
	p.mbr = geom.Rect{Lo: lo, Hi: hi}
	// Fan triangulation from vertex 0 (valid for convex polygons).
	cum := 0.0
	for i := 1; i+1 < len(hull); i++ {
		t := triangle{hull[0], hull[i], hull[i+1]}
		cum += triangleArea(t)
		p.tris = append(p.tris, t)
		p.cumA = append(p.cumA, cum)
	}
	return p
}

// Area returns the polygon area.
func (p *UniformPolygon) Area() float64 { return p.area }

func (p *UniformPolygon) Dim() int       { return 2 }
func (p *UniformPolygon) MBR() geom.Rect { return p.mbr.Clone() }

func (p *UniformPolygon) Density(x geom.Point) float64 {
	if !pointInConvex(p.verts, x) {
		return 0
	}
	return 1 / p.area
}

func (p *UniformPolygon) SampleUniform(rng *rand.Rand, dst geom.Point) {
	// Pick a triangle proportionally to area, then a uniform point in it.
	u := rng.Float64() * p.cumA[len(p.cumA)-1]
	idx := 0
	for idx < len(p.cumA)-1 && p.cumA[idx] < u {
		idx++
	}
	t := p.tris[idx]
	r1 := math.Sqrt(rng.Float64())
	r2 := rng.Float64()
	dst[0] = (1-r1)*t.a[0] + r1*(1-r2)*t.b[0] + r1*r2*t.c[0]
	dst[1] = (1-r1)*t.a[1] + r1*(1-r2)*t.b[1] + r1*r2*t.c[1]
}

// MarginalCDF clips the polygon at the plane x_dim = x and returns the area
// fraction on the low side — exact. It runs once per query candidate
// (pcr.ProbBoundsMarginal), so the clipped polygon is never built: the
// vertices Sutherland–Hodgman would emit go straight into the shoelace sum,
// in the order and with the arithmetic of polygonArea(clipHalfplane(…)).
func (p *UniformPolygon) MarginalCDF(dim int, x float64) float64 {
	if x <= p.mbr.Lo[dim] {
		return 0
	}
	if x >= p.mbr.Hi[dim] {
		return 1
	}
	var first, prev [2]float64
	var twice float64 // signed, twice the area emitted so far
	emitted := 0
	emit := func(v [2]float64) {
		if emitted == 0 {
			first = v
		} else {
			// polygonArea's terms: offsets from the first vertex, whose
			// own two terms are 0.
			twice += (prev[0]-first[0])*(v[1]-first[1]) - (v[0]-first[0])*(prev[1]-first[1])
		}
		prev = v
		emitted++
	}
	n := len(p.verts)
	for i := 0; i < n; i++ {
		cur, next := p.verts[i], p.verts[(i+1)%n]
		if cur[dim] <= x {
			emit([2]float64{cur[0], cur[1]})
		}
		if (cur[dim] <= x) != (next[dim] <= x) {
			t := (x - cur[dim]) / (next[dim] - cur[dim])
			emit([2]float64{cur[0] + t*(next[0]-cur[0]), cur[1] + t*(next[1]-cur[1])})
		}
	}
	if emitted < 3 {
		return 0
	}
	return clamp01(math.Abs(twice) / 2 / p.area)
}

func (p *UniformPolygon) ShapeKey() string {
	// Translation-invariant: vertex offsets from the centroid.
	c := p.Center()
	key := []byte("upoly:")
	for _, v := range p.verts {
		key = appendG(key, v[0]-c[0])
		key = append(appendG(append(key, ','), v[1]-c[1]), ';')
	}
	return string(key)
}

func (p *UniformPolygon) Center() geom.Point {
	// Area centroid (stable under translation).
	var cx, cy float64
	for _, t := range p.tris {
		a := triangleArea(t)
		cx += a * (t.a[0] + t.b[0] + t.c[0]) / 3
		cy += a * (t.a[1] + t.b[1] + t.c[1]) / 3
	}
	return geom.Point{cx / p.area, cy / p.area}
}

// ExactProb clips the polygon by the query rectangle and returns the area
// ratio (Equation 1 generalized to polygonal regions): exactly 0 when rq
// misses the MBR's interior or has no volume, where clipping would leave a
// sliver of rounding.
func (p *UniformPolygon) ExactProb(rq geom.Rect) float64 {
	if rq.Overlap(p.mbr) == 0 {
		return 0
	}
	poly := p.verts
	// Clip against the four half-planes of rq.
	poly = clipHalfplane(poly, 0, rq.Lo[0], false) // x ≥ lo
	poly = clipHalfplane(poly, 0, rq.Hi[0], true)  // x ≤ hi
	poly = clipHalfplane(poly, 1, rq.Lo[1], false)
	poly = clipHalfplane(poly, 1, rq.Hi[1], true)
	if len(poly) < 3 {
		return 0
	}
	return clamp01(polygonArea(poly) / p.area)
}

// convexHull computes the convex hull (Andrew's monotone chain), returning
// CCW vertices without the closing duplicate.
func convexHull(pts []geom.Point) []geom.Point {
	n := len(pts)
	if n < 3 {
		return pts
	}
	sorted := make([]geom.Point, n)
	copy(sorted, pts)
	// Sort by (x, y).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && less2(sorted[j], sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var lower, upper []geom.Point
	for _, p := range sorted {
		for len(lower) >= 2 && cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := n - 1; i >= 0; i-- {
		p := sorted[i]
		for len(upper) >= 2 && cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	return append(lower[:len(lower)-1], upper[:len(upper)-1]...)
}

// canonicalHull is convexHull taken to its fixed point: rounding in the
// orientation test can drop a vertex from a hull that convexHull returned,
// and a polygon's vertices must be their own hull, or its encoding would
// decode to another polygon. convexHull's result depends on its input's
// points alone, so each round drops a vertex or is the last.
func canonicalHull(pts []geom.Point) []geom.Point {
	hull := convexHull(pts)
	for {
		again := convexHull(hull)
		if slices.EqualFunc(again, hull, geom.Point.Equal) {
			return hull
		}
		hull = again
	}
}

func less2(a, b geom.Point) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func cross(o, a, b geom.Point) float64 {
	return (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])
}

// polygonArea is the shoelace formula on offsets from the first vertex: on
// absolute coordinates its products are the coordinates squared, and their
// rounding swamps a small polygon far from the origin.
func polygonArea(verts []geom.Point) float64 {
	var s float64
	x0, y0 := verts[0][0], verts[0][1]
	for i := range verts {
		j := (i + 1) % len(verts)
		s += (verts[i][0]-x0)*(verts[j][1]-y0) - (verts[j][0]-x0)*(verts[i][1]-y0)
	}
	return math.Abs(s) / 2
}

func triangleArea(t triangle) float64 {
	return math.Abs(cross(t.a, t.b, t.c)) / 2
}

func pointInConvex(verts []geom.Point, x geom.Point) bool {
	// CCW polygon: x is inside iff it is left of (or on) every edge.
	for i := range verts {
		j := (i + 1) % len(verts)
		if cross(verts[i], verts[j], x) < -1e-12 {
			return false
		}
	}
	return true
}

// clipHalfplane clips a convex polygon against x_dim ≤ bound (keepBelow) or
// x_dim ≥ bound (Sutherland–Hodgman, one half-plane).
func clipHalfplane(verts []geom.Point, dim int, bound float64, keepBelow bool) []geom.Point {
	inside := func(p geom.Point) bool {
		if keepBelow {
			return p[dim] <= bound
		}
		return p[dim] >= bound
	}
	var out []geom.Point
	n := len(verts)
	for i := 0; i < n; i++ {
		cur, next := verts[i], verts[(i+1)%n]
		ci, ni := inside(cur), inside(next)
		if ci {
			out = append(out, cur)
		}
		if ci != ni {
			// Edge crosses the plane: interpolate the intersection.
			t := (bound - cur[dim]) / (next[dim] - cur[dim])
			p := geom.Point{
				cur[0] + t*(next[0]-cur[0]),
				cur[1] + t*(next[1]-cur[1]),
			}
			out = append(out, p)
		}
	}
	return out
}
