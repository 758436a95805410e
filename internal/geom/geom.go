// Package geom provides d-dimensional points and axis-aligned rectangles
// (hyper-rectangles) with the geometric predicates and penalty metrics used
// throughout the U-tree reproduction: intersection, union, containment,
// area (volume), margin (perimeter sum), overlap and centroid distance.
//
// A Rect is stored as two corner points Lo and Hi with Lo[i] <= Hi[i] on
// every dimension i. Degenerate rectangles (zero extent on some axis) are
// legal; they arise naturally as PCRs approach p = 0.5.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a position in d-dimensional space.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// String renders p as "(x1, x2, ...)".
func (p Point) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Rect is an axis-aligned hyper-rectangle [Lo, Hi].
type Rect struct {
	Lo, Hi Point
}

// NewRect constructs a rectangle from corner points, panicking on malformed
// input (mismatched dimensionality or inverted extents). Construction is the
// only place this is enforced, so downstream code can assume well-formedness.
func NewRect(lo, hi Point) Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: corner dimensionality mismatch %d vs %d", len(lo), len(hi)))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("geom: inverted extent on dim %d: [%g, %g]", i, lo[i], hi[i]))
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// Dim returns the dimensionality of r.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Equal reports whether r and s are identical.
func (r Rect) Equal(s Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// IsValid reports whether r is well-formed (Lo <= Hi on every axis, no NaNs).
func (r Rect) IsValid() bool {
	if len(r.Lo) != len(r.Hi) || len(r.Lo) == 0 {
		return false
	}
	for i := range r.Lo {
		if math.IsNaN(r.Lo[i]) || math.IsNaN(r.Hi[i]) || r.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Side returns the extent of r along dimension i.
func (r Rect) Side(i int) float64 { return r.Hi[i] - r.Lo[i] }

// Area returns the d-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Margin returns the sum of side lengths of r. (The R*-tree literature calls
// this the margin; it is proportional to the perimeter/surface metric.)
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// Center returns the centroid of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// CenterDist returns the Euclidean distance between the centroids of r and s.
// It computes what r.Center().Dist(s.Center()) does, without allocating.
func (r Rect) CenterDist(s Rect) float64 {
	var sum float64
	for i := range r.Lo {
		d := (r.Lo[i]+r.Hi[i])/2 - (s.Lo[i]+s.Hi[i])/2
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Contains reports whether r fully contains s (boundaries included).
func (r Rect) Contains(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether p lies in r (boundaries included).
func (r Rect) ContainsPoint(p Point) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point. Touching
// boundaries count as intersecting, matching the closed-rectangle semantics
// of the paper.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Overlap returns the volume of the intersection of r and s (0 if disjoint).
func (r Rect) Overlap(s Rect) float64 {
	v := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if lo >= hi {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// UnionInPlace grows r to cover s, avoiding allocation on hot paths.
func (r *Rect) UnionInPlace(s Rect) {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// String renders r as "[lo ; hi]".
func (r Rect) String() string {
	return "[" + r.Lo.String() + " ; " + r.Hi.String() + "]"
}
