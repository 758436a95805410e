package updf

import (
	"math"
	"strconv"
)

// shapeKey starts a built-in family's ShapeKey: its name, then ":d=" and
// the dimensionality. The families append their parameters with appendG;
// ShapeKey runs once per indexed object, so the key is built by appending
// rather than by fmt.
func shapeKey(family string, dim int) []byte {
	key := make([]byte, 0, 64)
	key = append(append(key, family...), ":d="...)
	return strconv.AppendInt(key, int64(dim), 10)
}

// appendG appends x as fmt's %g formats it.
func appendG(b []byte, x float64) []byte { return strconv.AppendFloat(b, x, 'g', -1, 64) }

// ShapeID is ShapeKey in comparable, allocation-free form, for the balls
// (uniform and Con-Gau, in any dimension): the families every dataset
// loads. Bulk load groups its input by it, finding each object's shape
// reference without formatting the object's ShapeKey string. The
// parameters are held as their bits, so equal IDs mean equal ShapeKeys
// (the keys format the same bits); the converse fails only for NaNs of
// different payloads, which format alike.
type ShapeID struct {
	family uint8  // idUBall or idConGau
	dim    int    // pdf dimensionality
	a, b   uint64 // the family's shape parameters, as math.Float64bits
}

// The families a ShapeID names.
const (
	idUBall = 1 + iota
	idConGau
)

// ShapeIDOf returns p's ShapeID, and false for a pdf whose family has none
// (the caller formats its ShapeKey). Two pdfs with equal IDs have equal
// non-empty ShapeKeys.
func ShapeIDOf(p PDF) (ShapeID, bool) {
	switch v := p.(type) {
	case *UniformBall:
		return ShapeID{family: idUBall, dim: v.Dim(), a: math.Float64bits(v.R)}, true
	case *ConGauBall:
		return ShapeID{family: idConGau, dim: v.Dim(), a: math.Float64bits(v.R), b: math.Float64bits(v.Sigma)}, true
	}
	return ShapeID{}, false
}

// MarginalTable reports whether p's MarginalCDF should be read from its
// shape's table instead of being called. Which is a static property of the
// type and dimension:
//
//   - UniformRect, GaussRect, ExpoRect, HistogramRect, UniformPolygon and
//     UniformBall in any dimension and ConGauBall for d ∈ {1, 3} are closed
//     form — tens of nanoseconds, call them;
//   - ConGauBall for d = 2 runs a fixed Gauss–Legendre rule over 48 chord
//     masses per call (BenchmarkMarginalCDF: ≈ 2 µs against a 0.2 µs table
//     read, and a candidate needs four): tabulate;
//   - a Mixture is as cheap as its components, which the caller should
//     visit itself (Components, Component): asked about the mixture as a
//     whole the answer is "call it".
func MarginalTable(p PDF) bool {
	g, ok := p.(*ConGauBall)
	return ok && g.Dim() == 2
}

// QuadrantTable reports whether the masses p places beyond two faces at
// once — P(X₀ − c₀ > a, X₁ − c₁ > b) for offsets a, b from its centre —
// should be read from its shape's table: for a ball in 2-D, uniform or
// Con-Gau, whose rotational symmetry makes that one function of (a, b)
// give the mass beyond any two faces.
func QuadrantTable(p PDF) bool {
	switch p.(type) {
	case *UniformBall, *ConGauBall:
		return p.Dim() == 2
	}
	return false
}
