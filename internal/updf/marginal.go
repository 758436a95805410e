package updf

import "strconv"

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

// ShapeID is ShapeKey in comparable, allocation-free form: it names what a
// pdf's marginal CDFs depend on once Center() is subtracted, for callers
// that keep a per-shape table and look it up once per query candidate,
// where formatting the ShapeKey string would cost more than the lookup.
type ShapeID struct {
	dim  int     // pdf dimensionality
	a, b float64 // the family's shape parameters
}

// MarginalTable reports whether p's MarginalCDF should be read from a
// per-shape table instead of being called, and the shape to file the table
// under. Which is a static property of the type and dimension:
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
func MarginalTable(p PDF) (shape ShapeID, tabulate bool) {
	if g, ok := p.(*ConGauBall); ok && g.Dim() == 2 {
		return ShapeID{dim: 2, a: g.R, b: g.Sigma}, true
	}
	return ShapeID{}, false
}

// QuadrantTable reports whether the masses p places beyond two faces at
// once — P(X₀ − c₀ > a, X₁ − c₁ > b) for offsets a, b from its centre —
// should be read from a per-shape table, and the shape to file it under:
// for a ball in 2-D, uniform or Con-Gau, whose rotational symmetry makes
// that one function of (a, b) give the mass beyond any two faces. The
// shape's b is the Con-Gau's σ and 0 for a uniform ball, which no Con-Gau
// has.
func QuadrantTable(p PDF) (shape ShapeID, tabulate bool) {
	switch v := p.(type) {
	case *UniformBall:
		if v.Dim() == 2 {
			return ShapeID{dim: 2, a: v.R}, true
		}
	case *ConGauBall:
		if v.Dim() == 2 {
			return ShapeID{dim: 2, a: v.R, b: v.Sigma}, true
		}
	}
	return ShapeID{}, false
}
