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
	family uint8   // codec type tag of a built-in family, 0 for a foreign pdf
	dim    int     // pdf dimensionality
	a, b   float64 // the family's shape parameters
	key    string  // a foreign pdf's ShapeKey
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
//     whole the answer is "call it";
//   - a pdf defined outside this package is assumed expensive and is
//     tabulated under its ShapeKey; with an empty ShapeKey no two objects
//     may share a table, and it has to be called.
func MarginalTable(p PDF) (shape ShapeID, tabulate bool) {
	switch v := p.(type) {
	case *UniformRect, *GaussRect, *ExpoRect, *HistogramRect, *UniformPolygon, *UniformBall, *Mixture:
		return ShapeID{}, false
	case *ConGauBall:
		if v.Dim() == 2 {
			return ShapeID{family: tagConGauBall, dim: 2, a: v.R, b: v.Sigma}, true
		}
		return ShapeID{}, false
	}
	key := p.ShapeKey()
	return ShapeID{dim: p.Dim(), key: key}, key != ""
}
