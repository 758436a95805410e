package updf

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// Mixture is a finite weighted mixture of pdfs — multi-modal uncertainty,
// e.g. "the client is near one of two plausible road exits". Marginal CDFs
// and appearance probabilities are weighted sums of the components'.
//
// The uncertainty region is the union of component regions; uniform region
// sampling draws from the union's MBR, which is sound for the Monte-Carlo
// estimator (points outside the support have zero density and cancel from
// both sums of Equation 3).
type Mixture struct {
	comps   []PDF
	weights []float64
	mbr     geom.Rect
}

// NewMixture builds a mixture; weights are normalized internally. All
// components must share a dimensionality, and weights must be non-negative
// with a positive sum.
func NewMixture(comps []PDF, weights []float64) *Mixture {
	if len(comps) == 0 || len(comps) != len(weights) {
		panic(fmt.Sprintf("updf: mixture with %d components, %d weights", len(comps), len(weights)))
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("updf: negative mixture weight")
		}
		total += w
	}
	if total <= 0 {
		panic("updf: mixture weights sum to zero")
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
	}
	return mixtureOf(comps, norm)
}

// mixtureOf builds the mixture of comps with the normalized weights as
// they are — NewMixture's, or a decoded encoding's, which normalizing
// again could move by an ulp. It keeps weights.
func mixtureOf(comps []PDF, weights []float64) *Mixture {
	for _, c := range comps[1:] {
		if c.Dim() != comps[0].Dim() {
			panic("updf: mixture components with mixed dimensionality")
		}
	}
	m := &Mixture{comps: comps, weights: weights}
	m.mbr = comps[0].MBR()
	for _, c := range comps[1:] {
		m.mbr.UnionInPlace(c.MBR())
	}
	return m
}

// Components returns the component count.
func (m *Mixture) Components() int { return len(m.comps) }

// Component returns component i and its normalized weight.
func (m *Mixture) Component(i int) (PDF, float64) { return m.comps[i], m.weights[i] }

func (m *Mixture) Dim() int       { return m.comps[0].Dim() }
func (m *Mixture) MBR() geom.Rect { return m.mbr.Clone() }

func (m *Mixture) Density(x geom.Point) float64 {
	var s float64
	for i, c := range m.comps {
		s += m.weights[i] * c.Density(x)
	}
	return s
}

func (m *Mixture) SampleUniform(rng *rand.Rand, dst geom.Point) {
	for i := range dst {
		dst[i] = m.mbr.Lo[i] + rng.Float64()*(m.mbr.Hi[i]-m.mbr.Lo[i])
	}
}

func (m *Mixture) MarginalCDF(dim int, x float64) float64 {
	var s float64
	for i, c := range m.comps {
		s += m.weights[i] * c.MarginalCDF(dim, x)
	}
	return clamp01(s)
}

// ShapeKey is empty: mixtures are treated as unique shapes (component
// translation offsets rarely coincide across objects).
func (m *Mixture) ShapeKey() string { return "" }

func (m *Mixture) Center() geom.Point { return m.mbr.Center() }

// ExactProb sums component probabilities; exactly 1 on a rectangle
// covering the MBR, which the normalized weights sum to only to rounding.
func (m *Mixture) ExactProb(rq geom.Rect) float64 {
	if rq.Contains(m.mbr) {
		return 1
	}
	var s float64
	for i, c := range m.comps {
		s += m.weights[i] * c.ExactProb(rq)
	}
	return clamp01(s)
}
