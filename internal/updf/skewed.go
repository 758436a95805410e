package updf

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// ExpoRect is a product of truncated exponential densities on a rectangle:
//
//	pdf(x) ∝ Π_i exp(−Rate_i · (x_i − lo_i)),   x ∈ rect.
//
// It models the heavily skewed ("Zipf-like") distributions the paper lists
// among common stochastic models, while keeping every marginal and
// appearance probability in closed form.
type ExpoRect struct {
	Rect geom.Rect
	Rate []float64
	mass []float64 // per-dimension normalizer ∫ exp(−rate·t) dt over the side
}

// NewExpoRect constructs a truncated-exponential-product pdf. A zero rate on
// a dimension degrades gracefully to uniform on that dimension.
func NewExpoRect(rect geom.Rect, rate []float64) *ExpoRect {
	d := rect.Dim()
	if len(rate) != d {
		panic("updf: ExpoRect rate dimensionality mismatch")
	}
	e := &ExpoRect{Rect: rect.Clone(), Rate: append([]float64(nil), rate...)}
	e.mass = make([]float64, d)
	for i := 0; i < d; i++ {
		if rate[i] < 0 {
			panic(fmt.Sprintf("updf: negative rate on dim %d", i))
		}
		e.mass[i] = expoMass(rate[i], rect.Side(i))
		if e.mass[i] <= 0 {
			panic(fmt.Sprintf("updf: zero extent on dim %d", i))
		}
	}
	return e
}

// expoMass returns ∫₀^w exp(−rate·t) dt.
func expoMass(rate, w float64) float64 {
	if rate == 0 {
		return w
	}
	return (1 - math.Exp(-rate*w)) / rate
}

func (e *ExpoRect) Dim() int       { return e.Rect.Dim() }
func (e *ExpoRect) MBR() geom.Rect { return e.Rect.Clone() }

func (e *ExpoRect) Density(x geom.Point) float64 {
	if !e.Rect.ContainsPoint(x) {
		return 0
	}
	p := 1.0
	for i := range x {
		p *= math.Exp(-e.Rate[i]*(x[i]-e.Rect.Lo[i])) / e.mass[i]
	}
	return p
}

func (e *ExpoRect) SampleUniform(rng *rand.Rand, dst geom.Point) {
	for i := range dst {
		dst[i] = e.Rect.Lo[i] + rng.Float64()*(e.Rect.Hi[i]-e.Rect.Lo[i])
	}
}

func (e *ExpoRect) MarginalCDF(dim int, x float64) float64 {
	lo, hi := e.Rect.Lo[dim], e.Rect.Hi[dim]
	if x <= lo {
		return 0
	}
	if x >= hi {
		return 1
	}
	return clamp01(expoMass(e.Rate[dim], x-lo) / e.mass[dim])
}

func (e *ExpoRect) ShapeKey() string {
	key := shapeKey("expo", e.Dim())
	for i := range e.Rate {
		key = appendG(append(key, ':'), e.Rect.Side(i))
		key = appendG(append(key, ','), e.Rate[i])
	}
	return string(key)
}

func (e *ExpoRect) Center() geom.Point { return e.Rect.Center() }

func (e *ExpoRect) ExactProb(rq geom.Rect) float64 {
	p := 1.0
	for i := 0; i < e.Dim(); i++ {
		lo := math.Max(rq.Lo[i], e.Rect.Lo[i])
		hi := math.Min(rq.Hi[i], e.Rect.Hi[i])
		if lo >= hi {
			return 0
		}
		seg := expoMass(e.Rate[i], hi-e.Rect.Lo[i]) - expoMass(e.Rate[i], lo-e.Rect.Lo[i])
		p *= seg / e.mass[i]
	}
	return clamp01(p)
}

// HistogramRect is a piecewise-constant pdf over a regular grid on a
// rectangle. It is the package's stand-in for fully *arbitrary* pdfs — any
// density can be approximated by a histogram — while keeping marginals and
// appearance probabilities exactly computable, which is what makes the
// "arbitrary pdf" correctness tests deterministic.
type HistogramRect struct {
	Rect geom.Rect
	Bins []int     // number of cells per dimension
	Mass []float64 // probability mass per cell, row-major, sums to 1
	proj [][]float64
	cdf  [][]float64 // per-dimension prefix sums of proj
}

// NewHistogramRect builds a histogram pdf from non-negative cell weights
// (row-major over the grid; normalized internally). It panics on a shape
// mismatch or all-zero weights.
func NewHistogramRect(rect geom.Rect, bins []int, weights []float64) *HistogramRect {
	d := rect.Dim()
	if len(bins) != d {
		panic("updf: histogram bins dimensionality mismatch")
	}
	n := 1
	for i, b := range bins {
		if b <= 0 {
			panic(fmt.Sprintf("updf: non-positive bin count on dim %d", i))
		}
		n *= b
	}
	if len(weights) != n {
		panic(fmt.Sprintf("updf: %d weights for %d cells", len(weights), n))
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("updf: negative histogram weight")
		}
		total += w
	}
	if total <= 0 {
		panic("updf: all-zero histogram")
	}
	h := &HistogramRect{
		Rect: rect.Clone(),
		Bins: append([]int(nil), bins...),
		Mass: make([]float64, n),
	}
	for i, w := range weights {
		h.Mass[i] = w / total
	}
	// Per-dimension slab projections and prefix sums for marginal CDFs.
	h.proj = make([][]float64, d)
	h.cdf = make([][]float64, d)
	for i := 0; i < d; i++ {
		h.proj[i] = make([]float64, bins[i])
	}
	idx := make([]int, d)
	for c := 0; c < n; c++ {
		h.cellIndex(c, idx)
		for i := 0; i < d; i++ {
			h.proj[i][idx[i]] += h.Mass[c]
		}
	}
	for i := 0; i < d; i++ {
		h.cdf[i] = make([]float64, bins[i]+1)
		for k := 0; k < bins[i]; k++ {
			h.cdf[i][k+1] = h.cdf[i][k] + h.proj[i][k]
		}
	}
	return h
}

// cellIndex decodes the row-major cell number c into per-dimension indices.
func (h *HistogramRect) cellIndex(c int, idx []int) {
	for i := len(h.Bins) - 1; i >= 0; i-- {
		idx[i] = c % h.Bins[i]
		c /= h.Bins[i]
	}
}

// cellNumber is the inverse of cellIndex.
func (h *HistogramRect) cellNumber(idx []int) int {
	c := 0
	for i := 0; i < len(h.Bins); i++ {
		c = c*h.Bins[i] + idx[i]
	}
	return c
}

func (h *HistogramRect) Dim() int       { return h.Rect.Dim() }
func (h *HistogramRect) MBR() geom.Rect { return h.Rect.Clone() }

// cellVolume is the volume of a single grid cell.
func (h *HistogramRect) cellVolume() float64 {
	v := h.Rect.Area()
	for _, b := range h.Bins {
		v /= float64(b)
	}
	return v
}

func (h *HistogramRect) Density(x geom.Point) float64 {
	if !h.Rect.ContainsPoint(x) {
		return 0
	}
	idx := make([]int, h.Dim())
	for i := range x {
		f := (x[i] - h.Rect.Lo[i]) / h.Rect.Side(i)
		k := int(f * float64(h.Bins[i]))
		if k >= h.Bins[i] {
			k = h.Bins[i] - 1 // x on the upper boundary
		}
		idx[i] = k
	}
	return h.Mass[h.cellNumber(idx)] / h.cellVolume()
}

func (h *HistogramRect) SampleUniform(rng *rand.Rand, dst geom.Point) {
	for i := range dst {
		dst[i] = h.Rect.Lo[i] + rng.Float64()*h.Rect.Side(i)
	}
}

func (h *HistogramRect) MarginalCDF(dim int, x float64) float64 {
	lo := h.Rect.Lo[dim]
	side := h.Rect.Side(dim)
	if x <= lo {
		return 0
	}
	if x >= lo+side {
		return 1
	}
	f := (x - lo) / side * float64(h.Bins[dim])
	k := int(f)
	if k >= h.Bins[dim] {
		k = h.Bins[dim] - 1
	}
	frac := f - float64(k)
	return clamp01(h.cdf[dim][k] + frac*h.proj[dim][k])
}

// ShapeKey is empty: histograms are arbitrary, so quantile caching across
// objects would be unsound unless the weights match exactly.
func (h *HistogramRect) ShapeKey() string { return "" }

func (h *HistogramRect) Center() geom.Point { return h.Rect.Center() }

// ExactProb sums cell masses weighted by the fraction of each cell inside
// rq; exact because the density is constant per cell.
func (h *HistogramRect) ExactProb(rq geom.Rect) float64 {
	d := h.Dim()
	idx := make([]int, d)
	var total float64
	for c := range h.Mass {
		if h.Mass[c] == 0 {
			continue
		}
		h.cellIndex(c, idx)
		frac := 1.0
		for i := 0; i < d; i++ {
			w := h.Rect.Side(i) / float64(h.Bins[i])
			clo := h.Rect.Lo[i] + w*float64(idx[i])
			chi := clo + w
			lo := math.Max(clo, rq.Lo[i])
			hi := math.Min(chi, rq.Hi[i])
			if lo >= hi {
				frac = 0
				break
			}
			frac *= (hi - lo) / w
		}
		total += h.Mass[c] * frac
	}
	return clamp01(total)
}
