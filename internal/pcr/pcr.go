package pcr

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/updf"
)

// PCRs holds an object's probabilistically constrained regions at every
// catalog value: Boxes[j] = o.pcr(p_j). By construction Boxes[0] (p=0) is
// the region MBR and boxes shrink (nest) as j grows.
type PCRs struct {
	Cat   Catalog
	Boxes []geom.Rect
}

// QuantileCache memoizes marginal quantile *offsets* (relative to the pdf's
// Center) per pdf ShapeKey, dimension and catalog. The paper observes that
// the normalization constant λ of the CA dataset "needs to be calculated
// only once" because every object shares the same pdf shape; this cache
// generalizes that: a dataset of identically-shaped objects computes its
// quantiles exactly once. For the shapes updf.MarginalTable says to tabulate
// it also holds the CDF tables refinement reads instead (cdftable.go). Safe
// for concurrent use.
type QuantileCache struct {
	mu     sync.Mutex
	m      map[offsetsKey][]float64
	tables map[tableKey]*cdfTable
}

type offsetsKey struct {
	shape string
	dim   int
	cat   string
}

// NewQuantileCache returns an empty cache.
func NewQuantileCache() *QuantileCache {
	return &QuantileCache{m: make(map[offsetsKey][]float64), tables: make(map[tableKey]*cdfTable)}
}

// offsets returns, for pdf p and dimension dim, the 2m quantile offsets
// {Q(p_1)−c, Q(1−p_1)−c, …} for catalog cat, computing and caching them when
// the pdf has a non-empty shape key. shape is p.ShapeKey(), which the
// caller evaluates once for all dimensions.
func (qc *QuantileCache) offsets(p updf.PDF, shape string, dim int, cat Catalog) []float64 {
	cached := qc != nil && shape != ""
	key := offsetsKey{shape: shape, dim: dim, cat: cat.key}
	if cached {
		qc.mu.Lock()
		off, ok := qc.m[key]
		qc.mu.Unlock()
		if ok {
			return off
		}
	}
	c := p.Center()[dim]
	m := cat.Size()
	off := make([]float64, 2*m)
	for j := 0; j < m; j++ {
		pj := cat.Value(j)
		off[2*j] = updf.MarginalQuantile(p, dim, pj) - c
		off[2*j+1] = updf.MarginalQuantile(p, dim, 1-pj) - c
	}
	if cached {
		qc.mu.Lock()
		qc.m[key] = off
		qc.mu.Unlock()
	}
	return off
}

// Compute derives the PCRs of pdf p at all values of catalog cat. The
// optional cache (may be nil) memoizes quantiles across identically shaped
// pdfs. PCR faces obey the paper's definition: the appearance probability
// left of pcr_i−(p_j) and right of pcr_i+(p_j) both equal p_j.
func Compute(p updf.PDF, cat Catalog, cache *QuantileCache) PCRs {
	shape := ""
	if cache != nil {
		shape = p.ShapeKey()
	}
	return ComputeKeyed(p, shape, cat, cache)
}

// ComputeKeyed is Compute for a caller that has shape = p.ShapeKey() in hand.
func ComputeKeyed(p updf.PDF, shape string, cat Catalog, cache *QuantileCache) PCRs {
	d := p.Dim()
	m := cat.Size()
	ctr := p.Center()
	boxes := make([]geom.Rect, m)
	los := make([][]float64, m)
	his := make([][]float64, m)
	for j := 0; j < m; j++ {
		los[j] = make([]float64, d)
		his[j] = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		off := cache.offsets(p, shape, i, cat)
		for j := 0; j < m; j++ {
			lo := ctr[i] + off[2*j]
			hi := ctr[i] + off[2*j+1]
			if lo > hi {
				// Numerical crossing near p = 0.5: collapse to midpoint.
				mid := (lo + hi) / 2
				lo, hi = mid, mid
			}
			los[j][i], his[j][i] = lo, hi
		}
	}
	for j := 0; j < m; j++ {
		boxes[j] = geom.Rect{Lo: los[j], Hi: his[j]}
	}
	// pcr(0) is the uncertainty region MBR by definition. Pin it exactly:
	// the quantile path computes ctr + (quantile − ctr') with the cache's
	// seed object ctr', whose rounding can land ~1e-13 inside the true MBR —
	// enough to break the strict containment chain (leaf CFB ⊆ parent boxes)
	// that Delete's descent relies on, in a way that depends on which object
	// warmed the cache. The nesting pass below re-expands pcr(0) if quantile
	// noise pushed an inner box outside the MBR.
	if cat.Value(0) == 0 {
		boxes[0] = p.MBR().Clone()
	}
	// Enforce nesting exactly (quantile noise could break it marginally):
	// pcr(p_{j}) must contain pcr(p_{j+1}).
	for j := m - 2; j >= 0; j-- {
		for i := 0; i < d; i++ {
			if boxes[j].Lo[i] > boxes[j+1].Lo[i] {
				boxes[j].Lo[i] = boxes[j+1].Lo[i]
			}
			if boxes[j].Hi[i] < boxes[j+1].Hi[i] {
				boxes[j].Hi[i] = boxes[j+1].Hi[i]
			}
		}
	}
	return PCRs{Cat: cat, Boxes: boxes}
}

// Box returns o.pcr(p_j).
func (p PCRs) Box(j int) geom.Rect { return p.Boxes[j] }
