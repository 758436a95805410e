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
// Center) per pdf ShapeKey, dimension and catalog, for Compute: as the
// paper computes the CA dataset's λ once, a dataset of identically-shaped
// objects computes its quantiles once. (An index keeps them, with a shape's
// fit and tables, in its Shape.) Safe for concurrent use.
type QuantileCache struct {
	mu sync.Mutex
	m  map[offsetsKey][]float64
}

type offsetsKey struct {
	shape string
	dim   int
	cat   string
}

// NewQuantileCache returns an empty cache.
func NewQuantileCache() *QuantileCache {
	return &QuantileCache{m: make(map[offsetsKey][]float64)}
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
	off := make([][]float64, p.Dim())
	for i := range off {
		off[i] = cache.offsets(p, shape, i, cat)
	}
	return pcrsAt(cat, p.Center(), p.MBR(), off)
}

// pcrsAt returns the PCRs of a pdf centred at ctr whose region MBR is mbr,
// from its shape's quantile offsets (off[i] on dimension i), over one
// coordinate slab.
func pcrsAt(cat Catalog, ctr geom.Point, mbr geom.Rect, off [][]float64) PCRs {
	d, m := len(ctr), cat.Size()
	coords := make([]float64, 2*d*m)
	boxes := make([]geom.Rect, m)
	for j := range boxes {
		c := coords[2*d*j : 2*d*(j+1)]
		boxes[j] = geom.Rect{Lo: c[:d:d], Hi: c[d:]}
	}
	var s fitScratch
	for i := range ctr {
		lo, hi := s.faces(ctr[i], off[i], mbr.Lo[i], mbr.Hi[i])
		for j, b := range boxes {
			b.Lo[i], b.Hi[i] = lo[j], hi[j]
		}
	}
	return PCRs{Cat: cat, Boxes: boxes}
}
