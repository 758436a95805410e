package pcr

import (
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/updf"
)

// cdfKnots is the number of intervals a cdfTable divides the support's
// extent into: a tail read from it is at most 1/512 of the extent times the
// peak marginal density wide (≈ 0.003 for the CA dataset's Con-Gau), and a
// table is 4 KB.
const cdfKnots = 512

// cdfTable brackets one shape's marginal CDF on one dimension without
// evaluating it: the CDF at cdfKnots+1 evenly spaced knots across the
// support, as offsets from Center(), so every translate of the shape reads
// the same table. It is a bracket, not an interpolant — for an offset
// between two knots the CDF lies between their two values because a CDF is
// monotone, which is all its soundness rests on.
type cdfTable struct {
	once     sync.Once
	lo, step float64 // knot k sits at offset lo + k·step
	hi       float64 // offset of the last knot
	cdf      [cdfKnots + 1]float64
}

type tableKey struct {
	shape updf.ShapeID
	dim   int
}

func (t *cdfTable) knot(k int) float64 { return t.lo + float64(k)*t.step }

// build evaluates the knots on p, the first pdf of its shape to ask. The
// ends are pinned to exactly 0 and 1 and the values made non-decreasing,
// which a quadrature rule's rounding does not promise of itself.
func (t *cdfTable) build(p updf.PDF, dim int) {
	mbr, c := p.MBR(), p.Center()[dim]
	t.lo = mbr.Lo[dim] - c
	t.step = (mbr.Hi[dim] - mbr.Lo[dim]) / cdfKnots
	t.hi = t.knot(cdfKnots)
	for k := 1; k < cdfKnots; k++ {
		t.cdf[k] = max(t.cdf[k-1], p.MarginalCDF(dim, c+t.knot(k)))
	}
	t.cdf[cdfKnots] = 1
}

// bracket returns lo ≤ P(X_dim − Center()[dim] < off) ≤ hi; outside the
// support both are exactly 0 or exactly 1.
func (t *cdfTable) bracket(off float64) (lo, hi float64) {
	if off <= t.lo {
		return 0, 0
	}
	if off >= t.hi {
		return 1, 1
	}
	k := min(int((off-t.lo)/t.step), cdfKnots-1)
	// The division can land one interval off when off is within rounding of
	// a knot; settle on the interval that holds off between the knots as
	// build placed them.
	if off < t.knot(k) {
		k--
	} else if off > t.knot(k+1) {
		k++
	}
	return t.cdf[k], t.cdf[k+1]
}

// Tables reports how many CDF tables the cache holds: one per shape and
// dimension that refinement or a shape test has read through it.
func (qc *QuantileCache) Tables() int { return len(*qc.tables.Load()) }

// table returns the CDF table of p's shape on dimension dim, building it on
// first use — exactly once however many queries ask at the same time, and
// outside the cache's lock, since MarginalCDF may be the caller's code.
func (qc *QuantileCache) table(p updf.PDF, shape updf.ShapeID, dim int) *cdfTable {
	t := entry(&qc.mu, &qc.tables, tableKey{shape, dim})
	t.once.Do(func() { t.build(p, dim) })
	return t
}

// entry returns what m holds under key, adding a new zero value if it
// holds nothing. A value that exists is found without the lock; a new one
// is added under it to a copy of the map, which then replaces it.
func entry[K comparable, V any](mu *sync.Mutex, m *atomic.Pointer[map[K]*V], key K) *V {
	v := (*m.Load())[key]
	if v == nil {
		mu.Lock()
		old := *m.Load()
		if v = old[key]; v == nil {
			v = new(V)
			next := make(map[K]*V, len(old)+1)
			maps.Copy(next, old)
			next[key] = v
			m.Store(&next)
		}
		mu.Unlock()
	}
	return v
}
